"""Multi-tenant wrappers: tagging, interleave determinism, replay."""

from __future__ import annotations

import pytest

from repro.workloads import (
    ConstantRate,
    MultiTenantSource,
    TenantStream,
    TenantTaggedSource,
    synd_source,
    tenant_of,
)


def _tenants(n=3, rate=300.0, keys=40):
    return [
        TenantStream(
            f"t{i}",
            synd_source(exponent=1.2, rate=rate, seed=50 + i, num_keys=keys),
        )
        for i in range(n)
    ]


def test_tagged_source_wraps_every_key():
    t = _tenants(1)[0]
    tagged = TenantTaggedSource(t.tenant, t.source)
    out = tagged.tuples_between(0.0, 0.5)
    assert out
    assert all(tup.key[0] == "t0" for tup in out)
    assert all(tenant_of(tup.key) == "t0" for tup in out)


def test_tenant_of_rejects_untagged_keys():
    with pytest.raises(ValueError, match="tagged key"):
        tenant_of("bare-key")


def test_union_is_timestamp_sorted_and_tagged():
    union = MultiTenantSource(_tenants())
    out = union.tuples_between(0.0, 0.5)
    assert out
    assert [t.ts for t in out] == sorted(t.ts for t in out)
    assert {tenant_of(t.key) for t in out} == {"t0", "t1", "t2"}


def test_union_replays_identically_after_reset():
    union = MultiTenantSource(_tenants())
    first = [union.tuples_between(i * 0.5, (i + 1) * 0.5) for i in range(4)]
    union.reset()
    second = [union.tuples_between(i * 0.5, (i + 1) * 0.5) for i in range(4)]
    assert first == second


def test_union_slice_equals_tenant_reference_stream():
    """A tenant's tuples in the union == its TenantTaggedSource stream.

    This is the ingestion half of the sharding differential contract:
    both wrappers pull the underlying source over the same intervals,
    so the per-tenant RNG streams advance identically.
    """
    union = MultiTenantSource(_tenants())
    ref = TenantTaggedSource(
        "t1", synd_source(exponent=1.2, rate=300.0, seed=51, num_keys=40)
    )
    for i in range(4):
        t0, t1 = i * 0.5, (i + 1) * 0.5
        mine = [t for t in union.tuples_between(t0, t1) if t.key[0] == "t1"]
        theirs = ref.tuples_between(t0, t1)
        assert mine == theirs


def test_union_rejects_duplicate_and_empty_tenants():
    with pytest.raises(ValueError, match="at least one"):
        MultiTenantSource([])
    t = _tenants(1)[0]
    with pytest.raises(ValueError, match="duplicate"):
        MultiTenantSource([t, TenantStream("t0", t.source)])


def test_union_preserves_weights_and_values():
    union = MultiTenantSource(_tenants(2))
    for tup in union.tuples_between(0.0, 0.5):
        assert tup.weight == 1


def test_tenant_ids_exposed_in_declaration_order():
    union = MultiTenantSource(_tenants(3))
    assert union.tenant_ids == ("t0", "t1", "t2")


def test_same_rate_tenants_tie_break_by_position():
    """Equal timestamps interleave by tenant position, deterministically."""
    tenants = [
        TenantStream(
            f"t{i}",
            synd_source(
                exponent=1.2, arrival=ConstantRate(100.0), seed=9, num_keys=10
            ),
        )
        for i in range(2)
    ]
    union = MultiTenantSource(tenants)
    out = union.tuples_between(0.0, 0.2)
    # identical seeds -> identical timestamps; t0 must always lead
    by_ts: dict[float, list[str]] = {}
    for t in out:
        by_ts.setdefault(t.ts, []).append(t.key[0])
    for order in by_ts.values():
        assert order == sorted(order)
