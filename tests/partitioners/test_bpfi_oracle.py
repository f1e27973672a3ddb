"""Property-based oracle: Algorithm 2 vs the exact B-BPFI solver.

Random tiny key-frequency vectors are partitioned by the Algorithm 2
heuristic (``PromptBatchPartitioner``) and scored against the
branch-and-bound oracle :func:`~repro.partitioners.bpfi.exact_min_fragments`
plus the instance lower bound.  The asserted approximation bounds were
calibrated over several thousand random instances and carry slack:

- **capacity** (Definition 1, requirement 1): every block stays within
  ``p_size + max(1, p_size // 16)`` — the ceil slack plus the rebalance
  pass's documented ``p_size // 64`` tolerance, with margin;
- **fragmentation** (requirement 3): total fragments never exceed
  ``2 * OPT + num_blocks``.  The factor 2 comes from hot-key dicing
  into half-block chunks (a key of size ``s`` spans at most
  ``ceil(s / (p_size/2)) <= 2 * ceil(s / p_size) + 1`` blocks), the
  additive term from rebalance shaves;
- **sanity floor**: at least one fragment per distinct key, so
  ``KSR >= 1`` always.

Instances are kept tiny (K <= 8, B <= 4, sizes <= 60) so the exact
solver stays inside its node budget.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchInfo
from repro.core.batch_partitioner import PromptBatchPartitioner
from repro.core.buffering import AccumulatedBatch
from repro.core.metrics import evaluate_partition
from repro.core.tuples import StreamTuple
from repro.partitioners.bpfi import exact_min_fragments, fragment_lower_bound

INFO = BatchInfo(0, 0.0, 1.0)

frequency_vectors = st.lists(
    st.integers(min_value=1, max_value=60), min_size=1, max_size=8
)
bin_counts = st.integers(min_value=2, max_value=4)


def _instance(freqs: list[int]):
    """(items, batch) for one frequency vector, largest first."""
    named = {f"k{i}": n for i, n in enumerate(freqs)}
    items = sorted(named.items(), key=lambda kv: (-kv[1], kv[0]))
    batch = AccumulatedBatch.from_chains(
        INFO,
        [k for k, _ in items],
        [
            [StreamTuple(ts=j * 1e-3, key=k, value=None) for j in range(n)]
            for k, n in items
        ],
    )
    return items, batch


def _solve(freqs: list[int], num_blocks: int):
    items, accumulated = _instance(freqs)
    total = sum(freqs)
    p_size = math.ceil(total / num_blocks)
    batch = PromptBatchPartitioner().partition(accumulated, num_blocks)
    exact = exact_min_fragments(items, num_blocks, p_size, node_limit=500_000)
    return batch, items, p_size, exact


@settings(max_examples=120, deadline=None)
@given(freqs=frequency_vectors, num_blocks=bin_counts)
def test_no_tuple_is_lost_or_duplicated(freqs, num_blocks):
    _, accumulated = _instance(freqs)
    batch = PromptBatchPartitioner().partition(accumulated, num_blocks)
    placed: dict[str, int] = {}
    for block in batch.blocks:
        for key, size in block.fragment_sizes().items():
            placed[key] = placed.get(key, 0) + size
    assert placed == {f"k{i}": n for i, n in enumerate(freqs)}
    # the reference table records exactly the keys spanning > 1 block
    spans = {
        k: sum(1 for b in batch.blocks if k in b) for k in placed
    }
    assert set(batch.split_keys) == {k for k, c in spans.items() if c > 1}


@settings(max_examples=120, deadline=None)
@given(freqs=frequency_vectors, num_blocks=bin_counts)
def test_blocks_respect_capacity_bound(freqs, num_blocks):
    batch, _, p_size, _ = _solve(freqs, num_blocks)
    quality = evaluate_partition(batch)
    tolerance = max(1, p_size // 16)
    assert quality.max_block_size <= p_size + tolerance
    # BSI can never exceed the capacity itself (max <= p_size + tol,
    # avg >= 0); normalized it stays strictly below 1 + tol/p_size.
    assert quality.bsi <= p_size + tolerance


@settings(max_examples=120, deadline=None)
@given(freqs=frequency_vectors, num_blocks=bin_counts)
def test_fragmentation_within_factor_two_of_optimal(freqs, num_blocks):
    batch, items, p_size, exact = _solve(freqs, num_blocks)
    fragments = batch.key_fragment_count()
    lower = fragment_lower_bound(items, num_blocks, p_size)
    assert exact >= lower  # oracle self-consistency
    assert fragments >= len(items)  # every key appears somewhere
    assert fragments <= 2 * exact + num_blocks


@settings(max_examples=120, deadline=None)
@given(freqs=frequency_vectors, num_blocks=bin_counts)
def test_ksr_bounded_by_fragment_ratio(freqs, num_blocks):
    batch, items, _, exact = _solve(freqs, num_blocks)
    quality = evaluate_partition(batch)
    assert quality.ksr >= 1.0
    assert quality.ksr <= (2 * exact + num_blocks) / len(items)


def test_oracle_agrees_with_lower_bound_on_known_instance():
    """Figure 5's running example: oracle between bound and heuristics."""
    items = [("K1", 150), ("K2", 80), ("K3", 50), ("K4", 40),
             ("K5", 25), ("K6", 20), ("K7", 12), ("K8", 8)]
    exact = exact_min_fragments(items, 4, 97)
    assert fragment_lower_bound(items, 4, 97) <= exact
    freqs = [size for _, size in items]
    batch, _, _, exact_again = _solve(freqs, 4)
    assert exact_again == exact
    assert batch.key_fragment_count() <= 2 * exact + 4
