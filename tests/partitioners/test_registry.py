"""Technique registry: names, construction, kwargs routing."""

from __future__ import annotations

import pytest

from repro.partitioners import (
    PARTITIONER_NAMES,
    Partitioner,
    make_partitioner,
)
from repro.partitioners.cam import CAMPartitioner


def test_all_names_construct():
    for name in PARTITIONER_NAMES:
        part = make_partitioner(name)
        assert isinstance(part, Partitioner)


def test_names_cover_paper_techniques():
    assert {"time", "shuffle", "hash", "pk2", "pk5", "cam", "prompt"} <= set(
        PARTITIONER_NAMES
    )


def test_ablation_variants_present():
    assert make_partitioner("prompt-postsort").post_sort is True
    assert make_partitioner("prompt-exact").accumulator.exact_updates is True
    assert (
        make_partitioner("prompt-zigzag").batch_partitioner.strategy == "zigzag"
    )


def test_unknown_name_raises_with_known_list():
    with pytest.raises(ValueError, match="unknown partitioner"):
        make_partitioner("nope")


def test_kwargs_forwarded():
    cam = make_partitioner("cam", d=8, gamma=0.5)
    assert isinstance(cam, CAMPartitioner)
    assert cam.d == 8
    assert cam.gamma == 0.5


def test_kwargs_rejected_for_fixed_variants():
    with pytest.raises(ValueError):
        make_partitioner("prompt-postsort", d=3)


def test_each_call_returns_fresh_instance():
    assert make_partitioner("prompt") is not make_partitioner("prompt")
