"""Name-based construction of partitioning techniques.

The evaluation harness refers to techniques by the names used in the
paper's figures: ``time``, ``shuffle``, ``hash``, ``pk2``, ``pk5``,
``cam``, ``prompt`` (plus ablation variants ``prompt-postsort`` and
``prompt-exact``).
"""

from __future__ import annotations

from typing import Callable

from .base import Partitioner
from .cam import CAMPartitioner
from .fang import FangRepartitioner
from .hashing import HashPartitioner
from .heavy_split import HeavyHitterSplitPartitioner
from .key_split import (
    DChoicesPartitioner,
    PK2Partitioner,
    PK5Partitioner,
    WChoicesPartitioner,
)
from .prompt import PromptPartitioner
from .shuffle import ShufflePartitioner
from .time_based import TimeBasedPartitioner

__all__ = ["PARTITIONER_NAMES", "make_partitioner"]

_FACTORIES: dict[str, Callable[[], Partitioner]] = {
    "time": TimeBasedPartitioner,
    "shuffle": ShufflePartitioner,
    "hash": HashPartitioner,
    "pk2": PK2Partitioner,
    "pk5": PK5Partitioner,
    "pkh": HeavyHitterSplitPartitioner,
    "d-choices": DChoicesPartitioner,
    "w-choices": WChoicesPartitioner,
    "fang": FangRepartitioner,
    "cam": CAMPartitioner,
    "prompt": PromptPartitioner,
    "prompt-postsort": lambda: PromptPartitioner(post_sort=True),
    "prompt-exact": lambda: PromptPartitioner(exact_updates=True),
    "prompt-zigzag": lambda: PromptPartitioner(strategy="zigzag"),
    "prompt-sketch": lambda: PromptPartitioner(stats="sketch"),
}

PARTITIONER_NAMES: tuple[str, ...] = tuple(_FACTORIES)


def make_partitioner(name: str, **kwargs) -> Partitioner:
    """Instantiate a technique by its figure name.

    Keyword arguments are forwarded to the constructor (e.g.
    ``make_partitioner("cam", d=8)``); names with no parameters reject
    unexpected kwargs naturally.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(f"unknown partitioner {name!r}; known: {known}") from None
    if kwargs:
        if name in ("prompt-postsort", "prompt-exact", "prompt-zigzag", "prompt-sketch"):
            raise ValueError(f"{name!r} takes no keyword arguments")
        return _FACTORIES[name](**kwargs)  # type: ignore[call-arg]
    return factory()

