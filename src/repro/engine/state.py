"""Batch state store: immutable per-batch outputs plus input replication.

Section 8 (Consistency in Prompt): state isolation falls out of the
micro-batch model — each batch's output is decoupled from the tasks
that produced it and preserved immutably until the batch exits the
query window.  Exactly-once semantics come from replicating the input
batch: "In case of losing a batch's state due to hardware failure,
this state is recomputed using the replicated batched data."
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Mapping, Optional, Sequence

from ..core.tuples import Key, StreamTuple
from .columns import FrozenMapping

__all__ = ["BatchState", "StateStore"]


@dataclass(frozen=True)
class BatchState:
    """One batch's preserved computation state."""

    index: int
    output: Mapping[Key, Any]
    replicated_input: Optional[tuple[StreamTuple, ...]] = None
    #: end offset of each Map block in ``replicated_input`` (empty: the
    #: input is one block), so a recomputation can fold as the engine did
    block_ends: tuple[int, ...] = ()

    @property
    def recoverable(self) -> bool:
        return self.replicated_input is not None


class StateStore:
    """In-memory store of batch states within the active window span.

    ``replicate_inputs=True`` keeps each batch's raw tuples alongside
    its output so a lost state can be recomputed (the fault-tolerance
    path exercised by :mod:`repro.engine.faults`).
    """

    def __init__(self, *, replicate_inputs: bool = False) -> None:
        self.replicate_inputs = replicate_inputs
        self._states: dict[int, BatchState] = {}
        self._evicted_through = -1

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, index: int) -> bool:
        return index in self._states

    def put(
        self,
        index: int,
        output: Mapping[Key, Any],
        input_tuples: Sequence[StreamTuple] | None = None,
        block_ends: Sequence[int] = (),
    ) -> BatchState:
        """Preserve a batch's output (immutably) and optionally its input.

        An output that already is a :class:`FrozenMapping` is kept as it
        is; any other mapping is copied."""
        if index in self._states:
            raise ValueError(f"batch {index} already has preserved state")
        if index <= self._evicted_through:
            raise ValueError(f"batch {index} was already evicted; window moved on")
        replicated = None
        if self.replicate_inputs:
            if input_tuples is None:
                raise ValueError(
                    "replicate_inputs is on but no input tuples were provided"
                )
            replicated = tuple(input_tuples)
        state = BatchState(
            index=index,
            output=_frozen(output),
            replicated_input=replicated,
            block_ends=tuple(block_ends),
        )
        self._states[index] = state
        return state

    def get(self, index: int) -> BatchState:
        try:
            return self._states[index]
        except KeyError:
            raise KeyError(f"no preserved state for batch {index}") from None

    def drop_output(self, index: int) -> None:
        """Simulate losing a batch's state (the failure being injected).

        The replicated input, held on other nodes, survives.
        """
        state = self.get(index)
        self._states[index] = replace(state, output=MappingProxyType({}))

    def restore(self, index: int, output: Mapping[Key, Any]) -> BatchState:
        """Install a recomputed output for a previously lost state."""
        restored = replace(self.get(index), output=_frozen(output))
        self._states[index] = restored
        return restored

    def evict_through(self, index: int) -> int:
        """Release every batch <= ``index`` (it left the query window).

        "Once the batch output is produced and the batch expires from
        the query window, this batch can be removed."  Returns how many
        states were released.
        """
        victims = [i for i in self._states if i <= index]
        for i in victims:
            del self._states[i]
        self._evicted_through = max(self._evicted_through, index)
        return len(victims)


def _frozen(output: Mapping[Key, Any]) -> Mapping[Key, Any]:
    if isinstance(output, FrozenMapping):
        return output
    return MappingProxyType(dict(output))
