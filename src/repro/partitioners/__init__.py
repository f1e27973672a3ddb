"""Batching-phase partitioning techniques: Prompt plus all baselines."""

from .base import Partitioner, StreamingPartitioner
from .cam import CAMPartitioner
from .fang import FangRepartitioner
from .feedback import (
    FEEDBACK_LAG,
    NULL_FEEDBACK,
    FeedbackBuffer,
    NullFeedback,
    WorkerLoadFeedback,
)
from .hashing import HashPartitioner
from .heavy_split import HeavyHitterSplitPartitioner
from .key_split import (
    DChoicesPartitioner,
    KeySplitPartitioner,
    PK2Partitioner,
    PK5Partitioner,
    WChoicesPartitioner,
)
from .prompt import PromptPartitioner
from .registry import PARTITIONER_NAMES, make_partitioner
from .shuffle import ShufflePartitioner
from .time_based import TimeBasedPartitioner

__all__ = [
    "CAMPartitioner",
    "DChoicesPartitioner",
    "FEEDBACK_LAG",
    "FangRepartitioner",
    "FeedbackBuffer",
    "HashPartitioner",
    "HeavyHitterSplitPartitioner",
    "KeySplitPartitioner",
    "NULL_FEEDBACK",
    "NullFeedback",
    "PARTITIONER_NAMES",
    "PK2Partitioner",
    "PK5Partitioner",
    "Partitioner",
    "PromptPartitioner",
    "ShufflePartitioner",
    "StreamingPartitioner",
    "TimeBasedPartitioner",
    "WChoicesPartitioner",
    "WorkerLoadFeedback",
    "make_partitioner",
]
