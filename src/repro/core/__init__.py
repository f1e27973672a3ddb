"""Prompt's core contribution: frequency-aware buffering, B-BPFI batch
partitioning, B-BPVC reduce allocation, elasticity, and the cost model.
"""

from .batch import BatchInfo, DataBlock, PartitionedBatch
from .batch_partitioner import PromptBatchPartitioner
from .buffering import AccumulatedBatch, MicroBatchAccumulator
from .config import (
    AccumulatorConfig,
    EarlyReleaseConfig,
    ElasticityConfig,
    MPIWeights,
    PartitionerConfig,
    PromptConfig,
)
from .early_release import EarlyReleaseController, ReleaseWindow
from .elasticity import AutoScaler, ScalingDecision, Zone
from .hashing import candidate_buckets, hash_to_bucket, stable_hash
from .metrics import (
    PartitionQuality,
    block_cardinality_imbalance,
    block_size_imbalance,
    evaluate_partition,
    key_split_ratio,
    micro_batch_partitioning_imbalance,
    relative_metric,
)
from .sketch_accumulator import SketchMicroBatchAccumulator
from .sketches import SpaceSavingSketch
from .reduce_allocator import ClusterColumns, KeyCluster, bpvc_buckets, hash_buckets
from .tuples import StreamTuple, group_by_key

__all__ = [
    "AccumulatedBatch",
    "AccumulatorConfig",
    "AutoScaler",
    "BatchInfo",
    "ClusterColumns",
    "DataBlock",
    "EarlyReleaseConfig",
    "EarlyReleaseController",
    "ElasticityConfig",
    "KeyCluster",
    "MPIWeights",
    "MicroBatchAccumulator",
    "PartitionQuality",
    "PartitionedBatch",
    "PartitionerConfig",
    "PromptBatchPartitioner",
    "PromptConfig",
    "ReleaseWindow",
    "ScalingDecision",
    "SketchMicroBatchAccumulator",
    "SpaceSavingSketch",
    "StreamTuple",
    "Zone",
    "block_cardinality_imbalance",
    "block_size_imbalance",
    "bpvc_buckets",
    "candidate_buckets",
    "evaluate_partition",
    "group_by_key",
    "hash_buckets",
    "hash_to_bucket",
    "key_split_ratio",
    "micro_batch_partitioning_imbalance",
    "relative_metric",
    "stable_hash",
]
