"""Cluster topology: block placement and shuffle locality.

Section 7: "The batching module is responsible to seal and serialize
the data blocks and place them on the memory of the cluster nodes."
Placement determines which shuffle fetches cross the network: a Reduce
task reading a fragment produced by a Map task on another node pays a
network transfer, one on its own node reads memory.

The topology is deliberately simple — blocks and reducers are spread
round-robin over nodes, the placement Spark's block manager approximates
for receiver-generated blocks — and the cost model charges an optional
``network_per_remote_fragment`` on top of the merge cost.  With the
default of 0 the topology is free, preserving every headline result;
the locality tests and the topology-aware cost model quantify how much
of the shuffle each technique puts on the wire (scattering techniques
pay more because they create more fragments, each a potential remote
fetch).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import ClusterConfig

__all__ = ["ClusterTopology"]


@dataclass(frozen=True, slots=True)
class ClusterTopology:
    """Round-robin placement of blocks and Reduce tasks over nodes.

    Named ``ClusterTopology`` to leave ``Topology`` to the public
    run-shape concept (:class:`repro.Topology`: single-engine vs
    sharded).
    """

    cluster: ClusterConfig

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    def node_of_block(self, block_index: int) -> int:
        """The node holding a data block (and running its Map task)."""
        if block_index < 0:
            raise ValueError(f"block_index must be >= 0, got {block_index}")
        return block_index % self.num_nodes

    def node_of_reducer(self, bucket_index: int) -> int:
        """The node running a Reduce task."""
        if bucket_index < 0:
            raise ValueError(f"bucket_index must be >= 0, got {bucket_index}")
        return bucket_index % self.num_nodes

    def is_local(self, block_index: int, bucket_index: int) -> bool:
        """Whether a (Map task -> Reduce task) fetch stays on one node."""
        return self.node_of_block(block_index) == self.node_of_reducer(bucket_index)

    def remote_fraction(self, num_blocks: int, num_reducers: int) -> float:
        """Fraction of (block, reducer) pairs that cross the network.

        With round-robin placement this approaches ``1 - 1/num_nodes``
        as task counts grow — the well-known all-to-all shuffle floor.
        """
        if num_blocks < 1 or num_reducers < 1:
            raise ValueError("need at least one block and one reducer")
        remote = sum(
            1
            for b in range(num_blocks)
            for r in range(num_reducers)
            if not self.is_local(b, r)
        )
        return remote / (num_blocks * num_reducers)

