"""Simulated MPI: one communicator with real data semantics + Hockney cost models.

:class:`SimComm` models ``P`` machine ranks and executes the
representatives of a :class:`RankPartition` — every rank when no
partition is given.  ``ScaledComm`` is the same class under its older
name.
"""

from repro.mpisim.comm import (
    CommError,
    CommStats,
    PendingOp,
    RankFailedError,
    SimComm,
)
from repro.mpisim.costmodel import (
    INTRA_NODE,
    LinkParameters,
    allgather_time,
    allreduce_time,
    alltoall_time,
    alltoallv_time,
    barrier_time,
    bcast_time,
    link_parameters,
    ranks_per_nic,
    reduce_scatter_time,
    reduce_time,
)
from repro.mpisim.decomposition import (
    BlockDecomposition,
    DecompositionError,
    PencilDecomposition,
    SlabDecomposition,
    balanced_block_grid,
    balanced_counts,
    balanced_pencil_grid,
    block_owners,
)
from repro.mpisim.partition import (
    PartitionError,
    RankGroup,
    RankGroupPartitioner,
    RankPartition,
    all_live_partition,
    partition_from_codes,
    partition_from_labels,
    verify_assignments,
)
from repro.mpisim.scaled import GroupClock, ScaledComm
from repro.mpisim.topology import Topology

__all__ = [
    "BlockDecomposition",
    "CommError",
    "CommStats",
    "DecompositionError",
    "GroupClock",
    "INTRA_NODE",
    "LinkParameters",
    "PartitionError",
    "PencilDecomposition",
    "RankFailedError",
    "PendingOp",
    "RankGroup",
    "RankGroupPartitioner",
    "RankPartition",
    "ScaledComm",
    "SimComm",
    "SlabDecomposition",
    "Topology",
    "all_live_partition",
    "allgather_time",
    "allreduce_time",
    "alltoall_time",
    "alltoallv_time",
    "balanced_block_grid",
    "balanced_counts",
    "balanced_pencil_grid",
    "block_owners",
    "barrier_time",
    "bcast_time",
    "link_parameters",
    "partition_from_codes",
    "partition_from_labels",
    "ranks_per_nic",
    "reduce_scatter_time",
    "reduce_time",
    "verify_assignments",
]
