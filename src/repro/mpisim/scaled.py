"""Representative-rank execution: full-machine costs at O(R) state.

The representative-rank engine is :class:`~repro.mpisim.comm.SimComm`
built with a :class:`~repro.mpisim.partition.RankPartition`: it models
every machine rank and executes only the partition's representatives.
``ScaledComm`` is that same class under the name the scaling drivers
and benchmarks have always imported; an all-live ``SimComm`` is simply
the unit-weight partition.  :class:`GroupClock` is the per-group clock
aggregate :meth:`~repro.mpisim.comm.SimComm.group_clocks` reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpisim.comm import SimComm

ScaledComm = SimComm


@dataclass(frozen=True)
class GroupClock:
    """Clock aggregate over one group's modelled (non-representative) ranks."""

    name: str
    count: int
    min: float
    max: float
    sum: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0
