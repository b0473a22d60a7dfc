"""A bulk-synchronous simulated communicator with real data semantics.

Applications written against :class:`SimComm` hold the executed ranks'
data (SPMD state as lists indexed by rank) and invoke collectives that
both compute the correct result and advance per-rank simulated clocks
using the cost models in :mod:`repro.mpisim.costmodel`.  This mirrors how
mpi4py programs look (§guide: buffer-based collectives), while staying
single-process and deterministic.

One communicator covers every scale.  It models ``P`` machine ranks and
executes the ``R`` representatives a
:class:`~repro.mpisim.partition.RankPartition` names; without a
partition every rank is its own representative (``R = P``, every weight
1).  The remaining ``P − R`` ranks are *modelled*: each mirrors its
proxy representative (the partition's ``(P,)`` proxy index, round-robin
in rank order), so their clocks derive from the executed ones and are
reported as per-group aggregates (:meth:`SimComm.group_clocks`).  Every
collective is priced by the Hockney models at the full machine ``p``
(an allreduce over 9,074 × 8 ranks costs ``allreduce_time(p=72592, …)``)
and sum-folds weight each representative by the ranks it stands for.

Index conventions:

* data-plane arguments (``values`` sequences, ``advance(rank, …)``,
  ``sendrecv`` endpoints, collective roots) use **live indices**
  ``0 … R−1``;
* machine-facing arguments and results (``fail_rank`` / ``restore_rank``
  / ``failed_ranks``, ``ineighbor_exchange``'s ``partners_of``,
  ``parent_ranks``, ``split``'s ``color_of``) speak **machine ranks**
  ``0 … P−1``.  The two coincide when every rank is live.

Clock semantics:

* each executed rank has its own clock (``clocks[r]``);
* a point-to-point transfer completes at
  ``max(clock[src], clock[dst]) + t`` for both ends;
* a collective is synchronizing: all clocks advance to
  ``max(clocks) + T_collective``;
* nonblocking ops return a :class:`PendingOp` whose ``wait`` applies the
  completion — overlap is modelled by letting the caller advance clocks
  with compute in between.

Documented approximations when ``R < P``: accounting for collectives and
neighbor exchanges is extrapolated through rank weights; index-addressed
p2p is counted once; ``alltoallv`` uses the conservative pairwise bound
gated by the largest representative pair; and mirrors of a *dead*
representative still count as alive machine ranks, but their data is
unreachable for ``agree``'s folded value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.hardware.interconnect import InterconnectSpec
from repro.mpisim import costmodel as cm
from repro.mpisim.partition import RankPartition, all_live_partition
from repro.mpisim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.mpisim.scaled import GroupClock
    from repro.observability.tracer import Tracer

#: Fixed histogram bucket edges for traced communication (seconds/bytes).
#: Fixed at module scope so every traced run bins identically.
COMM_TIME_EDGES = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
COMM_BYTES_EDGES = (64.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)


class CommError(RuntimeError):
    pass


class RankFailedError(CommError):
    """An operation touched a failed rank (ULFM-style detection: the
    failure surfaces at the next communication involving the dead rank)."""

    def __init__(self, ranks: Sequence[int]) -> None:
        self.ranks = tuple(int(r) for r in ranks)
        super().__init__(f"rank(s) {list(self.ranks)} have failed")


@dataclass
class CommStats:
    """Aggregate communication accounting across all ranks."""

    p2p_messages: int = 0
    p2p_bytes: float = 0.0
    collectives: int = 0
    collective_bytes: float = 0.0
    total_comm_time: float = 0.0  # sum over ranks of time spent communicating

    def merge(self, other: "CommStats") -> None:
        """Fold *other*'s accounting into this one (child-comm totals)."""
        self.p2p_messages += other.p2p_messages
        self.p2p_bytes += other.p2p_bytes
        self.collectives += other.collectives
        self.collective_bytes += other.collective_bytes
        self.total_comm_time += other.total_comm_time


@dataclass
class PendingOp:
    """Handle for a nonblocking operation."""

    complete_at: dict[int, float]  # rank -> completion time
    comm: "SimComm"
    done: bool = False

    def wait(self) -> None:
        """Block each participating rank until its completion time."""
        if self.done:
            return
        for rank, t in self.complete_at.items():
            self.comm.clocks[rank] = max(self.comm.clocks[rank], t)
        self.done = True


class SimComm:
    """Simulated communicator over ``nranks`` machine ranks, executing the
    representatives of ``partition`` (every rank when it is ``None``)."""

    def __init__(
        self,
        nranks: int,
        fabric: InterconnectSpec,
        *,
        ranks_per_node: int = 1,
        device_buffers: bool = False,
        tracer: "Tracer | None" = None,
        partition: RankPartition | None = None,
    ) -> None:
        if nranks < 1:
            raise CommError("communicator needs at least one rank")
        if partition is None:
            partition = all_live_partition(nranks)
        elif partition.nranks != nranks:
            raise CommError(
                f"partition covers {partition.nranks} ranks, machine has {nranks}")
        self.partition = partition
        #: ranks executed concretely (``R``); ``machine_ranks`` is ``P``
        self.nranks = partition.nlive
        self.topology = Topology(nranks=nranks, ranks_per_node=ranks_per_node, fabric=fabric)
        self.device_buffers = device_buffers
        #: observation-only span/metric sink; ``None`` keeps every
        #: instrumented site a single pointer test (tracing off is free)
        self.tracer = tracer
        self.clocks = np.zeros(self.nranks, dtype=float)
        #: dead representatives, by live index
        self.failed = np.zeros(self.nranks, dtype=bool)
        self.stats = CommStats()
        #: set by :meth:`shrink` / :meth:`split`: new machine rank -> machine
        #: rank in the parent communicator
        self.parent_ranks: tuple[int, ...] | None = None
        #: dead *modelled* ranks, by machine rank
        self._machine_failed: set[int] = set()
        #: active :meth:`degrade_link` windows as ``(slowdown, until)``
        #: pairs on the simulated clock; expired windows are pruned lazily
        self._degradation_windows: list[tuple[float, float]] = []

    # -- representative-rank surface --------------------------------------------

    @property
    def machine_ranks(self) -> int:
        """Total ranks the communicator models (``P``)."""
        return self.partition.nranks

    @property
    def representatives(self) -> tuple[int, ...]:
        """Machine ranks executed concretely, in live-index order."""
        return self.partition.live_ranks

    @property
    def rank_weights(self) -> np.ndarray:
        """Ranks each live rank currently stands for: the partition's
        weights minus its dead mirrors (all ones when every rank is live)."""
        part = self.partition
        if not self._machine_failed:
            return part.weights
        dead = part.proxy_index[list(self._machine_failed)]
        return part.weights - np.bincount(dead, minlength=self.nranks)

    def proxy_live_indices(self) -> np.ndarray:
        """Live index every machine rank reads its clock from: the
        partition's read-only ``(machine_ranks,)`` proxy index (the
        elastic layer folds machine-pair traffic onto executed pairs
        through this map)."""
        return self.partition.proxy_index

    def _clock_estimate(self, machine_rank: int, clocks: np.ndarray) -> float:
        """Clock of any machine rank: its proxy representative's."""
        return float(clocks[self.partition.proxy_index[machine_rank]])

    def group_clocks(self) -> tuple["GroupClock", ...]:
        """Per-group aggregates over the modelled ranks' clocks, derived
        from the representatives they mirror in O(R)."""
        from repro.mpisim.scaled import GroupClock

        part = self.partition
        out = []
        for name, idx in zip(part.names, part.group_live_slots()):
            proxies = part.weights[idx] - 1
            mask = proxies > 0
            if not mask.any():
                out.append(GroupClock(name, 0, 0.0, 0.0, 0.0))
                continue
            mirrored = self.clocks[idx[mask]]
            out.append(GroupClock(
                name, int(proxies.sum()),
                float(mirrored.min()), float(mirrored.max()),
                float(self.clocks[idx] @ proxies)))
        return tuple(out)

    def describe(self) -> str:
        return (f"SimComm(P={self.machine_ranks}, R={self.nranks}, "
                f"groups={len(self.partition.names)})")

    # -- rank failure (fault injection) -----------------------------------------

    def _live_slot(self, rank: int) -> int:
        if not 0 <= rank < self.machine_ranks:
            raise CommError(f"rank {rank} out of range")
        return int(self.partition.proxy_index[rank])

    def fail_rank(self, rank: int) -> None:
        """Kill machine rank *rank*.  A representative dies outright; a
        modelled rank is a group-level failure that lowers its proxy's
        weight.  Detection is ULFM-style either way: the next operation
        that involves it raises :class:`RankFailedError`."""
        rank = int(rank)
        idx = self._live_slot(rank)
        if self.partition.live[idx] == rank:
            self.failed[idx] = True
        else:
            self._machine_failed.add(rank)

    def restore_rank(self, rank: int) -> None:
        """Replace failed machine rank *rank*: a representative rejoins
        at the current global time, a modelled rank mirrors its proxy
        again."""
        rank = int(rank)
        idx = self._live_slot(rank)
        if self.partition.live[idx] == rank:
            self.failed[idx] = False
            self.clocks[idx] = float(self.clocks.max())
        else:
            self._machine_failed.discard(rank)

    def alive_ranks(self) -> list[int]:
        """Live indices that have not failed, in rank order."""
        return [int(r) for r in np.flatnonzero(~self.failed)]

    def failed_ranks(self) -> list[int]:
        """Dead ranks in machine numbering, sorted."""
        dead = self.partition.live[self.failed].tolist()
        return sorted(dead + list(self._machine_failed))

    @property
    def machine_alive_count(self) -> int:
        """Machine ranks still alive (``machine_ranks`` minus the dead)."""
        return (self.machine_ranks - len(self._machine_failed)
                - int(self.failed.sum()))

    def _check_alive(self, *endpoints: int) -> None:
        """Raise if an endpoint (by live index) — or, with none named,
        any machine rank — has failed; ranks reported in machine numbering."""
        if endpoints:
            dead = [int(self.partition.live[r]) for r in endpoints
                    if self.failed[r]]
        elif self._machine_failed or self.failed.any():
            dead = self.failed_ranks()
        else:
            return
        if dead:
            raise RankFailedError(dead)

    # -- link degradation (fault injection) --------------------------------------

    def degrade_link(self, slowdown: float, duration: float) -> None:
        """Degrade the internode fabric by *slowdown* for *duration*
        simulated seconds, starting now (the current slowest clock).

        Collectives priced while a window is active see the link's beta
        multiplied by the product of all active slowdowns — bandwidth
        collapses, latency stays (a flapping link, not a dead one).
        Windows expire on the simulated clock; nothing needs clearing,
        and sub-communicators from :meth:`shrink` / :meth:`split`
        inherit the windows still open.
        """
        if slowdown < 1.0:
            raise CommError("link slowdown must be >= 1")
        if duration <= 0 or slowdown == 1.0:
            return
        start = float(self.clocks.max())
        self._degradation_windows.append((float(slowdown), start + duration))

    @cached_property
    def _internode_link(self) -> cm.LinkParameters:
        return self.topology.internode_link(device_buffers=self.device_buffers)

    def _collective_link(self) -> cm.LinkParameters:
        """The internode link every collective prices against, degraded
        by any active :meth:`degrade_link` window."""
        link = self._internode_link
        if not self._degradation_windows:
            return link
        now = float(self.clocks.max())
        self._degradation_windows = [
            w for w in self._degradation_windows if w[1] > now]
        factor = 1.0
        for slowdown, _until in self._degradation_windows:
            factor *= slowdown
        if factor == 1.0:
            return link
        return cm.LinkParameters(alpha=link.alpha, beta=link.beta * factor)

    # -- ULFM fault-tolerant collectives ----------------------------------------

    def agree(self, values: Sequence[Any] | None = None, nbytes: float = 8.0,
              op: Callable = np.logical_and) -> tuple[Any, tuple[int, ...]]:
        """ULFM ``MPIX_Comm_agree``: fault-tolerant consensus among survivors.

        Unlike the ordinary collectives, ``agree`` *never* raises
        :class:`RankFailedError` — it runs over the alive ranks only,
        reduces their contributions with *op* (logical AND by default,
        matching the MPI semantics of agreeing on a bitmask), and returns
        ``(agreed_value, failed_ranks)`` so the survivors share a
        consistent view of who died.  ``values`` is indexed by live
        index; dead ranks' entries are ignored.  Costs an allreduce over
        the machine's survivors.
        """
        alive = self.alive_ranks()
        if not alive:
            raise CommError("agree on a communicator with no alive ranks")
        if values is None:
            values = [True] * self.nranks
        self._check_inputs(values)
        p = self.machine_alive_count
        t = cm.allreduce_time(p, nbytes, self._collective_link())
        start = float(np.max(self.clocks[alive]))
        self.clocks[alive] = start + t
        self.stats.collectives += 1
        self.stats.collective_bytes += nbytes * p
        self.stats.total_comm_time += t * p
        self._trace_collective("agree", start, t, nbytes, p)
        return self._fold(values, op, alive), tuple(self.failed_ranks())

    def shrink(self) -> "SimComm":
        """ULFM ``MPIX_Comm_shrink``: a new communicator over the survivors.

        Building it is itself an agreement, so the survivors pay one
        :meth:`agree` first.  Surviving machine ranks are renumbered
        densely with their order preserved (if rank 0 died, old rank 1
        becomes new rank 0), and ``parent_ranks[new_rank]`` maps back to
        this communicator's numbering; see :meth:`_induced_subcomm`.
        Shrinking repeatedly keeps working down to a single rank.
        """
        self.agree()  # the consensus that makes the survivor set common
        mask = np.ones(self.machine_ranks, dtype=bool)
        mask[self.failed_ranks()] = False
        return self._induced_subcomm(np.flatnonzero(mask))

    def split(self, color_of: Callable[[int], int], *,
              shared_stats: bool = False) -> dict[int, "SimComm"]:
        """MPI_Comm_split: one sub-communicator per color, ``color_of``
        called for every machine rank.  Used for the row/column
        communicators of pencil decompositions.

        With ``shared_stats=True`` the children record into the parent's
        :class:`CommStats` object directly, so multi-comm campaigns
        report true totals without a merge step; otherwise call
        :meth:`merge_child_stats` when the children retire.
        """
        groups: dict[int, list[int]] = {}
        for r in range(self.machine_ranks):
            groups.setdefault(color_of(r), []).append(r)
        return {color: self._induced_subcomm(
                    np.asarray(members, dtype=np.int64),
                    shared_stats=shared_stats)
                for color, members in groups.items()}

    def _induced_subcomm(self, members: np.ndarray, *,
                         shared_stats: bool = False) -> "SimComm":
        """A communicator over *members* (ascending machine ranks) with
        the induced partition.  Representatives carry their clocks over,
        a group left without one promotes its lowest member at its
        proxy's clock, and open link-degradation windows carry over."""
        partition, carried = self.partition.induced(members)
        sub = SimComm(int(members.size), self.topology.fabric,
                      ranks_per_node=self.topology.ranks_per_node,
                      device_buffers=self.device_buffers,
                      tracer=self.tracer, partition=partition)
        sub.clocks = self.clocks[carried]
        sub.parent_ranks = tuple(members.tolist())
        sub._degradation_windows = list(self._degradation_windows)
        if shared_stats:
            sub.stats = self.stats
        return sub

    def merge_child_stats(self, children: "Sequence[SimComm] | dict[Any, SimComm]") -> None:
        """Fold child communicators' accounting into this comm's stats.

        Children created with ``shared_stats=True`` already write here and
        are skipped, so mixing the two modes never double-counts.
        """
        comms = children.values() if isinstance(children, dict) else children
        for child in comms:
            if child.stats is self.stats:
                continue
            self.stats.merge(child.stats)

    # -- tracing (observation only: reads clocks, never moves them) -------------

    def _trace_collective(self, name: str, start: float, t: float,
                          nbytes: float, participants: int) -> None:
        tr = self.tracer
        if tr is None:
            return
        tr.record(name, start, t, cat="mpisim", pid="mpisim",
                  tid="collectives", nbytes=float(nbytes),
                  participants=int(participants))
        m = tr.metrics
        m.counter("mpisim.collectives").inc()
        m.counter("mpisim.collective_bytes").inc(float(nbytes) * participants)
        m.histogram("mpisim.collective_time", COMM_TIME_EDGES).observe(t)

    def _trace_p2p(self, name: str, src: int, dst: int, start: float,
                   t: float, nbytes: float) -> None:
        """One span per message, plus per-edge counters by machine rank
        and by rank group (O(R²) and O(groups²) keys at most)."""
        tr = self.tracer
        if tr is None:
            return
        part = self.partition
        a, b = int(part.live[src]), int(part.live[dst])
        ga, gb = (part.names[int(part.group_of[r])] for r in (a, b))
        tr.record(name, start, t, cat="mpisim", pid="mpisim",
                  tid=f"rank{b}", src=a, dst=b, nbytes=float(nbytes))
        m = tr.metrics
        for edge in (f"edge[{a}->{b}]", f"group_edge[{ga}->{gb}]"):
            m.counter(f"mpisim.{edge}.messages").inc()
            m.counter(f"mpisim.{edge}.bytes").inc(float(nbytes))
        m.histogram("mpisim.p2p_time", COMM_TIME_EDGES).observe(t)
        m.histogram("mpisim.p2p_bytes", COMM_BYTES_EDGES).observe(float(nbytes))

    # -- clock helpers ---------------------------------------------------------

    def advance(self, rank: int, dt: float) -> None:
        """Rank-local compute time."""
        if dt < 0:
            raise CommError("time must advance forward")
        self.clocks[rank] += dt

    def advance_all(self, dt: float | np.ndarray) -> None:
        """Compute time on every rank (scalar or per-rank array)."""
        dt_arr = np.asarray(dt, dtype=float)
        if np.any(dt_arr < 0):
            raise CommError("time must advance forward")
        self.clocks += dt_arr

    @property
    def elapsed(self) -> float:
        """Simulated wall time: the slowest rank's clock."""
        return float(self.clocks.max())

    def load_imbalance(self) -> float:
        """max/mean clock ratio over the machine — 1.0 is perfectly balanced."""
        weighted = self.clocks * self.partition.weights
        mean = float(weighted.sum()) / self.machine_ranks
        return float(self.clocks.max()) / mean if mean > 0 else 1.0

    # -- internal ------------------------------------------------------------------

    def _sync_collective(self, nbytes: float, time_fn: Callable[..., float],
                         *, name: str = "collective") -> None:
        """Price a synchronizing collective at the machine size ``P``."""
        self._check_alive()
        p = self.machine_ranks
        t = time_fn(p, nbytes, self._collective_link())
        start = float(self.clocks.max())
        self.clocks[:] = start + t
        self.stats.collectives += 1
        self.stats.collective_bytes += nbytes * p
        self.stats.total_comm_time += t * p
        self._trace_collective(name, start, t, nbytes, p)

    def _fold(self, values: Sequence[Any], op: Callable,
              live: Sequence[int] | None = None) -> Any:
        """Reduce the *live* ranks' contributions (default: all) to the
        machine-wide value.  ``np.add`` weights each by the ranks it
        stands for, since its mirrors contribute identical terms;
        idempotent ops (max / min / logical) fold them directly."""
        idx = range(self.nranks) if live is None else live
        if op is not np.add:
            acc = values[idx[0]]
            for i in idx[1:]:
                acc = op(acc, values[i])
            return acc
        weights = self.rank_weights.tolist()
        acc = None
        for i in idx:
            term = values[i] * weights[i] if weights[i] != 1 else values[i]
            acc = term if acc is None else np.add(acc, term)
        return acc

    # -- point-to-point ---------------------------------------------------------------

    def _link(self, a: int, b: int) -> cm.LinkParameters:
        """α-β path between two live indices, by their machine positions."""
        live = self.partition.live
        return self.topology.link(int(live[a]), int(live[b]),
                                  device_buffers=self.device_buffers)

    def _p2p(self, name: str, src: int, dst: int, nbytes: float) -> float:
        """Account one message; returns when both of its ends complete."""
        if src == dst:
            raise CommError(f"{name} with src == dst")
        self._check_alive(src, dst)
        t = self._link(src, dst).p2p_time(nbytes)
        done = max(self.clocks[src], self.clocks[dst]) + t
        self.stats.p2p_messages += 1
        self.stats.p2p_bytes += nbytes
        self.stats.total_comm_time += 2 * t
        self._trace_p2p(name, src, dst, done - t, t, nbytes)
        return done

    def sendrecv(self, src: int, dst: int, payload: Any, nbytes: float) -> Any:
        """Blocking matched send/recv; returns the payload at the receiver."""
        self.clocks[[src, dst]] = self._p2p("sendrecv", src, dst, nbytes)
        return payload

    def isendrecv(self, src: int, dst: int, nbytes: float) -> PendingOp:
        """Nonblocking transfer: completion time computed now, applied at wait."""
        done = self._p2p("isendrecv", src, dst, nbytes)
        return PendingOp(complete_at={src: done, dst: done}, comm=self)

    def ineighbor_exchange(self, partners_of: Callable[[int], Sequence[int]],
                           nbytes: float, *,
                           name: str = "neighbor_exchange") -> PendingOp:
        """Nonblocking halo exchange: every rank swaps *nbytes* with each of
        its ``partners_of(machine_rank)`` concurrently
        (MPI_Ineighbor_alltoall).

        Each representative completes at ``max(own clock, partner clocks)
        + sum of its per-partner p2p times`` — the serialization a single
        NIC imposes on one rank's messages, while distinct ranks overlap;
        a modelled partner's clock is its proxy's.  Messages and time
        count once per rank a representative stands for.  Self-partners
        are ignored (degenerate axes of periodic grids).
        """
        self._check_alive()
        start_clocks = self.clocks.copy()
        weights = self.partition.weights.tolist()
        complete: dict[int, float] = {}
        nmessages = 0
        time_sum = 0.0
        for i, r in enumerate(self.partition.live_ranks):
            partners = [int(q) for q in partners_of(r) if int(q) != r]
            if not partners:
                continue
            t_r = sum(
                self.topology.link(r, q, device_buffers=self.device_buffers)
                .p2p_time(nbytes) for q in partners)
            ready = max(float(start_clocks[i]),
                        max(self._clock_estimate(q, start_clocks)
                            for q in partners))
            complete[i] = ready + t_r
            nmessages += weights[i] * len(partners)
            time_sum += weights[i] * t_r
        self.stats.p2p_messages += nmessages
        self.stats.p2p_bytes += nmessages * nbytes
        self.stats.total_comm_time += time_sum
        if complete:
            start = min(float(start_clocks[i]) for i in complete)
            span = max(complete.values()) - start
            self._trace_collective(name, start, span, nbytes * nmessages,
                                   sum(weights[i] for i in complete))
        return PendingOp(complete_at=complete, comm=self)

    def neighbor_exchange(self, partners_of: Callable[[int], Sequence[int]],
                          nbytes: float) -> None:
        """Blocking halo exchange (``ineighbor_exchange`` + ``wait``)."""
        self.ineighbor_exchange(partners_of, nbytes).wait()

    # -- collectives with data semantics ----------------------------------------------

    def bcast(self, value: Any, nbytes: float, root: int = 0) -> list[Any]:
        """Broadcast: every rank receives *value* (deep-shared, numpy-copied)."""
        self._check_root(root)
        self._sync_collective(nbytes, cm.bcast_time, name="bcast")
        return [np.copy(value) if isinstance(value, np.ndarray) else value
                for _ in range(self.nranks)]

    def reduce(self, values: Sequence[Any], nbytes: float, op: Callable = np.add,
               root: int = 0) -> Any:
        self._check_inputs(values)
        self._check_root(root)
        self._sync_collective(nbytes, cm.reduce_time, name="reduce")
        return self._fold(values, op)

    def allreduce(self, values: Sequence[Any], nbytes: float, op: Callable = np.add) -> list[Any]:
        self._check_inputs(values)
        self._sync_collective(nbytes, cm.allreduce_time, name="allreduce")
        acc = self._fold(values, op)
        return [np.copy(acc) if isinstance(acc, np.ndarray) else acc
                for _ in range(self.nranks)]

    def reduce_scatter(self, blocks: Sequence[Sequence[Any]], nbytes: float,
                       op: Callable = np.add) -> list[Any]:
        """Reduce-scatter: ``blocks[src][dst]`` contributions; rank *dst*
        receives the reduction over *src* of its block.

        *nbytes* is the full input vector size (each rank ends holding
        ``nbytes / p``), matching :func:`costmodel.reduce_scatter_time` —
        the first half of Rabenseifner's allreduce decomposition.
        """
        self._check_square(blocks, "reduce_scatter", "block")
        self._sync_collective(nbytes, cm.reduce_scatter_time, name="reduce_scatter")
        return [self._fold([row[dst] for row in blocks], op)
                for dst in range(self.nranks)]

    def allgather(self, values: Sequence[Any], nbytes: float) -> list[list[Any]]:
        self._check_inputs(values)
        self._sync_collective(nbytes, cm.allgather_time, name="allgather")
        gathered = list(values)
        return [list(gathered) for _ in range(self.nranks)]

    def gather(self, values: Sequence[Any], nbytes: float, root: int = 0) -> list[Any]:
        self._check_inputs(values)
        self._check_root(root)
        self._sync_collective(nbytes, cm.reduce_time, name="gather")
        return list(values)

    def scatter(self, values: Sequence[Any], nbytes: float, root: int = 0) -> list[Any]:
        self._check_inputs(values)
        self._check_root(root)
        self._sync_collective(nbytes, cm.bcast_time, name="scatter")
        return list(values)

    def barrier(self) -> None:
        self._sync_collective(0.0, lambda p, _n, link: cm.barrier_time(p, link),
                              name="barrier")

    # -- alltoall family (priced at the machine size) -----------------------------

    def _transpose(self, matrix: Sequence[Sequence[Any]]) -> list[list[Any]]:
        """``matrix[src][dst]`` payloads → ``out[dst][src]``."""
        return [[row[dst] for row in matrix] for dst in range(self.nranks)]

    def alltoall(self, matrix: Sequence[Sequence[Any]], nbytes_per_pair: float) -> list[list[Any]]:
        """``matrix[src][dst]`` payloads → returns ``out[dst][src]``."""
        self._check_square(matrix, "alltoall", "payload")
        self._sync_collective(nbytes_per_pair * self.machine_ranks,
                              lambda p, _n, link:
                              cm.alltoall_time(p, nbytes_per_pair, link),
                              name="alltoall")
        return self._transpose(matrix)

    def ialltoall(self, matrix: Sequence[Sequence[Any]],
                  nbytes_per_pair: float) -> tuple[list[list[Any]], PendingOp]:
        """Nonblocking alltoall: data available immediately for staging,
        clocks advance at ``wait`` — the overlap GESTS uses to hide the
        transpose behind local FFT passes."""
        self._check_square(matrix, "alltoall", "payload")
        self._check_alive()
        p = self.machine_ranks
        t = cm.alltoall_time(p, nbytes_per_pair, self._collective_link())
        start = float(self.clocks.max())
        done = {r: start + t for r in range(self.nranks)}
        self.stats.collectives += 1
        self.stats.collective_bytes += nbytes_per_pair * p * p
        self.stats.total_comm_time += t * p
        self._trace_collective("ialltoall", start, t, nbytes_per_pair * p, p)
        return self._transpose(matrix), PendingOp(complete_at=done, comm=self)

    def alltoallv(self, matrix: Sequence[Sequence[Any]],
                  nbytes: Sequence[Sequence[float]]) -> list[list[Any]]:
        """Variable-size alltoall: ``nbytes[src][dst]`` per payload.

        When every rank is live the byte matrix is the full one and is
        priced exactly; otherwise every round is gated by the largest
        representative pair (the conservative pairwise bound, since the
        ``P × P`` matrix is never materialized).
        """
        self._check_square(matrix, "alltoallv", "payload")
        self._check_square(nbytes, "alltoallv", "byte")
        self._check_alive()
        p, n = self.machine_ranks, self.nranks
        link = self._collective_link()
        if n == p:
            t = cm.alltoallv_time([list(map(float, row)) for row in nbytes], link)
            total_bytes = float(sum(sum(r) for r in nbytes))
        else:
            worst = max(max(float(b) for b in row) for row in nbytes)
            t = (p - 1) * link.p2p_time(worst)
            total_bytes = float(sum(sum(float(b) for b in row) for row in nbytes))
            total_bytes = total_bytes / (n * n) * p * p
        start = float(self.clocks.max())
        self.clocks[:] = start + t
        self.stats.collectives += 1
        self.stats.collective_bytes += total_bytes
        self.stats.total_comm_time += t * p
        self._trace_collective("alltoallv", start, t, total_bytes / p, p)
        return self._transpose(matrix)

    # -- validation --------------------------------------------------------------

    def _check_inputs(self, values: Sequence[Any]) -> None:
        if len(values) != self.nranks:
            raise CommError(f"expected {self.nranks} per-rank values, got {len(values)}")

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.nranks:
            raise CommError(f"root {root} out of range")

    def _check_square(self, rows: Sequence[Sequence[Any]], op: str, kind: str) -> None:
        n = self.nranks
        if len(rows) != n or any(len(row) != n for row in rows):
            raise CommError(f"{op} needs an {n}x{n} {kind} matrix")
