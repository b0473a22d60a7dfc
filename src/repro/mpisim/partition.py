"""Rank-class partitioning for representative-rank simulation.

At full-machine scale almost every rank is *structurally identical* to
thousands of others: an interior rank of a 3-D block decomposition sees
the same six-neighbour halo, the same collective fan-ins and the same
per-step compute as every other interior rank.  A
:class:`~repro.mpisim.comm.SimComm` built with a partition exploits that
symmetry by executing a few **representative** ranks concretely and
modelling the rest through their group's clock aggregates.

This module supplies the assignment layer, shaped after nengo_mpi's
``Partitioner`` / ``verify_assignments`` pair: a partitioner produces a
:class:`RankPartition`, and :func:`verify_assignments` audits it before
a communicator will accept it.

The partition is array-native so that building one costs a few O(P)
numpy passes and no per-rank Python objects.  Its core is

* ``group_of`` — one ``(P,)`` int64 code per rank, the index of its
  group (coverage and disjointness hold by construction);
* ``names`` — one name per group (builders order groups by name);
* ``rep_ranks`` / ``rep_ptr`` — every group's representatives, flat in
  group order, group ``g`` owning ``rep_ranks[rep_ptr[g]:rep_ptr[g+1]]``.

Everything else derives from the core on first use: the live ranks, the
``(P,)`` proxy index (the live slot every rank reads its clock from;
modelled members mirror their group's representatives round-robin in
rank order) and the weights, a ``bincount`` over the proxy index.
Hand-built :class:`RankGroup` tuples are still accepted: they are
audited, turned into codes and land on the same core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Hashable, Sequence

import numpy as np

from repro.mpisim.decomposition import BOUNDARY_CLASS_NAMES, BlockDecomposition


class PartitionError(ValueError):
    """An assignment of ranks to groups is malformed."""


@dataclass(frozen=True, eq=False)
class RankGroup:
    """One equivalence class of ranks.

    ``representatives`` are the members executed concretely; the
    remaining members are modelled, each mirroring one representative
    (its *proxy*, assigned round-robin in rank order).  Groups read back
    from a :class:`RankPartition` carry ``members`` as a read-only array
    view.
    """

    name: str
    members: Sequence[int]
    representatives: tuple[int, ...]

    @property
    def modeled_count(self) -> int:
        return len(self.members) - len(self.representatives)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _group_order(group_of: np.ndarray,
                 ngroups: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks grouped by code, ascending within each group (one stable
    sort), and the offset where each group's run starts."""
    order = np.argsort(group_of, kind="stable")
    sizes = np.bincount(group_of, minlength=ngroups)
    return order, np.cumsum(sizes) - sizes


def _rank_array(ranks: Sequence[int], group: str, what: str) -> np.ndarray:
    """A group's ranks as int64, refusing anything that is not an integer."""
    arr = np.asarray(ranks)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise PartitionError(
            f"group {group!r} has non-integer {what}: {list(ranks)[:8]!r}")
    return arr.astype(np.int64, copy=False)


class RankPartition:
    """A verified grouping of ``nranks`` ranks into equivalence classes.

    ``RankPartition(nranks, groups)`` builds one from hand-made
    :class:`RankGroup` tuples; :meth:`from_codes` builds one straight
    from per-rank group codes, which is what every partitioner does.
    """

    def __init__(self, nranks: int, groups: Sequence[RankGroup]) -> None:
        groups = tuple(groups)
        group_of = _codes_from_groups(int(nranks), groups)
        self._set_core(group_of, [g.name for g in groups],
                       [_rank_array(g.representatives, g.name,
                                    "representatives") for g in groups])

    @classmethod
    def from_codes(cls, group_of: np.ndarray, names: Sequence[str],
                   representatives: Sequence[Sequence[int]]
                   ) -> "RankPartition":
        """The core constructor: rank ``r`` belongs to group
        ``group_of[r]``, and group ``g`` is called ``names[g]`` and
        executes ``representatives[g]``."""
        if len(representatives) != len(names):
            raise PartitionError(
                f"{len(names)} group names but {len(representatives)} "
                "representative lists")
        codes = np.array(group_of)
        if codes.dtype.kind not in "iu":
            raise PartitionError(
                f"group codes must be integers, got dtype {codes.dtype}")
        self = cls.__new__(cls)
        self._set_core(
            codes.astype(np.int64, copy=False), names,
            [_rank_array(r, names[g], "representatives")
             for g, r in enumerate(representatives)])
        return self

    def _set_core(self, group_of: np.ndarray, names: Sequence[str],
                  reps: Sequence[np.ndarray]) -> None:
        self.nranks = int(group_of.size)
        self.group_of = _readonly(group_of)
        self.names = tuple(str(n) for n in names)
        self.rep_ptr = _readonly(np.concatenate(
            ([0], np.cumsum([r.size for r in reps], dtype=np.int64))))
        self.rep_ranks = _readonly(
            np.concatenate(reps) if reps else np.empty(0, dtype=np.int64))
        verify_assignments(self)

    # -- derived views -----------------------------------------------------------

    @cached_property
    def live(self) -> np.ndarray:
        """Every representative, in global rank order (read-only array)."""
        return _readonly(np.sort(self.rep_ranks))

    @cached_property
    def live_ranks(self) -> tuple[int, ...]:
        return tuple(self.live.tolist())

    @property
    def nlive(self) -> int:
        return int(self.rep_ranks.size)

    @cached_property
    def rep_live_index(self) -> np.ndarray:
        """Live slot of each entry of ``rep_ranks``."""
        return _readonly(np.searchsorted(self.live, self.rep_ranks))

    def group_live_slots(self) -> list[np.ndarray]:
        """Per group, the live slots of its representatives (listed order)."""
        return np.split(self.rep_live_index, self.rep_ptr[1:-1])

    @cached_property
    def group_sizes(self) -> np.ndarray:
        """Members per group."""
        return _readonly(np.bincount(self.group_of,
                                     minlength=len(self.names)))

    @cached_property
    def proxy_index(self) -> np.ndarray:
        """Live slot every rank reads its clock from (``(nranks,)`` int64).

        Representatives map to themselves; the modelled members of a
        group take its representatives round-robin in rank order.
        """
        group_of, ptr = self.group_of, self.rep_ptr
        nreps = np.diff(ptr)
        rep_live = self.rep_live_index
        # one-representative groups: every member reads that representative
        proxy = rep_live[ptr[:-1]][group_of]
        if (nreps > 1).any():
            order, starts = self.member_order
            is_rep = np.zeros(self.nranks, dtype=bool)
            is_rep[self.rep_ranks] = True
            modeled = ~is_rep[order]
            codes = group_of[order]
            # ordinal of each modelled rank among its group's modelled
            # ranks: those before it, less the ones in earlier groups
            # (every earlier rank that is not an earlier representative)
            ordinal = np.cumsum(modeled) - 1 - (starts - ptr[:-1])[codes]
            proxy[order[modeled]] = rep_live[
                (ptr[:-1][codes] + ordinal % nreps[codes])[modeled]]
        proxy[self.rep_ranks] = rep_live
        return _readonly(proxy)

    @cached_property
    def weights(self) -> np.ndarray:
        """Ranks each live rank stands for (itself + proxied modelled)."""
        return _readonly(np.bincount(self.proxy_index, minlength=self.nlive))

    @cached_property
    def member_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Every group's members in rank order, runs concatenated in
        group order, and each run's start offset (read-only arrays)."""
        order, starts = _group_order(self.group_of, len(self.names))
        return _readonly(order), _readonly(starts)

    @cached_property
    def groups(self) -> tuple[RankGroup, ...]:
        """Per-group view: members are read-only slices of
        :attr:`member_order`, built only when this is first read."""
        order, starts = self.member_order
        return tuple(
            RankGroup(name, order[start:start + size], tuple(reps.tolist()))
            for name, start, size, reps in zip(
                self.names, starts.tolist(), self.group_sizes.tolist(),
                np.split(self.rep_ranks, self.rep_ptr[1:-1])))

    @property
    def modeled_count(self) -> int:
        return self.nranks - self.nlive

    def induced(self, members: np.ndarray
                ) -> tuple["RankPartition", np.ndarray]:
        """The partition over *members* (ascending ranks), renumbered
        densely in rank order.

        Each group is intersected with *members*; empty ones drop out
        and the rest keep their order.  Surviving representatives keep
        their listed order, and a group that lost them all promotes its
        lowest surviving member.  Also returns, per new live rank, the
        old live slot whose clock it carries: its own, or for a promoted
        member its proxy's.
        """
        if self.modeled_count == 0 and self is all_live_partition(self.nranks):
            # the all-live partition induces the all-live partition
            return all_live_partition(int(members.size)), members
        ngroups = len(self.names)
        remap = np.full(self.nranks, -1, dtype=np.int64)
        remap[members] = np.arange(members.size, dtype=np.int64)
        old_codes = self.group_of[members]
        kept = np.flatnonzero(np.bincount(old_codes, minlength=ngroups))
        new_code = np.full(ngroups, -1, dtype=np.int64)
        new_code[kept] = np.arange(kept.size)
        new_codes = new_code[old_codes]
        order, starts = _group_order(new_codes, kept.size)
        rep_lists = np.split(self.rep_ranks, self.rep_ptr[1:-1])
        live_slots = self.group_live_slots()
        reps, slots = [], []
        for k, g in enumerate(kept.tolist()):
            old = rep_lists[g]
            alive = remap[old] >= 0
            if alive.any():
                reps.append(remap[old[alive]])
                slots.append(live_slots[g][alive])
            else:
                first = order[starts[k]:starts[k] + 1]
                reps.append(first)
                slots.append(self.proxy_index[members[first]])
        sub = RankPartition.from_codes(
            new_codes, [self.names[g] for g in kept.tolist()], reps)
        return sub, np.concatenate(slots)[np.argsort(np.concatenate(reps))]

    def describe(self) -> str:
        nreps = np.diff(self.rep_ptr).tolist()
        rows = ", ".join(
            f"{name}[{size}|{nrep} live]" for name, size, nrep in
            zip(self.names, self.group_sizes.tolist(), nreps))
        return (f"RankPartition(P={self.nranks}, R={self.nlive}, "
                f"groups={len(self.names)}: {rows})")


def _codes_from_groups(nranks: int, groups: Sequence[RankGroup]) -> np.ndarray:
    """Audit hand-built groups and return their ``(nranks,)`` codes.

    Every rank must land in exactly one group, checked with one
    ``bincount`` over all members.
    """
    if nranks < 1:
        raise PartitionError("partition needs at least one rank")
    if not groups:
        raise PartitionError("partition has no groups")
    members = []
    for g in groups:
        m = _rank_array(g.members, g.name, "members")
        if m.size == 0:
            raise PartitionError(f"group {g.name!r} has no members")
        if m.min() < 0 or m.max() >= nranks:
            raise PartitionError(
                f"group {g.name!r} has out-of-range ranks (nranks={nranks})")
        # strictly-increasing members are duplicate-free by inspection;
        # only unsorted groups pay for a full unique pass
        if not (np.diff(m) > 0).all() and np.unique(m).size != m.size:
            raise PartitionError(f"group {g.name!r} repeats a member")
        members.append(m)
    every = np.concatenate(members)
    seen = np.bincount(every, minlength=nranks)
    uncovered = np.flatnonzero(seen == 0)
    if uncovered.size:
        raise PartitionError(
            f"ranks not assigned to any group: {uncovered[:8].tolist()}...")
    doubled = np.flatnonzero(seen > 1)
    if doubled.size:
        raise PartitionError(
            f"ranks assigned to multiple groups: {doubled[:8].tolist()}...")
    group_of = np.empty(nranks, dtype=np.int64)
    group_of[every] = np.repeat(np.arange(len(groups)),
                                [m.size for m in members])
    return group_of


def verify_assignments(partition: RankPartition) -> None:
    """Audit a partition's core: codes name real groups, and each group
    has distinct representatives drawn from its own members.

    The checks mirror nengo_mpi's ``verify_assignments`` contract: every
    object (rank) is assigned to exactly one component (group) — which
    one code per rank guarantees — and the assignment is usable by the
    runtime.  All checks are O(P) array passes.
    """
    nranks, names = partition.nranks, partition.names
    if nranks < 1:
        raise PartitionError("partition needs at least one rank")
    if not names:
        raise PartitionError("partition has no groups")
    group_of = partition.group_of
    if group_of.shape != (nranks,):
        raise PartitionError(
            f"group codes have shape {group_of.shape}, want ({nranks},)")
    if group_of.min() < 0 or group_of.max() >= len(names):
        raise PartitionError(
            f"group codes outside 0..{len(names) - 1}")
    nreps = np.diff(partition.rep_ptr)
    if not nreps.all():
        raise PartitionError(
            f"group {names[int(np.argmin(nreps))]!r} has no representatives")
    reps = partition.rep_ranks
    rep_group = np.repeat(np.arange(len(names)), nreps)
    inside = (reps >= 0) & (reps < nranks)
    inside[inside] = group_of[reps[inside]] == rep_group[inside]
    if not inside.all():
        bad = names[int(rep_group[np.argmin(inside)])]
        raise PartitionError(
            f"group {bad!r} names representatives outside its members")
    repeats = np.bincount(reps, minlength=nranks) > 1
    if repeats.any():
        bad = names[int(group_of[np.argmax(repeats)])]
        raise PartitionError(f"group {bad!r} repeats a representative")


def partition_from_codes(codes: np.ndarray, names: Sequence[str], *,
                         live_per_group: int = 1) -> RankPartition:
    """Group ranks by integer class code: class ``k`` is named ``names[k]``.

    The builder every partitioner feeds.  Classes nobody belongs to are
    dropped, groups are ordered by name (ties keep code order) and each
    group's lowest ``live_per_group`` ranks become its representatives.
    """
    if live_per_group < 1:
        raise PartitionError("live_per_group must be >= 1")
    used = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    keep = sorted(used.tolist(), key=lambda k: names[k])
    if keep != list(range(len(names))):
        relabel = np.full(len(names), -1, dtype=np.int64)
        relabel[keep] = np.arange(len(keep))
        codes = relabel[codes]
    order, starts = _group_order(codes, len(keep))
    ends = np.append(starts[1:], codes.size)
    return RankPartition.from_codes(
        codes, [names[k] for k in keep],
        [order[s:min(s + live_per_group, e)]
         for s, e in zip(starts.tolist(), ends.tolist())])


@lru_cache(maxsize=64)
def all_live_partition(nranks: int) -> RankPartition:
    """The degenerate partition: every rank is its own representative,
    every weight 1 (``R = P``).

    :class:`~repro.mpisim.comm.SimComm` uses it when given no partition.
    Partitions are immutable, so one instance per size is shared: an
    all-live communicator costs no partition build.
    """
    return RankPartition.from_codes(np.zeros(nranks, dtype=np.int64),
                                    ("all",), (np.arange(nranks),))


def partition_from_labels(labels: Sequence[Hashable], *,
                          live_per_group: int = 1) -> RankPartition:
    """Group ranks by an arbitrary per-rank label.

    Each distinct label becomes a group named ``str(label)``; groups
    are ordered by name.  The lowest ``live_per_group`` ranks of each
    class become its representatives.  Builders that already hold
    integer class codes call :func:`partition_from_codes` directly.
    """
    arr = np.asarray(labels)
    if arr.ndim == 1 and arr.dtype != object:
        distinct, codes = np.unique(arr, return_inverse=True)
    else:
        code_of: dict[Hashable, int] = {}
        codes = np.asarray([code_of.setdefault(lab, len(code_of))
                            for lab in labels], dtype=np.int64)
        distinct = list(code_of)
    if codes.size == 0:
        raise PartitionError("partition needs at least one rank")
    return partition_from_codes(codes, [str(d) for d in distinct],
                                live_per_group=live_per_group)


#: node-role class names, indexed by ``position * 2 + (not leader)``
NODE_ROLE_NAMES = tuple(f"{pos}-{role}" for pos in ("first", "mid", "last")
                        for role in ("leader", "follower"))
#: endpoints class names, indexed by code
ENDPOINT_NAMES = ("first", "interior", "last")


@dataclass(frozen=True)
class RankGroupPartitioner:
    """Classify ranks into structural equivalence classes.

    Strategies:

    * ``"block3d"`` — requires a :class:`BlockDecomposition`; classes are
      the boundary classes of the process grid (corner / edge / face /
      interior per axis), the Pele/HACC halo symmetry;
    * ``"node-role"`` — classes from node position (first / interior /
      last node) x on-node role (leader / follower), the right shape for
      collective-dominated apps;
    * ``"endpoints"`` — just {rank 0} / {last rank} / {interior}, the
      minimal 1-D ring classification;
    * ``"auto"`` — ``block3d`` when a decomposition is supplied, else
      ``node-role`` when ``ranks_per_node > 1``, else ``endpoints``.

    Every strategy emits integer class codes straight from rank
    arithmetic; no per-rank label is ever formatted.
    """

    strategy: str = "auto"
    live_per_group: int = 1

    def __post_init__(self) -> None:
        known = ("auto", "block3d", "node-role", "endpoints")
        if self.strategy not in known:
            raise PartitionError(
                f"unknown strategy {self.strategy!r}; known: {known}")
        if self.live_per_group < 1:
            raise PartitionError("live_per_group must be >= 1")

    def partition(self, nranks: int, *,
                  decomposition: BlockDecomposition | None = None,
                  ranks_per_node: int = 1) -> RankPartition:
        if nranks < 1:
            raise PartitionError("need at least one rank")
        strategy = self.strategy
        if strategy == "auto":
            if decomposition is not None:
                strategy = "block3d"
            elif ranks_per_node > 1:
                strategy = "node-role"
            else:
                strategy = "endpoints"
        if strategy == "block3d":
            if decomposition is None:
                raise PartitionError("block3d strategy needs a decomposition")
            if decomposition.nranks != nranks:
                raise PartitionError(
                    f"decomposition covers {decomposition.nranks} ranks, "
                    f"communicator has {nranks}")
            codes = decomposition.boundary_codes()
            names: Sequence[str] = BOUNDARY_CLASS_NAMES
        elif strategy == "node-role":
            ranks = np.arange(nranks, dtype=np.int64)
            node = ranks // ranks_per_node
            last_node = (nranks - 1) // ranks_per_node
            pos = np.where(node == 0, 0, np.where(node == last_node, 2, 1))
            codes = pos * 2 + (ranks % ranks_per_node != 0)
            names = NODE_ROLE_NAMES
        else:
            codes = np.ones(nranks, dtype=np.int64)
            codes[-1] = 2
            codes[0] = 0  # "first" wins over "last" when nranks == 1
            names = ENDPOINT_NAMES
        return partition_from_codes(codes, names,
                                    live_per_group=self.live_per_group)
