"""Array-native partitions against a pure-Python proxy-map oracle.

The oracle is the per-rank dictionary bookkeeping the representative-rank
engine is defined by: every modelled member of a group mirrors one of
the group's representatives, handed out round-robin over the modelled
members in rank order (the representatives in their listed order); a
live rank's weight is itself plus the members it mirrors.  The array
core (``group_of``, ``proxy_index``, ``weights``, ``live_ranks``) must
agree with it exactly, for label-built, hand-built and induced
(``shrink`` / ``split``) partitions.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.hardware.interconnect import SLINGSHOT_11
from repro.mpisim import (
    RankGroup,
    RankPartition,
    ScaledComm,
    partition_from_codes,
    partition_from_labels,
)

PROPS = settings(max_examples=60, deadline=None, derandomize=True)


def oracle(nranks, groups):
    """``(group_of, proxy_index, weights, live_ranks)`` from
    ``groups = [(name, members, reps), ...]`` by per-rank dicts."""
    live_ranks = tuple(sorted(r for _, _, reps in groups for r in reps))
    live_index = {r: i for i, r in enumerate(live_ranks)}
    group_of = [None] * nranks
    proxy_of = {}
    weights = [1] * len(live_ranks)
    for gi, (_, members, reps) in enumerate(groups):
        for m in members:
            group_of[m] = gi
        rep_set = set(reps)
        modeled = [m for m in sorted(members) if m not in rep_set]
        for i, m in enumerate(modeled):
            proxy_of[m] = reps[i % len(reps)]
        base, extra = divmod(len(modeled), len(reps))
        for i, rep in enumerate(reps):
            weights[live_index[rep]] += base + (1 if i < extra else 0)
    proxy_index = [live_index[r] if r in live_index
                   else live_index[proxy_of[r]] for r in range(nranks)]
    return group_of, proxy_index, weights, live_ranks


def assert_matches(p, groups):
    group_of, proxy_index, weights, live_ranks = oracle(p.nranks, groups)
    assert p.names == tuple(name for name, _, _ in groups)
    assert p.group_of.tolist() == group_of
    assert p.proxy_index.tolist() == proxy_index
    assert p.weights.tolist() == weights
    assert p.live_ranks == live_ranks
    assert int(p.weights.sum()) == p.nranks
    for g, (name, members, reps) in zip(p.groups, groups):
        assert g.name == name
        assert g.members.tolist() == sorted(members)
        assert g.representatives == tuple(reps)


def label_groups(labels, live_per_group):
    """Groups ``partition_from_labels`` promises, built by hand."""
    by_label = {}
    for rank, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(rank)
    return [(str(lab), members, members[:live_per_group])
            for lab, members in sorted(by_label.items(),
                                       key=lambda kv: str(kv[0]))]


label_lists = st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=40),
    st.lists(st.sampled_from([-10**6, 7, 10**6, 2**40]), min_size=1,
             max_size=40),
    st.lists(st.sampled_from(["a", "b", "c", "interior", "b2"]),
             min_size=1, max_size=40),
)


@st.composite
def hand_built(draw, max_ranks=30):
    """``(nranks, groups)`` with shuffled members and representatives."""
    nranks = draw(st.integers(1, max_ranks))
    ngroups = draw(st.integers(1, nranks))
    # every group gets one rank, the rest land anywhere
    owner = list(range(ngroups)) + draw(st.lists(
        st.integers(0, ngroups - 1), min_size=nranks - ngroups,
        max_size=nranks - ngroups))
    owner = draw(st.permutations(owner))
    groups = []
    for g in range(ngroups):
        members = [r for r in range(nranks) if owner[r] == g]
        nreps = draw(st.integers(1, min(3, len(members))))
        reps = draw(st.permutations(members))[:nreps]
        groups.append((f"g{g}", draw(st.permutations(members)), reps))
    return nranks, groups


class TestLabelPartitions:
    @PROPS
    @given(labels=label_lists, live_per_group=st.integers(1, 3))
    def test_matches_oracle(self, labels, live_per_group):
        p = partition_from_labels(labels, live_per_group=live_per_group)
        assert_matches(p, label_groups(labels, live_per_group))

    @PROPS
    @given(codes=st.lists(st.integers(0, 4), min_size=1, max_size=40),
           lo=st.sampled_from([0, 8, 9, 98]),
           live_per_group=st.integers(1, 3))
    def test_codes_match_oracle(self, codes, lo, live_per_group):
        """Code-built groups equal the same ranks grouped by the name
        each code stands for ("tasks10" sorts before "tasks9")."""
        names = [f"tasks{lo + k}" for k in range(5)]
        p = partition_from_codes(np.array(codes), names,
                                 live_per_group=live_per_group)
        assert_matches(p, label_groups([names[c] for c in codes],
                                       live_per_group))


class TestHandBuiltPartitions:
    @PROPS
    @given(case=hand_built())
    def test_matches_oracle(self, case):
        nranks, groups = case
        p = RankPartition(nranks, tuple(
            RankGroup(name, tuple(members), tuple(reps))
            for name, members, reps in groups))
        assert_matches(p, groups)


def induced_groups(groups, members):
    """The old-group-order intersection ``shrink``/``split`` promise:
    surviving representatives keep their order, a group that lost all
    of them promotes its lowest surviving member."""
    remap = {old: new for new, old in enumerate(members)}
    out = []
    for name, group_members, reps in groups:
        keep = [m for m in sorted(group_members) if m in remap]
        if not keep:
            continue
        alive = [r for r in reps if r in remap] or keep[:1]
        out.append((name, [remap[m] for m in keep],
                    [remap[r] for r in alive]))
    return out


def _modeled_comm(nranks, groups):
    p = RankPartition(nranks, tuple(
        RankGroup(name, tuple(members), tuple(reps))
        for name, members, reps in groups))
    comm = ScaledComm(nranks, SLINGSHOT_11, ranks_per_node=4, partition=p)
    # distinct exemplar clocks, so carried-over clocks are traceable
    comm.advance_all(np.arange(1, comm.nranks + 1) * 1e-3)
    return comm


def expected_clocks(comm, groups, members):
    """Carried clock per new live rank: a surviving representative keeps
    its own, a promoted member starts at its proxy's clock."""
    _, proxy_index, _, _ = oracle(comm.machine_ranks, groups)
    clock_of = {}
    for name, _, reps in induced_groups(groups, members):
        for new in reps:
            clock_of[new] = float(comm.clocks[proxy_index[members[new]]])
    return [clock_of[r] for r in sorted(clock_of)]


class TestInducedPartitions:
    @PROPS
    @given(case=hand_built(), data=st.data())
    def test_shrink_matches_oracle(self, case, data):
        nranks, groups = case
        comm = _modeled_comm(nranks, groups)
        assume(comm.partition.modeled_count > 0)
        dead = data.draw(st.lists(st.integers(0, nranks - 1), unique=True,
                                  max_size=nranks - 1))
        # agree() needs one exemplar alive to run the consensus
        assume(set(comm.representatives) - set(dead))
        for r in dead:
            comm.fail_rank(r)
        sub = comm.shrink()
        members = [r for r in range(nranks) if r not in set(dead)]
        assert sub.parent_machine_ranks == tuple(members)
        expect = induced_groups(groups, members)
        assert_matches(sub.partition, expect)
        assert sub.clocks.tolist() == expected_clocks(comm, groups, members)

    @PROPS
    @given(case=hand_built(), data=st.data())
    def test_split_matches_oracle(self, case, data):
        nranks, groups = case
        comm = _modeled_comm(nranks, groups)
        assume(comm.partition.modeled_count > 0)
        colors = data.draw(st.lists(st.integers(0, 2), min_size=nranks,
                                    max_size=nranks))
        subs = comm.split(lambda r: colors[r])
        assert sorted(subs) == sorted(set(colors))
        for color, sub in subs.items():
            members = [r for r in range(nranks) if colors[r] == color]
            assert_matches(sub.partition, induced_groups(groups, members))
            assert sub.clocks.tolist() == expected_clocks(comm, groups,
                                                          members)
