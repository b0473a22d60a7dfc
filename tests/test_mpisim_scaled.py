"""Tests for the representative-rank engine: partitioning + a SimComm
over a partition (``ScaledComm`` is the same class)."""

import numpy as np
import pytest

from repro.hardware.interconnect import SLINGSHOT_11
from repro.mpisim import (
    BlockDecomposition,
    CommError,
    PartitionError,
    RankFailedError,
    RankGroup,
    RankGroupPartitioner,
    RankPartition,
    ScaledComm,
    SimComm,
    Topology,
    all_live_partition,
    balanced_block_grid,
    partition_from_labels,
    verify_assignments,
)
from repro.mpisim.decomposition import BOUNDARY_CLASS_NAMES
from repro.observability.tracer import Tracer


# -- partition layer ------------------------------------------------------------


class TestRankGroup:
    def test_proxy_assignment_round_robin(self):
        g = RankGroup("g", members=(0, 1, 2, 3, 4, 5), representatives=(0, 3))
        p = RankPartition(6, (g,))
        proxy_rank = p.live[p.proxy_index]
        assert {m: int(proxy_rank[m]) for m in (1, 2, 4, 5)} == {
            1: 0, 2: 3, 4: 0, 5: 3}
        assert dict(zip(p.live_ranks, (p.weights - 1).tolist())) == {
            0: 2, 3: 2}
        assert g.modeled_count == 4

    def test_all_live_group_has_no_proxies(self):
        g = RankGroup("g", members=(0, 1), representatives=(0, 1))
        p = RankPartition(2, (g,))
        assert p.proxy_index.tolist() == [0, 1]
        assert dict(zip(p.live_ranks, (p.weights - 1).tolist())) == {
            0: 0, 1: 0}


class TestVerifyAssignments:
    def test_valid_partition_passes(self):
        p = RankPartition(4, (RankGroup("a", (0, 1), (0,)),
                              RankGroup("b", (2, 3), (2, 3))))
        assert p.live_ranks == (0, 2, 3)
        assert p.modeled_count == 1
        assert list(p.weights) == [2, 1, 1]

    def test_uncovered_rank_rejected(self):
        with pytest.raises(PartitionError, match="not assigned"):
            RankPartition(3, (RankGroup("a", (0, 1), (0,)),))

    def test_double_coverage_rejected(self):
        with pytest.raises(PartitionError, match="multiple groups"):
            RankPartition(2, (RankGroup("a", (0, 1), (0,)),
                              RankGroup("b", (1,), (1,))))

    def test_representative_outside_members_rejected(self):
        with pytest.raises(PartitionError, match="outside its members"):
            RankPartition(2, (RankGroup("a", (0,), (0,)),
                              RankGroup("b", (1,), (0,))))

    def test_no_representatives_rejected(self):
        with pytest.raises(PartitionError, match="no representatives"):
            RankPartition(2, (RankGroup("a", (0, 1), ()),))

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitionError, match="out-of-range"):
            RankPartition(2, (RankGroup("a", (0, 5), (0,)),))

    def test_verify_is_callable_directly(self):
        p = all_live_partition(3)
        verify_assignments(p)  # no raise

    def test_repeated_representative_rejected(self):
        # would leave live_ranks == (0, 0) and weights summing to 2 on a
        # 3-rank machine: one rank silently missing from every fold
        with pytest.raises(PartitionError, match="'a' repeats a representative"):
            RankPartition(3, (RankGroup("a", (0, 1, 2), (0, 0)),))

    @pytest.mark.parametrize("members", [(0, 1.5), (0.0, 1.0), ("0", "1")])
    def test_non_integer_members_rejected(self, members):
        with pytest.raises(PartitionError, match="'a' has non-integer members"):
            RankPartition(2, (RankGroup("a", members, (0,)),))

    def test_non_integer_representatives_rejected(self):
        with pytest.raises(PartitionError,
                           match="'a' has non-integer representatives"):
            RankPartition(2, (RankGroup("a", (0, 1), (0.5,)),))

    def test_codes_must_name_groups(self):
        with pytest.raises(PartitionError, match="codes outside"):
            RankPartition.from_codes(np.array([0, 2]), ("a", "b"), ((0,), (1,)))
        with pytest.raises(PartitionError, match="codes must be integers"):
            RankPartition.from_codes(np.array([0.7, 1.2]), ("a", "b"),
                                     ((0,), (1,)))

    def test_code_built_representative_outside_group_rejected(self):
        with pytest.raises(PartitionError, match="'b' names representatives"):
            RankPartition.from_codes(np.array([0, 1]), ("a", "b"), ((0,), (0,)))

    def test_members_are_read_only_views(self):
        p = RankGroupPartitioner("endpoints").partition(8)
        interior = p.groups[p.names.index("interior")]
        assert interior.members.tolist() == list(range(1, 7))
        with pytest.raises(ValueError):
            interior.members[0] = 5
        with pytest.raises(ValueError):
            p.proxy_index[0] = 1


class TestPartitioners:
    def test_all_live_partition(self):
        p = all_live_partition(5)
        assert p.nlive == 5
        assert p.modeled_count == 0

    def test_partition_from_labels(self):
        p = partition_from_labels(["a", "b", "a", "b", "a"])
        assert p.nlive == 2
        assert p.live_ranks == (0, 1)
        assert p.modeled_count == 3

    def test_endpoints_strategy(self):
        p = RankGroupPartitioner("endpoints").partition(16)
        names = {g.name for g in p.groups}
        assert names == {"first", "last", "interior"}
        assert p.nlive == 3

    def test_node_role_strategy(self):
        p = RankGroupPartitioner("node-role").partition(64, ranks_per_node=8)
        assert p.nlive == 6  # first/mid/last node x leader/follower
        assert p.nranks == 64

    def test_block3d_strategy_interior_classes(self):
        grid = balanced_block_grid(64)
        dec = BlockDecomposition(nx=grid[0], ny=grid[1], nz=grid[2],
                                 px=grid[0], py=grid[1], pz=grid[2])
        p = RankGroupPartitioner("block3d").partition(64, decomposition=dec)
        assert p.nlive <= 27
        assert p.nranks == 64

    def test_block3d_needs_matching_decomposition(self):
        dec = BlockDecomposition(nx=2, ny=2, nz=2, px=2, py=2, pz=2)
        with pytest.raises(PartitionError, match="communicator has"):
            RankGroupPartitioner("block3d").partition(16, decomposition=dec)

    def test_auto_prefers_decomposition(self):
        dec = BlockDecomposition(nx=2, ny=2, nz=2, px=2, py=2, pz=2)
        p = RankGroupPartitioner().partition(8, decomposition=dec)
        assert len(p.groups) == 8  # every corner is its own class

    @pytest.mark.parametrize("live_per_group", [1, 2, 3])
    @pytest.mark.parametrize("nranks", [1, 2, 3, 8, 17, 64, 96])
    def test_weights_cover_every_rank(self, nranks, live_per_group):
        """Every partitioner's weights add up to the machine."""
        grid = balanced_block_grid(nranks)
        dec = BlockDecomposition(nx=grid[0], ny=grid[1], nz=grid[2],
                                 px=grid[0], py=grid[1], pz=grid[2])
        built = [
            RankGroupPartitioner(strategy, live_per_group).partition(
                nranks, decomposition=dec, ranks_per_node=8)
            for strategy in ("auto", "block3d", "node-role", "endpoints")
        ]
        built += [
            all_live_partition(nranks),
            partition_from_labels([r % 5 for r in range(nranks)],
                                  live_per_group=live_per_group),
            partition_from_labels([f"c{r % 3}" for r in range(nranks)],
                                  live_per_group=live_per_group),
        ]
        for p in built:
            assert int(p.weights.sum()) == nranks
            assert np.bincount(p.proxy_index, minlength=p.nlive).tolist() \
                == p.weights.tolist()

    def test_block3d_codes_name_scalar_classes(self):
        dec = BlockDecomposition(nx=4, ny=3, nz=1, px=4, py=3, pz=1)
        codes = dec.boundary_codes()
        assert [BOUNDARY_CLASS_NAMES[c] for c in codes] == [
            dec.boundary_class(r) for r in range(dec.nranks)]
        p = RankGroupPartitioner("block3d").partition(12, decomposition=dec)
        assert p.names == tuple(sorted(set(dec.boundary_class(r)
                                           for r in range(12))))

    @pytest.mark.parametrize("nodes", [8, 512, 9074])
    def test_gamess_codes_match_string_labels(self, nodes):
        """GAMESS builds its two task-count classes from codes; they
        match grouping the ranks by their ``tasks<count>`` labels."""
        from repro.experiments.scaling import GamessStrongScaling

        gamess = GamessStrongScaling()
        by_codes = gamess.build_partition(nodes)
        by_str = partition_from_labels(
            [f"tasks{c}" for c in gamess.task_counts(nodes).tolist()])
        assert by_codes.names == by_str.names
        assert by_codes.group_of.tolist() == by_str.group_of.tolist()
        assert by_codes.live_ranks == by_str.live_ranks

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PartitionError, match="unknown strategy"):
            RankGroupPartitioner("magic")


class TestGridHelpers:
    def test_balanced_block_grid_cube(self):
        assert balanced_block_grid(64) == (4, 4, 4)

    def test_balanced_block_grid_prime(self):
        assert balanced_block_grid(13) == (1, 1, 13)

    def test_balanced_block_grid_any_count(self):
        for n in (1, 2, 6, 72, 72592):
            px, py, pz = balanced_block_grid(n)
            assert px * py * pz == n
            assert px <= py <= pz

    def test_coords_roundtrip(self):
        dec = BlockDecomposition(nx=4, ny=2, nz=2, px=4, py=2, pz=2)
        for r in range(dec.nranks):
            ix, iy, iz = dec.coords(r)
            assert iz * 8 + iy * 4 + ix == r

    def test_boundary_class_counts(self):
        dec = BlockDecomposition(nx=4, ny=4, nz=4, px=4, py=4, pz=4)
        classes = {dec.boundary_class(r) for r in range(dec.nranks)}
        assert len(classes) == 27
        assert dec.boundary_class(0) == "xlo/ylo/zlo"

    def test_boundary_class_degenerate_axis(self):
        dec = BlockDecomposition(nx=4, ny=1, nz=1, px=4, py=1, pz=1)
        assert dec.boundary_class(1) == "xmid/y*/z*"

    def test_topology_node_roles(self):
        topo = Topology(nranks=16, ranks_per_node=4, fabric=SLINGSHOT_11)
        assert topo.local_rank(5) == 1
        assert topo.is_node_leader(4)
        assert not topo.is_node_leader(5)


# -- ScaledComm -----------------------------------------------------------------


def _drive(comm):
    """A mixed campaign touching every major op; returns the folded values."""
    n = comm.nranks
    vals = [0.1 * (r + 1) for r in range(n)]
    comm.advance_all(1e-4)
    folded = [comm.allreduce(vals, 64.0)[0]]
    comm.bcast(3.0, 8.0)
    folded.append(comm.reduce(vals, 32.0))
    comm.allgather([1] * n, 16.0)
    folded += comm.reduce_scatter(
        [[v * (d + 1) for d in range(n)] for v in vals], 256.0)
    folded.append(comm.allreduce(vals, 8.0, op=np.maximum)[0])
    comm.alltoall([[0] * n for _ in range(n)], 128.0)
    _, op = comm.ialltoall([[0] * n for _ in range(n)], 64.0)
    comm.advance_all(5e-5)
    op.wait()
    comm.alltoallv([[0] * n for _ in range(n)],
                   [[64.0 * (s + d) for d in range(n)] for s in range(n)])
    if n > 1:
        comm.sendrecv(0, 1, None, 512.0)
        comm.isendrecv(0, 1, 2048.0).wait()
    comm.neighbor_exchange(
        lambda r: [(r + 1) % comm.machine_ranks,
                   (r - 1) % comm.machine_ranks], 1024.0)
    comm.barrier()
    folded.append(comm.agree(vals, op=np.add)[0])
    return folded


#: ``_drive`` on the all-live two-class communicator this one replaced:
#: (every clock, CommStats fields, folded values), floats as ``float.hex``
PINNED_ALL_LIVE = {
    (4, 1): (
        ["0x1.9efa55de8e4e8p-13"] * 4,
        (10, "0x1.5000000000000p+13", 11, "0x1.e200000000000p+12",
         "0x1.adbea7523b2b0p-13"),
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x1.0000000000000p+1",
         "0x1.8000000000001p+1", "0x1.0000000000000p+2",
         "0x1.999999999999ap-2", "0x1.0000000000000p+0"]),
    (8, 4): (
        ["0x1.e5767b9557a8dp-13"] * 8,
        (18, "0x1.2800000000000p+14", 11, "0x1.5880000000000p+15",
         "0x1.825d281af34c4p-11"),
        ["0x1.ccccccccccccep+1", "0x1.ccccccccccccep+1",
         "0x1.ccccccccccccep+1", "0x1.ccccccccccccep+2",
         "0x1.599999999999ap+3", "0x1.ccccccccccccep+3",
         "0x1.2000000000000p+4", "0x1.599999999999ap+4",
         "0x1.9333333333334p+4", "0x1.ccccccccccccep+4",
         "0x1.999999999999ap-1", "0x1.ccccccccccccep+1"]),
    (16, 8): (
        ["0x1.38b82a0f20397p-12"] * 16,
        (34, "0x1.1400000000000p+15", 11, "0x1.2620000000000p+18",
         "0x1.68d3b9eb8908ep-9"),
        ["0x1.b333333333334p+3", "0x1.b333333333334p+3",
         "0x1.b333333333334p+3", "0x1.b333333333334p+4",
         "0x1.4666666666666p+5", "0x1.b333333333334p+5",
         "0x1.1000000000000p+6", "0x1.4666666666666p+6",
         "0x1.7cccccccccccep+6", "0x1.b333333333334p+6",
         "0x1.e99999999999ap+6", "0x1.1000000000000p+7",
         "0x1.2b33333333333p+7", "0x1.4666666666666p+7",
         "0x1.619999999999ap+7", "0x1.7cccccccccccep+7",
         "0x1.9800000000000p+7", "0x1.b333333333334p+7",
         "0x1.999999999999ap+0", "0x1.b333333333334p+3"]),
}


class TestScaledCommIdentity:
    """R = P must reproduce the pinned all-live values bit for bit."""

    @pytest.mark.parametrize("nranks,rpn", [(4, 1), (8, 4), (16, 8)])
    def test_bit_identity(self, nranks, rpn):
        comm = SimComm(nranks, SLINGSHOT_11, ranks_per_node=rpn,
                       device_buffers=True)
        folded = _drive(comm)
        clocks, stats, values = PINNED_ALL_LIVE[(nranks, rpn)]
        assert [c.hex() for c in comm.clocks.tolist()] == clocks
        s = comm.stats
        assert (s.p2p_messages, s.p2p_bytes.hex(), s.collectives,
                s.collective_bytes.hex(), s.total_comm_time.hex()) == stats
        assert [float(v).hex() for v in folded] == values

    def test_default_partition_is_all_live(self):
        c = ScaledComm(6, SLINGSHOT_11)
        assert c.nranks == 6
        assert c.machine_ranks == 6
        assert c.representatives == tuple(range(6))
        assert list(c.rank_weights) == [1] * 6

    def test_partition_size_mismatch_rejected(self):
        with pytest.raises(CommError, match="partition covers"):
            ScaledComm(8, SLINGSHOT_11, partition=all_live_partition(4))


@pytest.fixture
def scaled16():
    """16 machine ranks, 3 exemplars (endpoints partition)."""
    part = RankGroupPartitioner("endpoints").partition(16)
    return ScaledComm(16, SLINGSHOT_11, ranks_per_node=8,
                      device_buffers=True, partition=part)


class TestScaledCommModeled:
    def test_shape(self, scaled16):
        assert scaled16.nranks == 3
        assert scaled16.machine_ranks == 16
        assert scaled16.representatives == (0, 1, 15)
        assert int(scaled16.rank_weights.sum()) == 16

    def test_collective_cost_at_full_machine(self, scaled16):
        full = SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True)
        scaled16.allreduce([1.0] * 3, 1024.0)
        full.allreduce([1.0] * 16, 1024.0)
        assert scaled16.elapsed == full.elapsed

    def test_weighted_allreduce_sum(self, scaled16):
        out = scaled16.allreduce([1.0] * 3, 8.0)
        assert len(out) == 3
        assert out[0] == 16.0  # every machine rank contributes

    def test_idempotent_op_not_weighted(self, scaled16):
        out = scaled16.allreduce([3.0, 7.0, 5.0], 8.0, op=np.maximum)
        assert out[0] == 7.0

    def test_weighted_reduce_scatter(self, scaled16):
        out = scaled16.reduce_scatter([[1.0] * 3 for _ in range(3)], 96.0)
        assert out == [16.0, 16.0, 16.0]

    def test_stats_account_full_machine(self, scaled16):
        scaled16.allreduce([1.0] * 3, 8.0)
        assert scaled16.stats.collective_bytes == 8.0 * 16
        assert scaled16.stats.collectives == 1

    def test_group_clocks_mirror_representatives(self, scaled16):
        scaled16.advance_all(np.array([1.0, 2.0, 3.0]))
        groups = {g.name: g for g in scaled16.group_clocks()}
        interior = groups["interior"]
        assert interior.count == 13
        assert interior.min == interior.max == 2.0
        assert interior.sum == 13 * 2.0
        assert interior.mean == 2.0
        # singleton groups have no modelled members
        assert groups["first"].count == 0

    def test_collective_synchronizes_groups(self, scaled16):
        scaled16.advance(1, 5.0)  # the interior exemplar races ahead
        scaled16.barrier()
        groups = {g.name: g for g in scaled16.group_clocks()}
        assert groups["interior"].min == groups["interior"].max
        assert groups["interior"].min == scaled16.elapsed

    def test_load_imbalance_weighted(self, scaled16):
        scaled16.advance_all(np.array([1.0, 1.0, 1.0]))
        assert scaled16.load_imbalance() == pytest.approx(1.0)
        scaled16.advance(0, 1.0)  # one singleton exemplar is slow
        # full-machine mean barely moves: 15 of 16 ranks stayed at 1.0
        assert scaled16.load_imbalance() == pytest.approx(
            2.0 / ((15 * 1.0 + 2.0) / 16))

    def test_elapsed_is_live_max(self, scaled16):
        scaled16.advance(2, 2.5)
        assert scaled16.elapsed == 2.5

    def test_describe(self, scaled16):
        assert scaled16.describe() == "SimComm(P=16, R=3, groups=3)"

    def test_fail_rank_speaks_global_machine_ranks(self, scaled16):
        # rank 5 is modelled (reps are 0, 1, 15): a group-level failure
        scaled16.fail_rank(5)
        assert scaled16.failed_ranks() == [5]
        assert not scaled16.failed.any()  # no exemplar died
        assert scaled16.machine_alive_count == 15
        # the interior group's effective weight dropped by one
        assert scaled16.rank_weights.tolist() == [1, 13, 1]
        scaled16.restore_rank(5)
        assert scaled16.failed_ranks() == []
        assert scaled16.rank_weights.tolist() == [1, 14, 1]

    def test_modelled_failure_detected_at_next_collective(self, scaled16):
        scaled16.fail_rank(7)
        with pytest.raises(RankFailedError) as exc:
            scaled16.allreduce([1.0] * 3, 8.0)
        assert exc.value.ranks == (7,)

    def test_agree_priced_at_machine_survivor_count(self, scaled16):
        full = SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True)
        scaled16.fail_rank(5)
        full.fail_rank(5)
        acc, dead = scaled16.agree()
        acc_full, dead_full = full.agree()
        assert (acc, dead) == (acc_full, dead_full)
        # 15 machine survivors price the consensus on both communicators
        assert scaled16.elapsed == full.elapsed

    def test_agree_weighted_fold(self, scaled16):
        acc, _ = scaled16.agree([1.0] * 3, op=np.add)
        assert acc == 16.0  # exemplars weighted by the machine
        scaled16.fail_rank(5)
        acc, dead = scaled16.agree([1.0] * 3, op=np.add)
        assert acc == 15.0 and dead == (5,)

    def test_shrink_rebuilds_survivor_partition(self, scaled16):
        scaled16.fail_rank(5)
        sub = scaled16.shrink()
        assert sub.machine_ranks == 15
        assert sub.parent_ranks == tuple(
            r for r in range(16) if r != 5)
        # dense renumbering preserved order: old 15 became new 14
        assert sub.representatives == (0, 1, 14)
        assert sub.rank_weights.tolist() == [1, 13, 1]

    def test_shrink_promotes_when_all_reps_die(self, scaled16):
        # rank 1 is the interior group's only representative
        scaled16.advance(1, 2.0)
        scaled16.fail_rank(1)
        sub = scaled16.shrink()
        assert sub.machine_ranks == 15
        # old rank 2 (new rank 1) promoted to carry the interior group
        assert sub.representatives == (0, 1, 14)
        assert sub.rank_weights.tolist() == [1, 13, 1]
        # the promotee inherits the modelled-rank clock estimate, not zero
        assert sub.clocks[1] == pytest.approx(
            scaled16._clock_estimate(2, scaled16.clocks))

    def test_split_over_machine_ranks(self, scaled16):
        subs = scaled16.split(lambda r: r % 2)
        assert sorted(subs) == [0, 1]
        assert subs[0].machine_ranks == 8 and subs[1].machine_ranks == 8
        assert subs[0].parent_ranks == tuple(range(0, 16, 2))
        total = sum(s.machine_ranks for s in subs.values())
        assert total == scaled16.machine_ranks

    def test_ialltoall_costs_full_machine(self, scaled16):
        full = SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True)
        _, op = scaled16.ialltoall([[0] * 3 for _ in range(3)], 64.0)
        op.wait()
        _, ref = full.ialltoall([[0] * 16 for _ in range(16)], 64.0)
        ref.wait()
        assert scaled16.elapsed == full.elapsed

    def test_alltoallv_conservative_bound(self, scaled16):
        nbytes = [[64.0] * 3 for _ in range(3)]
        scaled16.alltoallv([[0] * 3 for _ in range(3)], nbytes)
        link = scaled16.topology.internode_link(device_buffers=True)
        assert scaled16.elapsed == pytest.approx(15 * link.p2p_time(64.0))

    def test_neighbor_exchange_uses_global_ranks(self, scaled16):
        # ring over the 16 machine ranks; exemplars look up modelled
        # partners through their proxies
        op = scaled16.ineighbor_exchange(
            lambda r: [(r + 1) % 16, (r - 1) % 16], 4096.0)
        op.wait()
        assert scaled16.elapsed > 0
        assert scaled16.stats.p2p_messages == 32  # 2 per machine rank

    def test_group_edge_tracing(self):
        tracer = Tracer()
        part = RankGroupPartitioner("endpoints").partition(16)
        c = ScaledComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True, partition=part, tracer=tracer)
        c.sendrecv(0, 1, None, 128.0)
        names = set(tracer.metrics.counters)
        assert "mpisim.group_edge[first->interior].messages" in names


# -- SimComm satellites ----------------------------------------------------------


class TestReduceScatter:
    def test_data_semantics(self):
        c = SimComm(3, SLINGSHOT_11)
        blocks = [[10 * src + dst for dst in range(3)] for src in range(3)]
        out = c.reduce_scatter(blocks, 24.0)
        assert out == [0 + 10 + 20, 1 + 11 + 21, 2 + 12 + 22]

    def test_shape_validated(self):
        c = SimComm(2, SLINGSHOT_11)
        with pytest.raises(CommError, match="block matrix"):
            c.reduce_scatter([[1.0]], 8.0)

    def test_clock_and_stats_accounting(self):
        from repro.mpisim import reduce_scatter_time

        c = SimComm(4, SLINGSHOT_11)
        c.reduce_scatter([[1.0] * 4 for _ in range(4)], 4096.0)
        link = c.topology.internode_link()
        assert c.elapsed == pytest.approx(reduce_scatter_time(4, 4096.0, link))
        assert c.stats.collectives == 1
        assert c.stats.collective_bytes == 4096.0 * 4

    def test_ring_decomposition_of_rabenseifner(self):
        """reduce_scatter + allgather(n/p) β-cost equals Rabenseifner's
        allreduce β-cost exactly — the ring decomposition the cost-model
        comments describe."""
        from repro.mpisim import (
            allgather_time,
            allreduce_time,
            reduce_scatter_time,
        )
        from repro.mpisim.costmodel import LinkParameters

        beta_only = LinkParameters(alpha=0.0, beta=1e-10)
        for p in (2, 4, 8, 64):
            n = 1 << 20
            ring = (reduce_scatter_time(p, n, beta_only)
                    + allgather_time(p, n / p, beta_only))
            rab = 2 * (p - 1) / p * n * beta_only.beta
            assert ring == pytest.approx(rab, rel=1e-12)
            # and the modelled allreduce never exceeds the ring build
            assert allreduce_time(p, n, beta_only) <= ring * (1 + 1e-12)


class TestNeighborExchange:
    def test_blocking_ring(self):
        c = SimComm(4, SLINGSHOT_11)
        c.neighbor_exchange(lambda r: [(r + 1) % 4, (r - 1) % 4], 1024.0)
        link = c.topology.internode_link()
        assert c.elapsed == pytest.approx(2 * link.p2p_time(1024.0))
        assert c.stats.p2p_messages == 8

    def test_self_partners_ignored(self):
        c = SimComm(2, SLINGSHOT_11)
        c.neighbor_exchange(lambda r: [r, 1 - r], 64.0)
        assert c.stats.p2p_messages == 2

    def test_overlap_with_compute(self):
        c = SimComm(4, SLINGSHOT_11)
        op = c.ineighbor_exchange(lambda r: [(r + 1) % 4], 1024.0)
        c.advance_all(10.0)  # compute fully hides the exchange
        op.wait()
        assert c.elapsed == pytest.approx(10.0)


class TestSplitStats:
    def test_merge_child_stats(self):
        c = SimComm(4, SLINGSHOT_11)
        subs = c.split(lambda r: r % 2)
        for sub in subs.values():
            sub.allreduce([1.0] * sub.nranks, 8.0)
        assert c.stats.collectives == 0
        c.merge_child_stats(subs)
        assert c.stats.collectives == 2
        assert c.stats.collective_bytes == 8.0 * 4

    def test_shared_stats_children_write_parent(self):
        c = SimComm(4, SLINGSHOT_11)
        subs = c.split(lambda r: r % 2, shared_stats=True)
        for sub in subs.values():
            sub.allreduce([1.0] * sub.nranks, 8.0)
        assert c.stats.collectives == 2
        # merging shared children must not double-count
        c.merge_child_stats(subs)
        assert c.stats.collectives == 2

    def test_split_records_parent_ranks(self):
        c = SimComm(4, SLINGSHOT_11)
        subs = c.split(lambda r: r % 2)
        assert subs[0].parent_ranks == (0, 2)
        assert subs[1].parent_ranks == (1, 3)
