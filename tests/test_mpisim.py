"""Tests for the MPI simulator: cost models, topology, communicator."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hardware.interconnect import IB_EDR_DUAL, SLINGSHOT_11
from repro.mpisim import (
    BlockDecomposition,
    CommError,
    DecompositionError,
    PencilDecomposition,
    RankGroupPartitioner,
    SimComm,
    SlabDecomposition,
    Topology,
    allgather_time,
    allreduce_time,
    alltoall_time,
    balanced_pencil_grid,
    barrier_time,
    bcast_time,
    link_parameters,
    ranks_per_nic,
)


class TestCostModel:
    def test_p2p_latency_dominates_small_messages(self):
        link = link_parameters(SLINGSHOT_11)
        assert link.p2p_time(8) == pytest.approx(link.alpha, rel=0.01)

    def test_p2p_bandwidth_dominates_large_messages(self):
        link = link_parameters(SLINGSHOT_11)
        t = link.p2p_time(1 << 30)
        assert t == pytest.approx((1 << 30) * link.beta, rel=0.01)

    def test_nic_sharing_halves_bandwidth(self):
        solo = link_parameters(SLINGSHOT_11, ranks_sharing_nic=1)
        shared = link_parameters(SLINGSHOT_11, ranks_sharing_nic=2)
        assert shared.beta == pytest.approx(2 * solo.beta)

    def test_gpu_aware_faster_than_staged(self):
        aware = link_parameters(SLINGSHOT_11, device_buffers=True)
        import dataclasses
        not_aware_fabric = dataclasses.replace(SLINGSHOT_11, gpu_aware=False)
        staged = link_parameters(not_aware_fabric, device_buffers=True)
        assert aware.p2p_time(1 << 24) < staged.p2p_time(1 << 24)

    def test_ranks_per_nic(self):
        assert ranks_per_nic(8, SLINGSHOT_11) == 2  # 8 ranks / 4 NICs
        assert ranks_per_nic(6, IB_EDR_DUAL) == 3

    def test_collectives_scale_logarithmically_or_linearly(self):
        link = link_parameters(SLINGSHOT_11)
        assert bcast_time(1024, 1 << 20, link) > bcast_time(16, 1 << 20, link)
        assert alltoall_time(64, 1 << 10, link) > allreduce_time(64, 1 << 10, link)

    def test_single_rank_collectives_free(self):
        link = link_parameters(SLINGSHOT_11)
        assert bcast_time(1, 100, link) == 0.0
        assert allreduce_time(1, 100, link) == 0.0
        assert barrier_time(1, link) == 0.0

    def test_allreduce_picks_cheaper_algorithm(self):
        link = link_parameters(SLINGSHOT_11)
        # large payloads: Rabenseifner bandwidth term must win over
        # recursive doubling's log(p) full-payload sends
        p, n = 1024, 1 << 26
        rd = np.ceil(np.log2(p)) * link.p2p_time(n)
        assert allreduce_time(p, n, link) < rd

    @given(st.integers(min_value=2, max_value=4096), st.integers(min_value=8, max_value=1 << 22))
    def test_allgather_grows_with_ranks(self, p, n):
        link = link_parameters(SLINGSHOT_11)
        assert allgather_time(p + 1, n, link) >= allgather_time(p, n, link)


class TestTopology:
    def test_node_mapping(self):
        topo = Topology(nranks=16, ranks_per_node=8, fabric=SLINGSHOT_11)
        assert topo.nnodes == 2
        assert topo.node_of(0) == 0
        assert topo.node_of(8) == 1
        assert topo.same_node(0, 7)
        assert not topo.same_node(7, 8)

    def test_intranode_faster_than_internode(self):
        topo = Topology(nranks=16, ranks_per_node=8, fabric=SLINGSHOT_11)
        intra = topo.link(0, 1)
        inter = topo.link(0, 8)
        n = 1 << 20
        assert intra.p2p_time(n) < inter.p2p_time(n)

    def test_rank_out_of_range(self):
        topo = Topology(nranks=4, ranks_per_node=2, fabric=SLINGSHOT_11)
        with pytest.raises(ValueError):
            topo.node_of(4)


class TestSimComm:
    def test_bcast_data_semantics(self):
        comm = SimComm(4, SLINGSHOT_11)
        out = comm.bcast(np.arange(3), nbytes=24)
        assert len(out) == 4
        for v in out:
            np.testing.assert_array_equal(v, [0, 1, 2])
        assert comm.elapsed > 0

    def test_allreduce_sums(self):
        comm = SimComm(8, SLINGSHOT_11)
        out = comm.allreduce([float(r) for r in range(8)], nbytes=8)
        assert all(v == sum(range(8)) for v in out)

    def test_allreduce_with_arrays(self):
        comm = SimComm(4, SLINGSHOT_11)
        vals = [np.full(5, r, dtype=float) for r in range(4)]
        out = comm.allreduce(vals, nbytes=40)
        np.testing.assert_array_equal(out[0], np.full(5, 6.0))

    def test_alltoall_transposes_payloads(self):
        comm = SimComm(3, SLINGSHOT_11)
        matrix = [[f"{src}->{dst}" for dst in range(3)] for src in range(3)]
        out = comm.alltoall(matrix, nbytes_per_pair=8)
        assert out[1][2] == "2->1"  # receiver 1's slot from sender 2
        assert out[0] == ["0->0", "1->0", "2->0"]

    def test_allgather(self):
        comm = SimComm(4, SLINGSHOT_11)
        out = comm.allgather([r * 10 for r in range(4)], nbytes=8)
        assert out[2] == [0, 10, 20, 30]

    def test_gather_and_scatter(self):
        comm = SimComm(4, SLINGSHOT_11)
        gathered = comm.gather(list(range(4)), nbytes=8)
        assert gathered == [0, 1, 2, 3]
        scattered = comm.scatter([10, 20, 30, 40], nbytes=8)
        assert scattered[3] == 40

    def test_reduce(self):
        comm = SimComm(4, SLINGSHOT_11)
        assert comm.reduce([1.0, 2.0, 3.0, 4.0], nbytes=8) == 10.0

    def test_sendrecv_synchronizes_pair(self):
        comm = SimComm(4, SLINGSHOT_11, ranks_per_node=2)
        comm.advance(0, 1.0)
        payload = comm.sendrecv(0, 2, "hello", nbytes=1024)
        assert payload == "hello"
        assert comm.clocks[2] == comm.clocks[0]
        assert comm.clocks[2] > 1.0
        assert comm.clocks[1] == 0.0  # uninvolved rank unaffected

    def test_nonblocking_overlap(self):
        comm = SimComm(2, SLINGSHOT_11)
        op = comm.isendrecv(0, 1, nbytes=1 << 26)
        comm.advance(0, 10.0)  # compute while the message flies
        op.wait()
        # the transfer finished long before the compute did
        assert comm.clocks[0] == pytest.approx(10.0)

    def test_collective_synchronizes_clocks(self):
        comm = SimComm(4, SLINGSHOT_11)
        comm.advance(2, 5.0)  # straggler
        comm.barrier()
        assert np.all(comm.clocks >= 5.0)
        assert np.ptp(comm.clocks) == pytest.approx(0.0)

    def test_load_imbalance_metric(self):
        comm = SimComm(4, SLINGSHOT_11)
        comm.advance_all(1.0)
        assert comm.load_imbalance() == pytest.approx(1.0)
        comm.advance(0, 1.0)
        assert comm.load_imbalance() > 1.0

    def test_stats_accumulate(self):
        comm = SimComm(4, SLINGSHOT_11)
        comm.bcast(1, nbytes=8)
        comm.sendrecv(0, 1, None, nbytes=64)
        assert comm.stats.collectives == 1
        assert comm.stats.p2p_messages == 1
        assert comm.stats.total_comm_time > 0

    def test_input_validation(self):
        comm = SimComm(4, SLINGSHOT_11)
        with pytest.raises(CommError):
            comm.allreduce([1, 2], nbytes=8)  # wrong count
        with pytest.raises(CommError):
            comm.sendrecv(1, 1, None, nbytes=8)
        with pytest.raises(CommError):
            comm.bcast(1, nbytes=8, root=9)
        with pytest.raises(CommError):
            comm.advance(0, -1.0)
        with pytest.raises(CommError):
            SimComm(0, SLINGSHOT_11)


class TestDecompositions:
    def test_slab_local_shape(self):
        d = SlabDecomposition(n=64, nranks=16)
        assert d.local_shape == (4, 64, 64)
        assert d.transposes_per_fft == 1

    def test_slab_rank_limit(self):
        with pytest.raises(DecompositionError, match="limited to"):
            SlabDecomposition(n=8, nranks=16)

    def test_slab_divisibility(self):
        with pytest.raises(DecompositionError):
            SlabDecomposition(n=10, nranks=3)

    def test_pencil_allows_n_squared_ranks(self):
        d = PencilDecomposition(n=16, prow=16, pcol=16)
        assert d.nranks == 256  # > N, impossible for slabs
        assert d.transposes_per_fft == 2

    def test_pencil_local_shape(self):
        d = PencilDecomposition(n=64, prow=4, pcol=8)
        assert d.local_shape == (16, 8, 64)

    def test_pencil_rank_limit(self):
        with pytest.raises(DecompositionError):
            PencilDecomposition(n=4, prow=8, pcol=4)

    def test_balanced_grid(self):
        prow, pcol = balanced_pencil_grid(64, 32)
        assert prow * pcol == 32
        assert 64 % prow == 0 and 64 % pcol == 0

    def test_balanced_grid_impossible(self):
        with pytest.raises(DecompositionError):
            balanced_pencil_grid(7, 4)

    def test_block_neighbors_periodic(self):
        d = BlockDecomposition(nx=8, ny=8, nz=8, px=2, py=2, pz=2)
        assert d.nranks == 8
        nbrs = d.neighbors(0)
        assert len(nbrs) == 6
        assert all(0 <= n < 8 for n in nbrs)

    def test_block_ghost_bytes(self):
        d = BlockDecomposition(nx=64, ny=64, nz=64, px=4, py=4, pz=4)
        b1 = d.ghost_bytes_per_exchange(ghost_width=1)
        b2 = d.ghost_bytes_per_exchange(ghost_width=2)
        assert b2 == pytest.approx(2 * b1)

    def test_block_divisibility(self):
        with pytest.raises(DecompositionError):
            BlockDecomposition(nx=10, ny=8, nz=8, px=3, py=2, pz=2)


class TestAlltoallv:
    def test_data_semantics(self):
        from repro.mpisim import SimComm

        comm = SimComm(3, SLINGSHOT_11)
        matrix = [[f"{s}->{d}" for d in range(3)] for s in range(3)]
        nbytes = [[0.0, 64.0, 128.0], [64.0, 0.0, 256.0], [128.0, 256.0, 0.0]]
        out = comm.alltoallv(matrix, nbytes)
        assert out[2][0] == "0->2"
        assert comm.elapsed > 0

    def test_cost_gated_by_largest_pair(self):
        from repro.mpisim import alltoallv_time, link_parameters

        link = link_parameters(SLINGSHOT_11)
        uniform = [[0.0 if i == j else 1024.0 for j in range(4)] for i in range(4)]
        skewed = [[0.0 if i == j else 1024.0 for j in range(4)] for i in range(4)]
        skewed[0][1] = 1 << 24  # one huge pair dominates its round
        assert alltoallv_time(skewed, link) > alltoallv_time(uniform, link)

    def test_matches_alltoall_for_uniform_sizes(self):
        from repro.mpisim import alltoall_time, alltoallv_time, link_parameters

        link = link_parameters(SLINGSHOT_11)
        p, n = 8, 4096.0
        uniform = [[0.0 if i == j else n for j in range(p)] for i in range(p)]
        assert alltoallv_time(uniform, link) == pytest.approx(
            alltoall_time(p, n, link), rel=0.01
        )

    def test_shape_validation(self):
        from repro.mpisim import SimComm, alltoallv_time, link_parameters

        with pytest.raises(ValueError):
            alltoallv_time([[0.0, 1.0]], link_parameters(SLINGSHOT_11))
        comm = SimComm(2, SLINGSHOT_11)
        with pytest.raises(CommError):
            comm.alltoallv([[1, 2], [3, 4]], [[0.0], [0.0]])


class TestDeviceD2DMemset:
    def test_in_package_copy_faster(self):
        from repro.gpu import Device
        from repro.hardware.gpu import MI250X_GCD

        d = Device(MI250X_GCD)
        fast = d.memcpy_d2d(1 << 26, same_package=True)
        slow = d.memcpy_d2d(1 << 26, same_package=False)
        assert fast < slow

    def test_memset_is_bandwidth_limited(self):
        from repro.gpu import Device
        from repro.hardware.gpu import V100

        d = Device(V100)
        t = d.memset(1 << 28)
        assert t == pytest.approx((1 << 28) / V100.effective_bandwidth)

    def test_memset_validation(self):
        from repro.gpu import Device
        from repro.hardware.gpu import V100

        with pytest.raises(ValueError):
            Device(V100).memset(-1)


class TestPendingOpClockAccounting:
    """Nonblocking ops: completion computed at post, applied at wait."""

    def _p2p_time(self, comm, src, dst, nbytes):
        link = comm.topology.link(src, dst)
        return link.p2p_time(nbytes)

    def test_wait_applies_posted_completion_time(self):
        comm = SimComm(2, SLINGSHOT_11)
        nbytes = 1 << 20
        t = self._p2p_time(comm, 0, 1, nbytes)
        op = comm.isendrecv(0, 1, nbytes=nbytes)
        assert comm.clocks[0] == 0.0  # nothing applied yet
        op.wait()
        assert comm.clocks[0] == pytest.approx(t)
        assert comm.clocks[1] == pytest.approx(t)

    def test_compute_overlap_hides_the_transfer(self):
        comm = SimComm(2, SLINGSHOT_11)
        nbytes = 1 << 20
        t = self._p2p_time(comm, 0, 1, nbytes)
        op = comm.isendrecv(0, 1, nbytes=nbytes)
        comm.advance(0, 10 * t)  # compute strictly dominates
        op.wait()
        assert comm.clocks[0] == pytest.approx(10 * t)  # fully hidden
        assert comm.clocks[1] == pytest.approx(t)  # dst only paid the wire

    def test_partial_overlap_takes_the_max(self):
        comm = SimComm(2, SLINGSHOT_11)
        nbytes = 1 << 24
        t = self._p2p_time(comm, 0, 1, nbytes)
        op = comm.isendrecv(0, 1, nbytes=nbytes)
        comm.advance(0, 0.5 * t)
        op.wait()
        # compute covered half the transfer; the wire sets the clock
        assert comm.clocks[0] == pytest.approx(t)

    def test_wait_is_idempotent(self):
        comm = SimComm(2, SLINGSHOT_11)
        op = comm.isendrecv(0, 1, nbytes=1 << 20)
        op.wait()
        after_first = comm.clocks.copy()
        comm.advance(0, 1.0)
        op.wait()  # must not re-apply the old completion time
        assert comm.clocks[0] == pytest.approx(after_first[0] + 1.0)

    def test_completion_anchored_at_post_not_wait(self):
        """Clocks advanced between post and wait don't delay the wire:
        the transfer started when it was posted."""
        comm = SimComm(2, SLINGSHOT_11)
        nbytes = 1 << 20
        t = self._p2p_time(comm, 0, 1, nbytes)
        comm.advance(1, 5.0)  # dst is ahead when the op is posted
        op = comm.isendrecv(0, 1, nbytes=nbytes)
        op.wait()
        assert comm.clocks[0] == pytest.approx(5.0 + t)
        assert comm.clocks[1] == pytest.approx(5.0 + t)

    def test_stats_charged_at_post_under_overlap(self):
        comm = SimComm(2, SLINGSHOT_11)
        nbytes = 1 << 20
        t = self._p2p_time(comm, 0, 1, nbytes)
        op = comm.isendrecv(0, 1, nbytes=nbytes)
        # the accounting exists before wait: bytes moved and both ranks'
        # comm time are already attributed to the operation
        assert comm.stats.p2p_messages == 1
        assert comm.stats.p2p_bytes == nbytes
        assert comm.stats.total_comm_time == pytest.approx(2 * t)
        comm.advance(0, 100 * t)
        op.wait()
        assert comm.stats.total_comm_time == pytest.approx(2 * t)

    def test_stats_totals_mix_blocking_and_overlapped(self):
        comm = SimComm(4, SLINGSHOT_11, ranks_per_node=2)
        n1, n2 = 1 << 16, 1 << 22
        t1 = self._p2p_time(comm, 0, 1, n1)
        op = comm.isendrecv(0, 1, nbytes=n1)
        t2 = self._p2p_time(comm, 2, 3, n2)
        comm.sendrecv(2, 3, None, nbytes=n2)
        op.wait()
        assert comm.stats.p2p_messages == 2
        assert comm.stats.p2p_bytes == pytest.approx(n1 + n2)
        assert comm.stats.total_comm_time == pytest.approx(2 * t1 + 2 * t2)

    def test_ialltoall_data_before_clocks(self):
        comm = SimComm(3, SLINGSHOT_11)
        matrix = [[(s, d) for d in range(3)] for s in range(3)]
        out, op = comm.ialltoall(matrix, nbytes_per_pair=4096)
        assert out[2][0] == (0, 2)  # staged immediately for overlap
        assert comm.elapsed == 0.0  # but simulated time hasn't moved
        comm.advance_all(1e-9)
        op.wait()
        assert comm.elapsed > 1e-9
        assert comm.stats.collectives == 1


class TestRankFailure:
    """ULFM-style detection: failures surface at the next touching op."""

    def test_collective_raises_after_fail_rank(self):
        from repro.mpisim import RankFailedError

        comm = SimComm(4, SLINGSHOT_11)
        comm.fail_rank(2)
        with pytest.raises(RankFailedError) as exc:
            comm.allreduce([1.0] * 4, nbytes=8)
        assert exc.value.ranks == (2,)

    def test_p2p_only_fails_if_it_touches_the_dead_rank(self):
        from repro.mpisim import RankFailedError

        comm = SimComm(4, SLINGSHOT_11)
        comm.fail_rank(3)
        comm.sendrecv(0, 1, "ok", nbytes=64)  # disjoint pair still works
        with pytest.raises(RankFailedError):
            comm.sendrecv(0, 3, "dead", nbytes=64)
        with pytest.raises(RankFailedError):
            comm.isendrecv(3, 1, nbytes=64)

    def test_restore_rank_rejoins_at_the_frontier(self):
        comm = SimComm(4, SLINGSHOT_11)
        comm.advance(1, 7.0)
        comm.fail_rank(0)
        comm.restore_rank(0)
        # the replacement rank cannot restart in the past
        assert comm.clocks[0] == pytest.approx(7.0)
        comm.barrier()  # and the communicator is whole again

    def test_fail_rank_validation(self):
        comm = SimComm(2, SLINGSHOT_11)
        with pytest.raises(CommError):
            comm.fail_rank(5)
        with pytest.raises(CommError):
            comm.restore_rank(-1)


class TestShrinkAgree:
    """ULFM-style fault-tolerant collectives: agree and shrink."""

    def test_agree_never_raises_and_names_the_dead(self):
        comm = SimComm(6, SLINGSHOT_11)
        comm.fail_rank(2)
        comm.fail_rank(4)
        agreed, failed = comm.agree()
        assert bool(agreed) is True
        assert failed == (2, 4)
        # and it still costs a collective on the survivors' clocks
        assert comm.elapsed > 0.0
        assert comm.clocks[2] == 0.0  # the dead don't participate

    def test_agree_reduces_over_survivors_only(self):
        comm = SimComm(4, SLINGSHOT_11)
        comm.fail_rank(1)
        values = [7, 999, 3, 5]  # rank 1's poisoned entry must be ignored
        agreed, failed = comm.agree(values, op=min)
        assert agreed == 3
        assert failed == (1,)

    def test_agree_validation(self):
        comm = SimComm(3, SLINGSHOT_11)
        with pytest.raises(CommError):
            comm.agree([1, 2])  # wrong length
        for r in range(3):
            comm.fail_rank(r)
        with pytest.raises(CommError):
            comm.agree()  # nobody left to agree

    def test_shrink_renumbers_survivors_in_order(self):
        comm = SimComm(5, SLINGSHOT_11)
        comm.advance(3, 2.5)
        comm.fail_rank(0)
        comm.fail_rank(2)
        sub = comm.shrink()
        assert sub.nranks == 3
        assert sub.parent_ranks == (1, 3, 4)
        # old rank 3 (now new rank 1) carried its clock through the
        # shrink consensus, which synchronizes the survivor group
        assert sub.elapsed >= 2.5
        sub.barrier()  # fully functional communicator

    def test_shrink_of_healthy_comm_is_identity(self):
        comm = SimComm(4, SLINGSHOT_11)
        sub = comm.shrink()
        assert sub.nranks == 4
        assert sub.parent_ranks == (0, 1, 2, 3)

    def test_repeated_failures_shrink_down_to_one(self):
        comm = SimComm(4, SLINGSHOT_11)
        lineage = [comm]
        while comm.nranks > 1:
            comm.fail_rank(comm.nranks - 1)
            comm = comm.shrink()
            lineage.append(comm)
        assert [c.nranks for c in lineage] == [4, 3, 2, 1]
        # a single-rank communicator still "collects"
        comm.barrier()
        assert comm.allreduce([42.0], nbytes=8) is not None

    def test_rank_zero_failure_promotes_rank_one(self):
        comm = SimComm(3, SLINGSHOT_11)
        comm.fail_rank(0)
        sub = comm.shrink()
        assert sub.nranks == 2
        assert sub.parent_ranks == (1, 2)
        sub.sendrecv(0, 1, "root moved", nbytes=64)

    def test_shrink_pays_the_agree_collective(self):
        comm = SimComm(8, SLINGSHOT_11)
        before = comm.stats.collectives
        comm.fail_rank(5)
        comm.shrink()
        assert comm.stats.collectives == before + 1

    def test_dead_ranks_stay_dead_across_collectives_until_shrink(self):
        from repro.mpisim import RankFailedError

        comm = SimComm(4, SLINGSHOT_11)
        comm.fail_rank(1)
        with pytest.raises(RankFailedError):
            comm.allreduce([1.0] * 4, nbytes=8)
        sub = comm.shrink()
        sub.allreduce([1.0] * 3, nbytes=8)  # survivors carry on


class TestDegradationSurvivesSubcomms:
    """An open ``degrade_link`` window is a property of the fabric, so the
    communicators ``shrink`` and ``split`` build keep pricing through it."""

    @staticmethod
    def _price(comm, nbytes=float(1 << 20)):
        t0 = comm.elapsed
        comm.allreduce([0.0] * comm.nranks, nbytes)
        return comm.elapsed - t0

    def _degraded(self, nranks):
        """The allreduce price on a fresh comm under the same window."""
        fresh = SimComm(nranks, SLINGSHOT_11)
        fresh.degrade_link(10.0, 100.0)
        return self._price(fresh)

    def test_shrink_keeps_open_window(self):
        comm = SimComm(8, SLINGSHOT_11)
        healthy = self._price(SimComm(7, SLINGSHOT_11))
        comm.degrade_link(10.0, 100.0)
        comm.fail_rank(3)
        sub = comm.shrink()
        assert self._price(sub) == pytest.approx(self._degraded(7), rel=1e-9)
        assert self._price(sub) > 5 * healthy
        sub.advance_all(200.0)  # the window expires on the child's clock
        assert self._price(sub) == pytest.approx(healthy, rel=1e-9)

    def test_split_children_keep_open_window(self):
        comm = SimComm(8, SLINGSHOT_11)
        comm.degrade_link(10.0, 100.0)
        for sub in comm.split(lambda r: r % 2).values():
            assert self._price(sub) == pytest.approx(self._degraded(4),
                                                     rel=1e-9)

    def test_modelled_shrink_keeps_open_window(self):
        part = RankGroupPartitioner("endpoints").partition(16)
        comm = SimComm(16, SLINGSHOT_11, partition=part)
        comm.degrade_link(10.0, 100.0)
        comm.fail_rank(5)
        sub = comm.shrink()
        assert sub.nranks == 3 and sub.machine_ranks == 15
        assert self._price(sub) == pytest.approx(self._degraded(15),
                                                 rel=1e-9)
