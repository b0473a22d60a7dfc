"""Resilience subsystem: snapshots, fault injection, recovery, Young/Daly.

The subsystem's contract is exactness: because every app is
deterministic and every snapshot is bit-exact, a fault-injected campaign
must finish in *the same bits* as a failure-free one.  These tests pin
that contract (including property-based round-trips over every
Checkpointable), the fault process's determinism, the runner's
accounting identity, and the Young/Daly sweet spot against a measured
overhead-vs-interval curve.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amr import AmrHierarchy, Box
from repro.apps.exasky import ExaskyCampaign
from repro.apps.pele import PeleChemistryCampaign
from repro.gpu.device import Device
from repro.hardware.gpu import MI250X_GCD
from repro.hardware.interconnect import SLINGSHOT_11
from repro.hydro.reacting import ignition_demo
from repro.mpisim import RankFailedError, SimComm
from repro.ode import BatchedBdfIntegrator
from repro.resilience import (
    CheckpointCostModel,
    DeviceOomFault,
    FaultInjector,
    FaultKind,
    RankFailureFault,
    ResilienceError,
    ResilientRunner,
    Snapshot,
    SnapshotError,
    daly_expected_runtime,
    decode_snapshot,
    encode_snapshot,
    machine_checkpoint_cost,
    optimal_interval_for_machine,
    predicted_overhead,
    snapshot_checksum,
    snapshot_equal,
    system_mtbf,
    young_daly_interval,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


# -- snapshot codec -------------------------------------------------------------


class TestSnapshotCodec:
    def test_round_trip_every_type(self):
        payload = {
            "i": -42,
            "f": 3.14159,
            "b": True,
            "s": "héllo",
            "y": b"\x00\xffraw",
            "none": None,
            "arr_f8": np.linspace(0, 1, 7),
            "arr_i8": np.arange(12, dtype=np.int64).reshape(3, 4),
            "arr_bool": np.array([True, False, True]),
            "arr_0d": np.float64(2.5) * np.ones(()),
            "nested": {"list": [1, 2.0, "three"], "tuple": (4, None)},
        }
        snap = Snapshot("test.kind", 3, payload)
        out = decode_snapshot(encode_snapshot(snap))
        assert out.kind == "test.kind" and out.version == 3
        assert out.payload["i"] == -42
        assert out.payload["s"] == "héllo"
        assert out.payload["y"] == b"\x00\xffraw"
        assert out.payload["none"] is None
        np.testing.assert_array_equal(out.payload["arr_i8"],
                                      payload["arr_i8"])
        assert out.payload["arr_i8"].dtype == np.int64
        assert out.payload["nested"]["tuple"] == (4, None)
        assert snapshot_equal(snap, out)

    def test_encoding_is_deterministic_and_key_order_free(self):
        a = Snapshot("k", 1, {"x": 1, "y": np.ones(3)})
        b = Snapshot("k", 1, {"y": np.ones(3), "x": 1})
        assert encode_snapshot(a) == encode_snapshot(b)
        assert snapshot_checksum(encode_snapshot(a)) == snapshot_checksum(
            encode_snapshot(b))

    def test_checksum_sees_single_bit_changes(self):
        blob = encode_snapshot(Snapshot("k", 1, {"x": np.zeros(8)}))
        tampered = blob[:-1] + bytes([blob[-1] ^ 1])
        assert snapshot_checksum(blob) != snapshot_checksum(tampered)

    def test_trailing_garbage_rejected(self):
        blob = encode_snapshot(Snapshot("k", 1, {"x": 1}))
        with pytest.raises(SnapshotError):
            decode_snapshot(blob + b"\x00")

    def test_truncation_rejected(self):
        blob = encode_snapshot(Snapshot("k", 1, {"x": np.arange(100)}))
        with pytest.raises(SnapshotError):
            decode_snapshot(blob[:-5])

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError):
            decode_snapshot(b"NOPE" + b"\x00" * 64)

    @given(st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.integers(min_value=-2**62, max_value=2**62),
            st.floats(allow_nan=False),
            st.booleans(),
            st.text(max_size=16),
            st.binary(max_size=16),
            st.none(),
            st.lists(st.integers(min_value=-100, max_value=100), max_size=4),
        ),
        max_size=6,
    ))
    @settings(max_examples=50, deadline=None)
    def test_property_round_trip(self, payload):
        snap = Snapshot("prop.kind", 1, payload)
        blob = encode_snapshot(snap)
        out = decode_snapshot(blob)
        assert encode_snapshot(out) == blob
        assert out.payload == payload


# -- Checkpointable round-trips -------------------------------------------------


def _exasky(seed, steps):
    app = ExaskyCampaign(nparticles=128, seed=seed)
    for _ in range(steps):
        app.step()
    return app


def _amr(seed, steps):
    h = AmrHierarchy(Box(lo=(0, 0, 0), hi=(15, 15, 15)), max_levels=2 + steps % 2,
                     max_grid_size=8)
    h.regrid(lambda b: b.lo[0] < 8 + seed % 8)
    return h


def _reacting(seed, steps):
    return ignition_demo(12 + seed % 4, steps=steps)


def _pele(seed, steps):
    app = PeleChemistryCampaign(ncells=4, seed=seed)
    for _ in range(steps):
        app.step()
    return app


class TestCheckpointableRoundTrips:
    """restore(snapshot(x)) is bit-identical for every implementer."""

    @given(seed=st.integers(min_value=0, max_value=10),
           steps=st.integers(min_value=0, max_value=2))
    @settings(max_examples=15, deadline=None)
    def test_exasky_round_trip(self, seed, steps):
        self._assert_round_trip(_exasky(seed, steps), _exasky(seed + 1, 0))

    @given(seed=st.integers(min_value=0, max_value=10),
           steps=st.integers(min_value=0, max_value=2))
    @settings(max_examples=10, deadline=None)
    def test_amr_round_trip(self, seed, steps):
        self._assert_round_trip(_amr(seed, steps), _amr(seed + 1, 0))

    @given(seed=st.integers(min_value=0, max_value=4),
           steps=st.integers(min_value=0, max_value=1))
    @settings(max_examples=4, deadline=None)
    def test_reacting_flow_round_trip(self, seed, steps):
        self._assert_round_trip(_reacting(seed, steps), _reacting(seed + 1, 0))

    @given(seed=st.integers(min_value=0, max_value=4),
           steps=st.integers(min_value=0, max_value=1))
    @settings(max_examples=4, deadline=None)
    def test_pele_campaign_round_trip(self, seed, steps):
        self._assert_round_trip(_pele(seed, steps), _pele(seed + 1, 0))

    @staticmethod
    def _assert_round_trip(original, other):
        """Serialize *original*, restore into *other* (a differently
        initialized instance), and require byte-for-byte equality."""
        blob = encode_snapshot(original.snapshot())
        other.restore(decode_snapshot(blob))
        assert encode_snapshot(other.snapshot()) == blob

    def test_restore_rejects_wrong_kind(self):
        app = ExaskyCampaign(nparticles=16, seed=0)
        with pytest.raises(SnapshotError):
            app.restore(Snapshot("apps.pele.campaign", 1, {}))

    def test_restore_rejects_wrong_version(self):
        app = ExaskyCampaign(nparticles=16, seed=0)
        snap = app.snapshot()
        bad = Snapshot(snap.kind, snap.version + 1, snap.payload)
        with pytest.raises(SnapshotError):
            app.restore(bad)


def _stiff_batch_integrator():
    k = np.array([[5.0, 80.0], [300.0, 1.5], [40.0, 40.0]])  # (B=3, n=2)

    def rhs(t, y):
        return -k * y

    def jac(t, y):
        B, n = y.shape
        J = np.zeros((B, n, n))
        J[:, 0, 0] = -k[:, 0]
        J[:, 1, 1] = -k[:, 1]
        return J

    return BatchedBdfIntegrator(rhs, jac=jac, rtol=1e-7, atol=1e-12)


def _step_to_mixed_orders(integ, state) -> None:
    """Advance until the cells hold at least two distinct BDF orders, so
    a snapshot there carries per-cell difference arrays of different
    effective lengths."""
    while len(np.unique(state.order)) < 2:
        assert not state.finished, "cells never held two distinct orders"
        integ.step_round(state)


class TestMidIntegrationCheckpoint:
    """The Jacobian/LU-reuse caches survive a checkpoint bit-exactly."""

    @given(nrounds=st.integers(min_value=0, max_value=12),
           seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_batched_bdf_state_round_trip(self, nrounds, seed):
        rng = np.random.default_rng(seed)
        y0 = rng.uniform(0.5, 2.0, (3, 2))
        integ = _stiff_batch_integrator()
        state = integ.start(y0, 0.0, 1.0)
        # pause on the nrounds-th later round that still has mixed orders
        _step_to_mixed_orders(integ, state)
        for _ in range(nrounds):
            integ.step_round(state)
            _step_to_mixed_orders(integ, state)
        assert len(np.unique(state.order)) >= 2
        blob = encode_snapshot(state.snapshot())
        fresh = _stiff_batch_integrator().start(y0 * 0.0 + 1.0, 0.0, 2.0)
        fresh.restore(decode_snapshot(blob))
        assert encode_snapshot(fresh.snapshot()) == blob

    def test_resume_after_restore_matches_uninterrupted(self):
        y0 = np.array([[1.0, 2.0], [0.5, 1.5], [2.0, 0.25]])
        integ = _stiff_batch_integrator()
        reference = integ.integrate(y0, 0.0, 1.0)

        interrupted = _stiff_batch_integrator()
        state = interrupted.start(y0, 0.0, 1.0)
        _step_to_mixed_orders(interrupted, state)
        assert len(np.unique(state.order)) >= 2
        blob = encode_snapshot(state.snapshot())

        resumed = _stiff_batch_integrator()
        rstate = resumed.start(np.ones_like(y0), 0.0, 99.0)
        rstate.restore(decode_snapshot(blob))
        while not rstate.finished:
            resumed.step_round(rstate)
        res = rstate.result()
        np.testing.assert_array_equal(res.y, reference.y)
        np.testing.assert_array_equal(res.t, reference.t)
        assert res.stats.steps == reference.stats.steps
        assert res.stats.cells_refactored == reference.stats.cells_refactored


# -- fault injector -------------------------------------------------------------


class TestFaultInjector:
    def test_requires_explicit_generator(self):
        with pytest.raises(TypeError):
            FaultInjector(rng=1234, mtbf={FaultKind.RANK_FAILURE: 10.0})

    def test_schedule_is_a_pure_function_of_seed(self):
        def schedule(n):
            inj = FaultInjector(
                rng=np.random.default_rng(7),
                mtbf={FaultKind.RANK_FAILURE: 5.0,
                      FaultKind.LINK_DEGRADATION: 3.0},
            )
            return [inj.pop() for _ in range(n)]

        assert schedule(20) == schedule(20)

    def test_events_arrive_in_time_order(self):
        inj = FaultInjector(
            rng=np.random.default_rng(0),
            mtbf={FaultKind.RANK_FAILURE: 2.0, FaultKind.DEVICE_OOM: 3.0,
                  FaultKind.LINK_DEGRADATION: 1.0},
        )
        times = [inj.pop().time for _ in range(50)]
        assert times == sorted(times)

    def test_mean_gap_tracks_mtbf(self):
        mtbf = 4.0
        inj = FaultInjector(rng=np.random.default_rng(1),
                            mtbf={FaultKind.RANK_FAILURE: mtbf})
        times = [inj.pop().time for _ in range(2000)]
        gaps = np.diff([0.0] + times)
        assert np.mean(gaps) == pytest.approx(mtbf, rel=0.1)

    def test_rank_failure_fires_through_comm(self):
        comm = SimComm(4, SLINGSHOT_11)
        inj = FaultInjector(rng=np.random.default_rng(0),
                            mtbf={FaultKind.RANK_FAILURE: 1.0},
                            max_target=4)
        event = inj.pop()
        with pytest.raises(RankFailureFault):
            inj.fire(event, comm=comm)
        with pytest.raises(RankFailedError):
            comm.barrier()
        inj.clear(comm=comm)
        comm.barrier()  # everyone is back

    def test_device_oom_fires_through_device(self):
        device = Device(MI250X_GCD)
        inj = FaultInjector(rng=np.random.default_rng(0),
                            mtbf={FaultKind.DEVICE_OOM: 1.0})
        event = inj.pop()
        with pytest.raises(DeviceOomFault):
            inj.fire(event, device=device)
        inj.clear(device=device)
        alloc = device.malloc(1 << 20)  # heap usable again
        device.free(alloc)


# -- the runner -----------------------------------------------------------------


class CountingApp:
    """Deterministic toy app: a counter plus a rolling hash-like array."""

    snapshot_kind = "test.counting"
    snapshot_version = 1

    def __init__(self, step_cost=1.0):
        self.count = 0
        self.x = np.zeros(4)
        self.step_cost = float(step_cost)

    def step(self):
        self.count += 1
        self.x = np.cos(self.x + self.count)
        return self.step_cost

    def snapshot(self):
        return Snapshot(self.snapshot_kind, self.snapshot_version,
                        {"count": self.count, "x": self.x})

    def restore(self, snap):
        self.count = snap.payload["count"]
        self.x = snap.payload["x"].copy()


class TestResilientRunner:
    def test_clean_run_accounting(self):
        cost = CheckpointCostModel(latency=0.5, restart_cost=10.0)
        app = CountingApp()
        stats = ResilientRunner(app, checkpoint_interval=3,
                                cost_model=cost).run(10)
        assert app.count == 10
        assert stats.steps_completed == 10
        assert stats.steps_replayed == 0
        assert stats.recoveries == 0
        assert stats.useful_time == pytest.approx(10.0)
        # checkpoints at steps 0, 3, 6, 9, 10
        assert stats.checkpoints_written == 5
        assert stats.wall_clock == pytest.approx(
            stats.useful_time + stats.checkpoint_time)

    def test_accounting_identity_under_failures(self):
        inj = FaultInjector(rng=np.random.default_rng(5),
                            mtbf={FaultKind.RANK_FAILURE: 7.0})
        stats = ResilientRunner(
            CountingApp(), checkpoint_interval=4, injector=inj,
            cost_model=CheckpointCostModel(latency=0.1, restart_cost=1.0),
            max_retries=50, backoff_base=0.0,
        ).run(30)
        assert stats.recoveries >= 1
        assert stats.overhead_time == pytest.approx(
            stats.checkpoint_time + stats.lost_work_time
            + stats.recovery_time + stats.degraded_time)
        assert stats.inflation > 1.0

    def test_fault_injected_run_bit_identical_to_clean(self):
        def run(injector):
            app = CountingApp()
            ResilientRunner(
                app, checkpoint_interval=5, injector=injector,
                cost_model=CheckpointCostModel(latency=0.2, restart_cost=2.0),
                max_retries=50, backoff_base=0.0,
            ).run(40)
            return app

        clean = run(None)
        inj = FaultInjector(rng=np.random.default_rng(11),
                            mtbf={FaultKind.RANK_FAILURE: 15.0,
                                  FaultKind.DEVICE_OOM: 25.0})
        faulty = run(inj)
        assert snapshot_equal(clean.snapshot(), faulty.snapshot())

    def test_degradation_slows_but_never_rolls_back(self):
        inj = FaultInjector(rng=np.random.default_rng(3),
                            mtbf={FaultKind.LINK_DEGRADATION: 5.0})
        app = CountingApp()
        stats = ResilientRunner(app, checkpoint_interval=5, injector=inj,
                                cost_model=CheckpointCostModel()).run(30)
        assert stats.degradations_seen >= 1
        assert stats.degraded_time > 0.0
        assert stats.recoveries == 0
        assert stats.steps_replayed == 0
        assert app.count == 30

    def test_retry_exhaustion_raises(self):
        inj = FaultInjector(rng=np.random.default_rng(0),
                            mtbf={FaultKind.RANK_FAILURE: 1e-3})
        with pytest.raises(ResilienceError):
            ResilientRunner(CountingApp(), checkpoint_interval=2,
                            injector=inj, max_retries=3).run(10)

    def test_torn_checkpoint_falls_back_a_generation(self):
        from repro.resilience.runner import ResilienceStats

        app = CountingApp()
        runner = ResilientRunner(app, checkpoint_interval=1)
        stats = ResilienceStats()
        runner._write_checkpoint(0, stats)
        app.step()
        runner._write_checkpoint(1, stats)
        # torn write: the newest blob no longer matches its checksum
        runner._checkpoints[-1].blob = runner._checkpoints[-1].blob[:-1] + b"\x00"
        step, _ = runner._restore_latest_valid(stats)
        assert step == 0
        assert app.count == 0

    def test_snapshot_retention_is_bounded(self):
        app = CountingApp()
        runner = ResilientRunner(app, checkpoint_interval=1, keep_snapshots=2)
        runner.run(10)
        assert len(runner._checkpoints) == 2

    def test_campaign_time_lands_on_comm_clocks(self):
        comm = SimComm(4, SLINGSHOT_11)
        stats = ResilientRunner(CountingApp(), checkpoint_interval=5,
                                comm=comm).run(10)
        assert comm.elapsed == pytest.approx(stats.wall_clock)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ResilientRunner(CountingApp(), checkpoint_interval=0)
        with pytest.raises(ValueError):
            ResilientRunner(CountingApp(), checkpoint_interval=1,
                            max_retries=0)
        with pytest.raises(ValueError):
            ResilientRunner(CountingApp(), checkpoint_interval=1).run(0)


# -- Young/Daly -----------------------------------------------------------------


class TestYoungDaly:
    def test_interval_formula(self):
        assert young_daly_interval(2.0, 10000.0) == pytest.approx(200.0)
        with pytest.raises(ValueError):
            young_daly_interval(0.0, 1.0)
        with pytest.raises(ValueError):
            young_daly_interval(1.0, -1.0)

    def test_system_mtbf_composes_over_nodes(self):
        from repro.hardware.catalog import FRONTIER
        assert system_mtbf(FRONTIER, node_mtbf=FRONTIER.nodes * 3600.0) == (
            pytest.approx(3600.0))

    def test_predicted_overhead_has_an_interior_minimum(self):
        delta, mtbf = 5.0, 3600.0
        w_opt = young_daly_interval(delta, mtbf)
        at_opt = predicted_overhead(w_opt, delta, mtbf)
        assert predicted_overhead(w_opt / 8, delta, mtbf) > at_opt
        assert predicted_overhead(w_opt * 8, delta, mtbf) > at_opt

    def test_daly_runtime_reduces_to_solve_time_without_failures(self):
        # MTBF -> infinity: expected runtime -> Ts * (W + delta)/W
        t = daly_expected_runtime(1000.0, 100.0, 1.0, 1e12)
        assert t == pytest.approx(1000.0 * 101.0 / 100.0, rel=1e-4)

    def test_machine_cost_model_uses_the_fabric(self):
        from repro.hardware.catalog import FRONTIER, SUMMIT
        nbytes = 16 << 30  # a PeleC-plotfile-scale node checkpoint
        frontier = machine_checkpoint_cost(FRONTIER, nbytes)
        summit = machine_checkpoint_cost(SUMMIT, nbytes)
        # Slingshot-11 per-node injection beats Summit's dual-rail EDR
        assert frontier.write_time(nbytes) < summit.write_time(nbytes)
        w = optimal_interval_for_machine(FRONTIER, nbytes)
        assert 60.0 < w < 24 * 3600.0  # minutes-to-hours, not ms or weeks

    def test_measured_optimum_matches_young_daly(self):
        """Acceptance: sweep checkpoint intervals under a seeded failure
        process; the measured overhead minimum must land within 2x of
        the predicted W*."""
        mtbf, delta_target = 500.0, 2.0
        cost = CheckpointCostModel(latency=delta_target, restart_cost=1.0,
                                   write_bandwidth=1e15, read_bandwidth=1e15)
        w_opt = young_daly_interval(delta_target, mtbf)  # ~44.7 s = steps
        grid = [11, 22, 45, 90, 180]
        nsteps, nseeds = 1200, 8

        mean_overhead = {}
        for interval in grid:
            fracs = []
            for trial in range(nseeds):
                inj = FaultInjector(rng=np.random.default_rng(1000 + trial),
                                    mtbf={FaultKind.RANK_FAILURE: mtbf})
                stats = ResilientRunner(
                    CountingApp(), checkpoint_interval=interval,
                    injector=inj, cost_model=cost, max_retries=100,
                    backoff_base=0.0,
                ).run(nsteps)
                fracs.append(stats.overhead_fraction)
            mean_overhead[interval] = float(np.mean(fracs))

        best = min(mean_overhead, key=mean_overhead.get)
        assert w_opt / 2 <= best <= w_opt * 2, (
            f"measured optimum {best} steps vs Young/Daly {w_opt:.1f}: "
            f"{mean_overhead}")


# -- the paper campaign through the runner --------------------------------------


class TestFigure2Resilient:
    def test_campaign_survives_and_replays_exactly(self):
        from repro.experiments.figure2 import run_figure2_resilient

        result = run_figure2_resilient(nsteps=6, checkpoint_interval=2,
                                       ncells=6, mtbf=5.0, seed=0)
        checks = result.checks()
        assert all(checks.values()), checks
        assert result.stats.steps_completed == 6
        assert "bit-identical" in result.render()


# -- determinism audit ----------------------------------------------------------


class TestDeterminismAudit:
    """No ambient randomness: every stochastic component is seeded."""

    #: construction APIs that are fine at any scope — they take a seed
    _ALLOWED = {"default_rng", "Generator", "SeedSequence", "PCG64",
                "Philox", "SFC64", "BitGenerator"}

    def _np_random_uses(self, tree):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "random"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in {"np", "numpy"}):
                yield node

    def test_no_unseeded_numpy_random_under_src(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in self._np_random_uses(tree):
                if node.attr not in self._ALLOWED:
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                     f"np.random.{node.attr}")
        assert not offenders, (
            "unseeded/global numpy randomness in src/:\n  "
            + "\n  ".join(offenders))

    def test_no_stdlib_random_module_under_src(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = (
                        [a.name for a in node.names]
                        if isinstance(node, ast.Import)
                        else [node.module or ""]
                    )
                    if "random" in names:
                        offenders.append(
                            f"{path.relative_to(SRC)}:{node.lineno}")
        assert not offenders, (
            "stdlib `random` imported in src/ (unseedable ambient state):\n  "
            + "\n  ".join(offenders))

    #: modules whose span timestamps must be simulated/ordinal time only.
    #: (Benchmarks inject ``time.perf_counter`` *into* the tracer from
    #: outside; the instrumented substrates themselves never touch the
    #: wall clock, so two seeded runs export byte-identical traces.)
    _SIM_TIME_MODULES = (
        "observability", "mpisim", "resilience", "ode", "similarity",
        "gpu", "experiments", "service", "tuning",
    )

    def test_no_wall_clock_in_sim_time_span_modules(self):
        offenders = []
        for module in self._SIM_TIME_MODULES:
            for path in sorted((SRC / "repro" / module).rglob("*.py")):
                tree = ast.parse(path.read_text(), filename=str(path))
                for node in ast.walk(tree):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        names = (
                            [a.name for a in node.names]
                            if isinstance(node, ast.Import)
                            else [node.module or ""]
                        )
                        if any(n == "time" or n.startswith("time.")
                               for n in names):
                            offenders.append(
                                f"{path.relative_to(SRC)}:{node.lineno}")
        assert not offenders, (
            "wall-clock import in a sim-time span module (span timestamps "
            "must come from simulated clocks or the deterministic tick; "
            "benchmarks inject perf_counter from outside):\n  "
            + "\n  ".join(offenders))


# -- elastic redistribution planning --------------------------------------------


class TestElasticPlan:
    def test_plan_conserves_every_item(self):
        from repro.resilience import plan_shrink

        plan = plan_shrink(100, survivors=[0, 1, 2], old_nranks=4,
                           bytes_per_item=16.0)
        assert plan.new_nranks == 3
        # the dead rank's block comes back from the checkpoint
        assert plan.reloaded_items == 25
        assert plan.send_items.sum() == plan.migrated_items
        assert plan.migrated_items + plan.reloaded_items <= 100
        assert plan.migrated_bytes == plan.migrated_items * 16.0
        assert plan.reloaded_bytes == 25 * 16.0

    def test_no_failures_means_no_motion(self):
        from repro.resilience import plan_shrink

        plan = plan_shrink(64, survivors=range(8), old_nranks=8)
        assert plan.migrated_items == 0
        assert plan.reloaded_items == 0

    def test_plan_validation(self):
        from repro.mpisim.decomposition import DecompositionError
        from repro.resilience import plan_shrink

        with pytest.raises(DecompositionError):
            plan_shrink(10, survivors=[], old_nranks=4)
        with pytest.raises(DecompositionError):
            plan_shrink(10, survivors=[1, 1], old_nranks=4)
        with pytest.raises(DecompositionError):
            plan_shrink(10, survivors=[5], old_nranks=4)

    def test_redistribute_charges_the_shrunk_comm(self):
        from repro.resilience import plan_shrink, redistribute

        plan = plan_shrink(4096, survivors=[0, 1, 2], old_nranks=4,
                           bytes_per_item=1024.0)
        comm = SimComm(3, SLINGSHOT_11)
        dt = redistribute(comm, plan)
        assert dt > 0.0
        assert comm.elapsed == pytest.approx(dt)

    def test_redistribute_rejects_wrong_width(self):
        from repro.mpisim.decomposition import DecompositionError
        from repro.resilience import plan_shrink, redistribute

        plan = plan_shrink(10, survivors=[0, 1], old_nranks=4)
        with pytest.raises(DecompositionError):
            redistribute(SimComm(4, SLINGSHOT_11), plan)

    def test_shrink_and_redistribute_end_to_end(self):
        from repro.resilience import shrink_and_redistribute

        app = ExaskyCampaign(nparticles=512, seed=0)
        comm = SimComm(8, SLINGSHOT_11)
        comm.fail_rank(3)
        new_comm, plan, dt = shrink_and_redistribute(app, comm)
        assert new_comm.nranks == 7
        assert new_comm.parent_ranks == (0, 1, 2, 4, 5, 6, 7)
        assert plan is not None and plan.reloaded_items == 64
        assert dt >= 0.0

    def test_apps_advertise_their_domains(self):
        from repro.resilience import DomainSpec, domain_of

        assert domain_of(ExaskyCampaign(nparticles=64, seed=0)).nitems == 64
        pele = domain_of(PeleChemistryCampaign(ncells=4, seed=0))
        assert pele.nitems == 4 and pele.label == "cells"
        h = AmrHierarchy(Box(lo=(0, 0, 0), hi=(15, 15, 15)), max_grid_size=8)
        spec = domain_of(h)
        assert spec.label == "boxes" and spec.nitems == len(h.levels[0].boxes)
        assert domain_of(object()) is None  # not elastic: fine

        class Liar:
            def elastic_domain(self):
                return 42

        with pytest.raises(TypeError):
            domain_of(Liar())
        with pytest.raises(ValueError):
            DomainSpec(nitems=-1, bytes_per_item=8.0)


# -- recovery policies ----------------------------------------------------------


def _policy_campaign(policy, *, nsteps=24, mtbf=0.3, seed=7):
    from repro.hardware.interconnect import SLINGSHOT_11 as fabric

    app = ExaskyCampaign(nparticles=256, seed=3)
    comm = SimComm(8, fabric)
    inj = FaultInjector(rng=np.random.default_rng(seed),
                        mtbf={FaultKind.RANK_FAILURE: mtbf})
    runner = ResilientRunner(
        app, checkpoint_interval=4, injector=inj, comm=comm,
        cost_model=CheckpointCostModel(restart_cost=0.02),
        policy=policy, backoff_base=0.0, max_retries=50,
    )
    stats = runner.run(nsteps)
    return app, stats, runner


def _failure_free_reference(nsteps=24):
    app = ExaskyCampaign(nparticles=256, seed=3)
    for _ in range(nsteps):
        app.step()
    return app


class TestRecoveryPolicies:
    def test_make_policy_resolves_all_names(self):
        from repro.resilience import (
            RestartPolicy,
            ShrinkContinuePolicy,
            SpareSwapPolicy,
            make_policy,
        )

        assert isinstance(make_policy("restart"), RestartPolicy)
        assert isinstance(make_policy("shrink"), ShrinkContinuePolicy)
        assert isinstance(make_policy("shrink-continue"), ShrinkContinuePolicy)
        assert isinstance(make_policy("spare"), SpareSwapPolicy)
        assert isinstance(make_policy("spare-swap"), SpareSwapPolicy)
        with pytest.raises(ValueError):
            make_policy("pray")

    def test_make_policy_forwards_kwargs(self):
        from repro.resilience import make_policy

        policy = make_policy("spare", spares=4, activation_cost=0.005)
        assert policy.spares == 4
        assert policy.activation_cost == 0.005

        class _Pool:
            def try_acquire(self, purpose):
                return True

        pool = _Pool()
        shared = make_policy("spare_swap", pool=pool)  # underscores OK
        assert shared.pool is pool

    def test_make_policy_rejects_bad_kwargs(self):
        from repro.resilience import make_policy

        with pytest.raises(ValueError, match="bad arguments"):
            make_policy("restart", spares=4)
        with pytest.raises(ValueError, match="bad arguments"):
            make_policy("spare", warp_speed=9)

    def test_spare_pool_validation(self):
        from repro.resilience import SpareSwapPolicy

        with pytest.raises(ValueError):
            SpareSwapPolicy(spares=-1)
        with pytest.raises(ValueError):
            SpareSwapPolicy(activation_cost=-1.0)

    def test_restart_recovers_at_full_width(self):
        reference = _failure_free_reference()
        app, stats, runner = _policy_campaign("restart")
        assert stats.recoveries >= 1
        assert stats.shrinks == 0
        assert stats.ranks_final == stats.ranks_initial == 8
        assert stats.degraded_throughput_time == 0.0
        assert np.array_equal(app.pos, reference.pos)
        assert np.array_equal(app.vel, reference.vel)

    def test_shrink_continue_finishes_bit_identical_without_restart(self):
        """The tentpole acceptance: shrink-continue completes the campaign
        on the survivors and ends in exactly the failure-free bits."""
        reference = _failure_free_reference()
        app, stats, runner = _policy_campaign("shrink")
        assert stats.recoveries >= 1
        assert stats.shrinks >= 1
        assert runner.comm.nranks == 8 - stats.shrinks
        assert stats.ranks_final == runner.comm.nranks
        # running narrower is slower: the haircut is accounted, and the
        # factor matches initial/current width
        assert stats.degraded_throughput_time > 0.0
        assert runner.throughput_factor == pytest.approx(8 / runner.comm.nranks)
        assert stats.migrated_bytes >= 0.0
        # and the answer is still *exactly* the answer
        assert np.array_equal(app.pos, reference.pos)
        assert np.array_equal(app.vel, reference.vel)
        assert app.steps_done == reference.steps_done

    def test_spare_swap_consumes_pool_then_shrinks(self):
        from repro.resilience import SpareSwapPolicy

        reference = _failure_free_reference()
        policy = SpareSwapPolicy(spares=1, activation_cost=0.005)
        app, stats, runner = _policy_campaign(policy)
        assert stats.spares_used >= 1
        assert policy.spares_left == 0
        if stats.recoveries > stats.spares_used:
            # pool ran dry: later failures degraded to shrink-continue
            assert stats.shrinks == stats.recoveries - stats.spares_used
        assert np.array_equal(app.pos, reference.pos)
        assert np.array_equal(app.vel, reference.vel)

    def test_accounting_identity_includes_throughput_haircut(self):
        _, stats, _ = _policy_campaign("shrink")
        assert stats.overhead_time == pytest.approx(
            stats.checkpoint_time + stats.lost_work_time
            + stats.recovery_time + stats.degraded_time
            + stats.degraded_throughput_time)

    def test_shrink_exhaustion_raises_resilience_error(self):
        with pytest.raises(ResilienceError):
            _policy_campaign("shrink", nsteps=200, mtbf=0.05)


# -- fault-event conservation ----------------------------------------------------


class TestEventConservation:
    def test_pop_fire_requeue_identity(self):
        inj = FaultInjector(rng=np.random.default_rng(2),
                            mtbf={FaultKind.RANK_FAILURE: 1.0,
                                  FaultKind.LINK_DEGRADATION: 1.0})
        fired, deferred = [], set()
        for _ in range(10):
            e = inj.pop()
            if e.kind is FaultKind.LINK_DEGRADATION and id(e) not in deferred:
                inj.requeue(e)  # comes back on the next pop, counted once
                deferred.add(id(e))
            else:
                try:
                    inj.fire(e)
                except Exception:
                    pass
                fired.append(e)
        inj.assert_conserved()
        assert inj.events_drawn == len(fired) + inj.events_pending_requeued

    def test_requeued_event_comes_back_without_redraw(self):
        inj = FaultInjector(rng=np.random.default_rng(3),
                            mtbf={FaultKind.RANK_FAILURE: 1.0})
        first = inj.pop()
        drawn_after_first = inj.events_drawn
        inj.requeue(first)
        again = inj.pop()
        assert again == first
        assert inj.events_drawn == drawn_after_first  # counted once
        try:
            inj.fire(again)
        except Exception:
            pass
        inj.assert_conserved()

    def test_dropped_event_is_an_accounting_error(self):
        inj = FaultInjector(rng=np.random.default_rng(4),
                            mtbf={FaultKind.RANK_FAILURE: 1.0})
        inj.pop()  # ... and silently forget it
        with pytest.raises(AssertionError, match="conservation"):
            inj.assert_conserved()

    def test_runner_stats_satisfy_conservation(self):
        inj = FaultInjector(rng=np.random.default_rng(5),
                            mtbf={FaultKind.RANK_FAILURE: 7.0,
                                  FaultKind.LINK_DEGRADATION: 9.0})
        stats = ResilientRunner(
            CountingApp(), checkpoint_interval=4, injector=inj,
            cost_model=CheckpointCostModel(latency=0.1, restart_cost=1.0),
            max_retries=50, backoff_base=0.0,
        ).run(30)
        assert stats.events_drawn > 0
        stats.assert_event_conservation()  # also asserted inside run()
        assert stats.events_drawn == stats.events_fired + (
            stats.events_requeued_pending)


# -- silent data corruption through the runner -----------------------------------


class GuardedApp(CountingApp):
    """CountingApp carrying a full redundant copy: 100% SDC detection."""

    snapshot_kind = "test.guarded"

    def __init__(self, step_cost=1.0):
        super().__init__(step_cost)
        self.x_ref = self.x.copy()

    def step(self):
        dt = super().step()
        self.x_ref = self.x.copy()
        return dt

    def restore(self, snap):
        super().restore(snap)
        self.x_ref = self.x.copy()

    def sdc_targets(self):
        return [self.x]  # the reference copy is never struck

    def validate_state(self):
        from repro.resilience import SdcDetected

        if self.x.view(np.uint64).tobytes() != self.x_ref.view(
                np.uint64).tobytes():
            raise SdcDetected("counting state diverged from its shadow")


class TestSdcThroughRunner:
    def test_guarded_app_detects_every_flip_and_replays_exactly(self):
        clean = GuardedApp()
        for _ in range(30):
            clean.step()

        app = GuardedApp()
        inj = FaultInjector(rng=np.random.default_rng(9),
                            mtbf={FaultKind.SDC: 6.0})
        stats = ResilientRunner(
            app, checkpoint_interval=5, injector=inj,
            cost_model=CheckpointCostModel(latency=0.1, restart_cost=1.0),
            max_retries=50, backoff_base=0.0,
        ).run(30)
        assert stats.sdc_injected >= 1
        assert stats.sdc_detected == stats.sdc_injected  # coverage: 100%
        assert stats.failures_by_kind.get("sdc") == stats.sdc_detected
        assert stats.recoveries == stats.sdc_detected
        assert stats.steps_replayed >= 1
        # every flip was caught before a checkpoint could absorb it
        assert app.count == clean.count
        assert app.x.tobytes() == clean.x.tobytes()

    def test_unguarded_app_checkpoints_the_corruption(self):
        """Without guards the flip rides on: the campaign 'succeeds' with
        a wrong answer — the measured danger ABFT exists to close."""
        clean = CountingApp()
        for _ in range(30):
            clean.step()

        app = CountingApp()  # has no sdc_targets/validate_state hooks
        inj = FaultInjector(rng=np.random.default_rng(9),
                            mtbf={FaultKind.SDC: 6.0})
        stats = ResilientRunner(
            app, checkpoint_interval=5, injector=inj,
            cost_model=CheckpointCostModel(latency=0.1, restart_cost=1.0),
            max_retries=50, backoff_base=0.0,
        ).run(30)
        # no live arrays were advertised, so nothing was struck — but the
        # events still fired and the books still balance
        assert stats.sdc_detected == 0
        assert stats.recoveries == 0
        stats.assert_event_conservation()
        assert app.count == clean.count

    def test_exasky_guards_catch_exponent_flips(self):
        from repro.resilience import SdcDetected, flip_bit

        app = ExaskyCampaign(nparticles=64, seed=1)
        app.step()
        app.validate_state()  # clean state passes
        flip_bit(app.pos, 17, 62)  # exponent-field strike
        with pytest.raises(SdcDetected):
            app.validate_state()

    def test_pele_guards_catch_nonphysical_state(self):
        from repro.resilience import SdcDetected

        app = PeleChemistryCampaign(ncells=4, seed=0)
        app.validate_state()
        app.T[2] = 1e12  # far outside any flame
        with pytest.raises(SdcDetected):
            app.validate_state()


# -- the final checkpoint's checksum ---------------------------------------------


def _independent_checksum(app):
    return snapshot_checksum(encode_snapshot(app.snapshot()))


class TestFinalChecksum:
    """``run`` always checkpoints at its last step, so the runner's stored
    checksum of that checkpoint must be the final state's own checksum."""

    @pytest.mark.parametrize("policy", ["restart", "shrink", "spare"])
    def test_matches_an_independent_encode_under_every_policy(self, policy):
        from repro.resilience import SpareSwapPolicy

        if policy == "spare":
            policy = SpareSwapPolicy(spares=1, activation_cost=0.005)
        app, stats, runner = _policy_campaign(policy)
        assert stats.recoveries >= 1
        assert runner.final_checksum == _independent_checksum(app)
        assert runner.final_checksum == _independent_checksum(
            _failure_free_reference())

    def test_matches_after_an_undetected_sdc(self):
        app = ExaskyCampaign(nparticles=64, seed=1)
        inj = FaultInjector(rng=np.random.default_rng(0),
                            mtbf={FaultKind.SDC: 0.03})
        runner = ResilientRunner(
            app, checkpoint_interval=4, injector=inj,
            cost_model=CheckpointCostModel(restart_cost=0.02),
            max_retries=50, backoff_base=0.0,
        )
        stats = runner.run(24)
        assert stats.sdc_injected > stats.sdc_detected
        assert runner.final_checksum == _independent_checksum(app)
        # the corruption rode on into the final state
        clean = ExaskyCampaign(nparticles=64, seed=1)
        for _ in range(24):
            clean.step()
        assert runner.final_checksum != _independent_checksum(clean)

    def test_raises_before_run(self):
        runner = ResilientRunner(CountingApp(), checkpoint_interval=2)
        with pytest.raises(ResilienceError, match="run\\(\\) has not completed"):
            runner.final_checksum

    def test_raises_after_a_failed_run(self):
        app = GuardedApp()
        inj = FaultInjector(rng=np.random.default_rng(9),
                            mtbf={FaultKind.SDC: 0.01})
        runner = ResilientRunner(app, checkpoint_interval=5, injector=inj,
                                 max_retries=1, backoff_base=0.0)
        with pytest.raises(ResilienceError):
            runner.run(30)
        with pytest.raises(ResilienceError, match="run\\(\\) has not completed"):
            runner.final_checksum
