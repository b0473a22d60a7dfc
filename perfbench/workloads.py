"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed alone, runs one
*iteration* of work inside the timed region, and checks its outputs
outside it:

* :meth:`Workload.iteration` is the timed body;
* :meth:`Workload.record` reduces an iteration's outputs to one exact,
  JSON-able record per operation (step counts, simulated times, output
  digests) — repeated iterations and runs of the same code and seed
  must reproduce it bit for bit;
* :meth:`Workload.check` compares one iteration's outputs against an
  independent oracle and returns the indices of the operations that
  failed.

``stresses``/``bypasses`` name the layers (``repro`` subpackages) a
workload exercises and never touches, so a change to one layer can name
the workload that should not move.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.apps import pele
from repro.backend import resolve_backend


def digest(*arrays: np.ndarray) -> str:
    """sha256 over the arrays' dtypes, shapes and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class Iteration:
    """What one timed iteration hands to the record, check and metrics."""

    outputs: object
    work: float  # units of the workload's throughput, per iteration
    timings: dict[str, list[float]] = field(default_factory=dict)


class Workload:
    name = ""
    work_unit = ""
    stresses: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()
    #: span names a traced iteration must contain
    required_spans: tuple[str, ...] = ()

    def iteration(self) -> Iteration:
        raise NotImplementedError

    def record(self, it: Iteration) -> list:
        raise NotImplementedError

    def check(self, it: Iteration) -> list[int]:
        raise NotImplementedError

    def layer_counts(self, it: Iteration) -> dict[str, float]:
        """Exact per-iteration counts the program reports itself."""
        return {}

    def named_metrics(self, warm: Iteration, timed: list[Iteration],
                      wall_p50: float) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures, by name and unit, from
        the warm-up iteration (outputs kept) and the timed ones (outputs
        dropped, work and timings kept)."""
        return {}


# ---------------------------------------------------------------------------
# chem-stage: the Figure 2 batched chemistry stage
# ---------------------------------------------------------------------------


class ChemStage(Workload):
    name = "chem-stage"
    work_unit = "cells"
    stresses = ("chem", "ode", "linalg", "backend")
    bypasses = ("mpisim", "resilience", "service", "similarity", "particles")
    required_spans = ("chem.rhs", "chem.jac", "ode.integrate")

    nfields = 2
    ncells = 48
    dt = 1e-9
    rtol = 1e-6
    atol = 1e-9

    def __init__(self, seed: int) -> None:
        from repro.chem.codegen import compile_batched_kernels

        self.cfg = pele.PeleConfig()
        compile_batched_kernels(self.cfg.mechanism)
        resolve_backend(None)
        self.seed = seed
        self.fields = [
            pele.chemistry_field(self.cfg, self.ncells,
                                 seed=self.nfields * seed + k)
            for k in range(self.nfields)
        ]

    def iteration(self) -> Iteration:
        results = [
            pele.integrate_chemistry_batched(self.cfg, T, C0, self.dt,
                                             rtol=self.rtol, atol=self.atol)
            for T, C0 in self.fields
        ]
        return Iteration(results, work=float(self.nfields * self.ncells))

    def record(self, it: Iteration) -> list:
        return [{"stats": asdict(r.stats), "y": digest(r.t, r.y)}
                for r in it.outputs]

    def check(self, it: Iteration) -> list[int]:
        """Every cell reached ``dt`` with a finite state, and one seeded
        cell per field matches scipy's BDF at the same tolerances.

        The repo integrator accepts each step at about one tolerance
        unit of local error, so its global error, in units of
        ``rtol*|y| + atol``, is at most its step count; scipy's is at
        most its own.  The bound is their sum, per cell.
        """
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng([self.seed, 0xC4E])
        failed = []
        for k, ((T, C0), res) in enumerate(zip(self.fields, it.outputs)):
            ok = bool(np.all(res.t == self.dt) and np.isfinite(res.y).all())
            cell = int(rng.integers(self.ncells))
            rhs = pele.chemistry_rhs(self.cfg.mechanism, float(T[cell]))
            ref = solve_ivp(lambda t, y: rhs(t, np.maximum(y, 0.0)),
                            (0.0, self.dt), C0[cell], method="BDF",
                            rtol=self.rtol, atol=self.atol)
            y_ref = ref.y[:, -1]
            err = (res.y[cell] - y_ref) / (self.rtol * np.abs(y_ref)
                                           + self.atol)
            wrms = float(np.sqrt(np.mean(err * err)))
            bound = res.stats.steps / res.stats.ncells + (ref.t.size - 1)
            if not (ref.success and ok and wrms <= bound):
                failed.append(k)
        return failed

    def layer_counts(self, it: Iteration) -> dict[str, float]:
        stats = [r.stats for r in it.outputs]
        rounds = sum(s.step_rounds for s in stats)
        steps = sum(s.steps for s in stats)
        cells = sum(s.ncells for s in stats)
        return {
            "ode.step_rounds": rounds,
            "ode.steps_per_cell": steps / cells,
            "ode.newton_iters": sum(s.newton_iters for s in stats),
            "ode.cells_refactored": sum(s.cells_refactored for s in stats),
            "ode.jac_builds": sum(s.jac_builds for s in stats),
            "ode.error_test_failures": sum(s.error_test_failures
                                           for s in stats),
            "ode.newton_failures": sum(s.newton_failures for s in stats),
            "ode.lane_util": steps / sum(s.step_rounds * s.ncells
                                         for s in stats),
        }

    def named_metrics(self, warm, timed, wall_p50):
        return {"chem.cells_per_s": (warm.work / wall_p50, "cells/s")}


# ---------------------------------------------------------------------------
# machine-scale: full-machine scaling curves + Daly sweep on ScaledComm
# ---------------------------------------------------------------------------


class MachineScale(Workload):
    name = "machine-scale"
    work_unit = "rank-steps"
    stresses = ("mpisim", "resilience", "apps")
    bypasses = ("chem", "ode", "service", "similarity", "particles")
    required_spans = ("mpisim.partition", "mpisim.comm_init",
                      "mpisim.collective", "mpisim.neighbor", "mpisim.fault",
                      "resilience.run", "resilience.snapshot", "apps.step")

    #: steps per curve point, as the curve functions default to
    curve_steps = 2
    daly_seeds_per_run = 4
    #: the size of the CoMet EF claim, whose measure the curve must match
    comet_claim_nodes = 9074
    #: all ranks live at these sizes, so exemplar mode can be compared
    validation_nodes = (1, 2, 8)

    def __init__(self, seed: int) -> None:
        from repro.experiments import scaling

        self.scaling = scaling
        self.apps = (scaling.CometWeakScaling(), scaling.PeleWeakScaling(),
                     scaling.GamessStrongScaling())
        self.nodes = scaling.DEFAULT_NODE_COUNTS
        self.daly_seeds = tuple(self.daly_seeds_per_run * seed + k
                                for k in range(self.daly_seeds_per_run))

    def iteration(self) -> Iteration:
        from repro.experiments.resilience_at_scale import run_daly_sweep

        s = self.scaling
        comet, pele_w, gamess = self.apps
        curves = (
            s.weak_scaling_curve(comet, self.nodes, steps=self.curve_steps),
            s.weak_scaling_curve(pele_w, self.nodes, steps=self.curve_steps),
            s.strong_scaling_curve(gamess, self.nodes,
                                   steps=self.curve_steps),
        )
        daly = run_daly_sweep(seeds=self.daly_seeds)
        work = sum(p.ranks * self.curve_steps
                   for c in curves for p in c.points)
        work += (daly.machine_ranks * daly.nsteps * len(daly.seeds)
                 * len(daly.points))
        return Iteration((curves, daly), work=float(work))

    def record(self, it: Iteration) -> list:
        curves, daly = it.outputs
        ops = [[c.app, p.nodes, p.ranks, p.live_ranks, repr(p.step_time),
                repr(p.efficiency), repr(p.metric)]
               for c in curves for p in c.points]
        ops += [[p.interval_steps, repr(p.measured_overhead),
                 repr(p.predicted_overhead), p.failures,
                 daly.measured_best_steps]
                for p in daly.points]
        return ops

    def check(self, it: Iteration) -> list[int]:
        """Claim bands, exemplar-vs-all-live exactness, sane curves."""
        from repro.experiments.intext import ALL_CLAIMS

        s = self.scaling
        curves, daly = it.outputs
        # "CoMet EF at 9,074 nodes via ScaledComm" -> "comet"
        claim_of = {c.description.split()[0].lower(): c for c in ALL_CLAIMS
                    if c.description.endswith("via ScaledComm")}
        failed, k = [], 0
        for curve, app in zip(curves, self.apps):
            result = claim_of[curve.app].evaluate()
            try:
                s.check_validation(s.validate_exemplar_vs_full(
                    app, self.validation_nodes, steps=self.curve_steps))
                exact = True
            except ValueError:
                exact = False
            for p in curve.points:
                sane = (p.step_time > 0 and 0 < p.efficiency <= 1 + 1e-12
                        and p.ranks == p.nodes * app.gpus_per_node)
                if curve.app == "comet" and p.nodes == self.comet_claim_nodes:
                    sane = sane and p.metric == result.measured
                if not (result.ok and exact and sane):
                    failed.append(k)
                k += 1
        for p in daly.points:
            if not (np.isfinite(p.measured_overhead)
                    and p.measured_overhead >= 0 and p.failures > 0):
                failed.append(k)
            k += 1
        return failed

    def named_metrics(self, warm, timed, wall_p50):
        _, daly = warm.outputs
        factor = daly.daly_agreement_factor
        return {
            "scale.rank_steps_per_s": (warm.work / wall_p50,
                                       "rank-steps/s"),
            "scale.daly_agreement_factor": (factor, "ratio"),
            "scale.daly_margin_to_2x": (2.0 - factor, "ratio"),
        }


# ---------------------------------------------------------------------------
# service-soak: the campaign service over two pools, faults on
# ---------------------------------------------------------------------------


class ServiceSoak(Workload):
    name = "service-soak"
    work_unit = "jobs"
    stresses = ("service", "resilience", "mpisim", "apps", "gpu")
    bypasses = ("chem", "ode", "similarity", "particles")
    required_spans = ("service.engine", "service.plan", "service.make_app",
                      "service.execute", "resilience.run",
                      "resilience.snapshot", "mpisim.comm_init",
                      "apps.step")

    njobs = 500
    #: the soak configuration of the service qualification bench, fixed
    #: here so the benchmark's definition does not move with it
    pools = {
        "summit-like": dict(machine="summit", nodes=32, spares=2, rate=80.0),
        "frontier-like": dict(machine="frontier", nodes=64, spares=4,
                              rate=160.0),
    }
    tenants = {"astro": 2.0, "chem": 1.0, "climate": 1.0}

    def __init__(self, seed: int) -> None:
        from repro.resilience.faults import FaultKind
        from repro.resilience.runner import CheckpointCostModel
        from repro.service import engine

        self.engine = engine
        self.seed = seed
        self.mtbf = {
            FaultKind.RANK_FAILURE: 1.5,
            FaultKind.DEVICE_OOM: 6.0,
            FaultKind.LINK_DEGRADATION: 3.0,
        }
        self.cost = CheckpointCostModel(restart_cost=0.05)
        self._build()

    def _build(self) -> list:
        """Fresh pools, arrivals and services: runs mutate all three."""
        from repro.service import (
            CampaignService,
            EasyBackfillScheduler,
            OpenLoopArrivals,
            build_pool,
        )

        built = []
        for k, cfg in enumerate(self.pools.values()):
            pool = build_pool(cfg["machine"], nodes=cfg["nodes"],
                              spares=cfg["spares"])
            jobs = OpenLoopArrivals(
                rate=cfg["rate"], tenants=self.tenants,
                seed=len(self.pools) * self.seed + k).draw(self.njobs)
            service = CampaignService(
                pool, seed=self.seed, fault_mtbf=self.mtbf,
                cost_model=self.cost, backoff_base=0.05,
                scheduler=EasyBackfillScheduler(borrow_after=1.0))
            built.append((service, jobs))
        return built

    def iteration(self) -> Iteration:
        engine = self.engine
        execute = engine.execute_campaign
        job_s: list[float] = []

        def timed_execute(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return execute(*args, **kwargs)
            finally:
                job_s.append(time.perf_counter() - t0)

        engine.execute_campaign = timed_execute
        try:
            results = [service.run(jobs) for service, jobs in self._build()]
        finally:
            engine.execute_campaign = execute
        done = sum(r.slo.completed for r in results)
        return Iteration(results, work=float(done), timings={"job_s": job_s})

    def record(self, it: Iteration) -> list:
        ops = []
        for r in it.outputs:
            slo = [repr(r.slo.makespan), repr(r.slo.p99_queue_wait),
                   r.slo.completed, r.slo.failed, r.slo.requeues]
            ops += [[j.job_id, j.state.value, j.result_checksum, slo]
                    for j in r.jobs]
        return ops

    def check(self, it: Iteration) -> list[int]:
        """Every completed job matches its failure-free replay.

        A job the service marks FAILED ran out of requeues under the
        injected faults: the specified outcome, not a wrong output.  Its
        state is part of the record, so it must repeat exactly.
        """
        from repro.service import JobState, failure_free_checksum

        failed, k = [], 0
        for r in it.outputs:
            for job in r.jobs:
                if (job.state is not JobState.FAILED
                        and job.result_checksum != failure_free_checksum(job)):
                    failed.append(k)
                k += 1
        return failed

    def layer_counts(self, it: Iteration) -> dict[str, float]:
        started = sum(r.slo.completed + r.slo.failed for r in it.outputs)
        backfilled = sum(r.slo.backfill_fraction
                         * (r.slo.completed + r.slo.failed)
                         for r in it.outputs)
        return {
            "service.backfill_frac": backfilled / started,
            "service.requeues": sum(r.requeues for r in it.outputs),
            "service.spare_denials": sum(r.pool.spares.denials
                                         for r in it.outputs),
        }

    def named_metrics(self, warm, timed, wall_p50):
        job_ms = np.array([t for it in timed for t in it.timings["job_s"]])
        job_ms *= 1e3
        return {
            "service.jobs_per_s": (warm.work / wall_p50, "jobs/s"),
            "service.job_ms_p50": (float(np.percentile(job_ms, 50)), "ms"),
            "service.job_ms_p99": (float(np.percentile(job_ms, 99)), "ms"),
            "service.job_samples": (float(job_ms.size), "count"),
        }


# ---------------------------------------------------------------------------
# kernel-sweep: CoMet popcount tallies + ExaSky short-range forces
# ---------------------------------------------------------------------------


class KernelSweep(Workload):
    name = "kernel-sweep"
    work_unit = "comparisons+pairs"
    stresses = ("similarity", "particles", "backend")
    bypasses = ("chem", "ode", "mpisim", "resilience", "service")
    required_spans = ("similarity.pack", "similarity.count",
                      "similarity.verify", "particles.forces")

    n2, m2 = 256, 4096
    n3, m3 = 64, 1024
    nparticles = 2000
    rs = 0.08
    box = 1.0
    #: oracle sizes: brute-force tallies on a vector slice, naive pair
    #: loop on a particle subset
    slice2, slice3, subset = 8, 6, 300

    def __init__(self, seed: int) -> None:
        from repro.similarity import random_allele_data

        self.data2 = random_allele_data(self.n2, self.m2, seed=3 * seed)
        self.data3 = random_allele_data(self.n3, self.m3, seed=3 * seed + 1)
        rng = np.random.default_rng(3 * seed + 2)
        self.x = rng.uniform(0.0, self.box, (self.nparticles, 3))
        self.masses = rng.uniform(0.5, 1.5, self.nparticles)
        resolve_backend(None)

    @property
    def comparisons(self) -> float:
        return (self.n2 ** 2 * self.m2 / 2 + self.n3 ** 3 * self.m3 / 6)

    @property
    def pairs(self) -> float:
        return self.nparticles * (self.nparticles - 1) / 2

    def iteration(self) -> Iteration:
        from repro.particles.pm import short_range_forces
        from repro.similarity import tally_2way, tally_3way

        t0 = time.perf_counter()
        c2 = tally_2way(self.data2, abft=True)
        c3 = tally_3way(self.data3)
        t1 = time.perf_counter()
        forces = short_range_forces(self.x, self.masses, self.box, rs=self.rs)
        t2 = time.perf_counter()
        return Iteration((c2, c3, forces), work=self.comparisons + self.pairs,
                         timings={"tally_s": [t1 - t0], "forces_s": [t2 - t1]})

    def record(self, it: Iteration) -> list:
        return [digest(out) for out in it.outputs]

    def check(self, it: Iteration) -> list[int]:
        from repro.particles.pm import short_range_forces
        from repro.similarity import (
            cooccurrence_counts_bruteforce,
            threeway_counts_bruteforce,
        )

        c2, c3, forces = it.outputs
        failed = []
        k2, k3 = self.slice2, self.slice3
        ref2 = cooccurrence_counts_bruteforce(self.data2[:k2])
        if not (np.array_equal(c2[:, :, :k2, :k2], ref2)
                and (c2.sum(axis=(0, 1)) == self.m2).all()):
            failed.append(0)
        ref3 = threeway_counts_bruteforce(self.data3[:k3])
        if not np.array_equal(c3[..., :k3, :k3, :k3], ref3):
            failed.append(1)
        xs, ms = self.x[:self.subset], self.masses[:self.subset]
        fast = short_range_forces(xs, ms, self.box, rs=self.rs)
        slow = short_range_forces(xs, ms, self.box, rs=self.rs,
                                  vectorized=False)
        scale = np.abs(forces).sum()
        if not (np.abs(fast - slow).max() <= 1e-9
                and np.abs(forces.sum(axis=0)).max() <= 1e-9 * scale):
            failed.append(2)
        return failed

    def named_metrics(self, warm, timed, wall_p50):
        tally = float(np.median([it.timings["tally_s"][0] for it in timed]))
        force = float(np.median([it.timings["forces_s"][0] for it in timed]))
        return {
            "kernel.tally_cmp_per_s": (self.comparisons / tally, "cmp/s"),
            "kernel.pm_pairs_per_s": (self.pairs / force, "pairs/s"),
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ChemStage, MachineScale, ServiceSoak, KernelSweep)
}
