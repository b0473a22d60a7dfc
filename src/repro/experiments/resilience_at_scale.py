"""Resilience at machine scale: Daly validation on the scaled engine.

The fault-tolerance half of exascale readiness is only credible if the
simulated failure process and the analytic checkpoint theory agree.  This
experiment closes that loop at full-machine rank counts:

* **Daly validation** (:func:`run_daly_sweep`) — drive a fault-injected
  :class:`~repro.apps.exasky.ExaskyCampaign` through the
  :class:`~repro.resilience.runner.ResilientRunner` on a representative-
  rank :class:`~repro.mpisim.scaled.ScaledComm` modelling every rank of a
  4,096+-node machine, sweeping the checkpoint interval from ``W*/4`` to
  ``4 W*``.  The *measured* overhead-minimizing interval must land within
  2x of Young/Daly's ``W* = sqrt(2 delta M)`` — the acceptance test that
  the discrete-event failure process, the checkpoint cost accounting,
  and the first-order theory describe the same machine.
* **Overhead vs node count** (:func:`run_overhead_curve`) — the same
  campaign at each node count with its own Daly-optimal interval.
  System MTBF composes as ``M_node / N``, so resilience overhead grows
  roughly like ``sqrt(N)`` toward full machine scale — the reason the
  paper's applications budget checkpoint cadence per allocation size.

Campaigns run on a *compressed* timescale: one fixed
``time_compression`` (derived so ``W*`` lands at
:data:`TARGET_WSTAR_STEPS` steps at the reference node count) divides
every MTBF identically, preserving the 1/N shape while a weeks-long
campaign simulates in seconds.  Fault targets draw uniformly over all
machine ranks — 72,592 on the 9,074-node Frontier point — through
:func:`~repro.resilience.daly.scaled_fault_injector`.

Everything is deterministic given the seed tuple: same seeds, same
measured table.  This module is bench-tier (it steps thousands of
campaign steps); the fast test tier runs it with reduced seeds/steps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.apps.exasky import ExaskyCampaign, ExaskyConfig, campaign_step_cost
from repro.core.report import render_series
from repro.hardware.catalog import FRONTIER
from repro.hardware.machine import MachineSpec
from repro.mpisim.partition import RankGroupPartitioner
from repro.mpisim.scaled import ScaledComm
from repro.resilience.daly import (
    predicted_overhead,
    scaled_fault_injector,
    system_mtbf,
    young_daly_interval,
)
from repro.resilience.runner import (
    CheckpointCostModel,
    ResilienceStats,
    ResilientRunner,
)
from repro.resilience.snapshot import encode_snapshot

#: steps of compute Young/Daly prescribes between checkpoints at the
#: reference node count — the compression anchor.  8 keeps the W*/4 ..
#: 4 W* sweep inside {2 .. 32} steps, cheap but discriminating.
TARGET_WSTAR_STEPS = 8
#: checkpoint write cost delta as a fraction of one step's cost
CHECKPOINT_STEP_FRACTION = 0.25
#: scheduler relaunch cost as a fraction of one step's cost
RESTART_STEP_FRACTION = 0.5


def _machine(nodes: int) -> MachineSpec:
    return dataclasses.replace(FRONTIER, nodes=int(nodes))


def _machine_ranks(machine: MachineSpec) -> int:
    return machine.nodes * max(machine.node.gpus_per_node, 1)


def _scaled_comm(machine: MachineSpec) -> ScaledComm:
    """Every machine rank, O(dozens) executed: endpoints partition."""
    ranks = _machine_ranks(machine)
    part = RankGroupPartitioner("endpoints").partition(ranks)
    return ScaledComm(
        ranks, machine.node.interconnect,
        ranks_per_node=max(machine.node.gpus_per_node, 1),
        device_buffers=machine.node.has_gpus, partition=part,
    )


def _calibrate(nparticles: int) -> tuple[float, float, CheckpointCostModel]:
    """``(step_cost, delta, cost_model)`` for the campaign at this size.

    The cost model is built backwards from the campaign's actual
    snapshot size so a checkpoint write costs exactly
    ``CHECKPOINT_STEP_FRACTION`` steps regardless of ``nparticles`` —
    the sweep's delta/M ratio is a design constant, not an accident of
    the problem size.
    """
    probe = ExaskyCampaign(nparticles=nparticles, seed=0)
    dt_step = campaign_step_cost(ExaskyConfig())
    nbytes = len(encode_snapshot(probe.snapshot()))
    delta = CHECKPOINT_STEP_FRACTION * dt_step
    cost_model = CheckpointCostModel(
        write_bandwidth=nbytes / delta,
        read_bandwidth=nbytes / delta,
        latency=0.0,
        restart_cost=RESTART_STEP_FRACTION * dt_step,
    )
    return dt_step, delta, cost_model


def _run_campaign(machine: MachineSpec, *, interval_steps: int, nsteps: int,
                  seed: int, time_compression: float, nparticles: int,
                  cost_model: CheckpointCostModel) -> ResilienceStats:
    app = ExaskyCampaign(nparticles=nparticles, seed=seed)
    comm = _scaled_comm(machine)
    injector = scaled_fault_injector(
        np.random.default_rng(seed), machine,
        machine_ranks=comm.machine_ranks,
        time_compression=time_compression,
    )
    runner = ResilientRunner(
        app, checkpoint_interval=interval_steps, injector=injector,
        cost_model=cost_model, comm=comm, policy="restart",
        backoff_base=0.0, max_retries=64,
    )
    return runner.run(nsteps)


@dataclass(frozen=True)
class DalyValidationPoint:
    """One checkpoint interval's measured-vs-predicted overhead."""

    interval_steps: int
    measured_overhead: float  # mean overhead fraction over the seeds
    predicted_overhead: float  # first-order Young/Daly expectation
    failures: int  # fatal faults fired across all seeds


@dataclass(frozen=True)
class DalySweepResult:
    """Measured optimal checkpoint interval vs Young/Daly ``W*``."""

    nodes: int
    machine_ranks: int
    step_cost: float
    checkpoint_cost: float
    mtbf_seconds: float  # compressed system MTBF on the campaign clock
    w_star_seconds: float
    w_star_steps: float
    points: tuple[DalyValidationPoint, ...]
    seeds: tuple[int, ...]
    nsteps: int

    @property
    def measured_best_steps(self) -> int:
        return min(self.points,
                   key=lambda p: p.measured_overhead).interval_steps

    @property
    def daly_agreement_factor(self) -> float:
        """``max(measured/W*, W*/measured)`` — 1.0 is perfect agreement."""
        best = float(self.measured_best_steps)
        return max(best / self.w_star_steps, self.w_star_steps / best)

    def checks(self) -> dict[str, bool]:
        overheads = [p.measured_overhead for p in self.points]
        return {
            "measured optimum within 2x of Young/Daly W*":
                self.daly_agreement_factor <= 2.0 + 1e-9,
            "faults actually fired":
                sum(p.failures for p in self.points) > 0,
            "overhead curve is not flat":
                max(overheads) > 1.05 * min(overheads),
            "extremes beat by the interior": min(overheads) < min(
                self.points[0].measured_overhead,
                self.points[-1].measured_overhead,
            ),
        }

    def render(self) -> str:
        rows = [
            (f"W*x{p.interval_steps / self.w_star_steps:<4g} "
             f"({p.interval_steps:3d} steps, {p.failures} faults)",
             p.measured_overhead)
            for p in self.points
        ]
        return "\n".join([
            f"Daly validation at {self.nodes} nodes "
            f"({self.machine_ranks} machine ranks), "
            f"{len(self.seeds)} seeds x {self.nsteps} steps:",
            render_series("measured overhead fraction", rows,
                          value_format="{:.4f}"),
            f"Young/Daly W* = {self.w_star_steps:.1f} steps; measured "
            f"optimum {self.measured_best_steps} steps "
            f"(agreement factor {self.daly_agreement_factor:.2f}x, "
            f"acceptance <= 2x)",
        ])


def run_daly_sweep(*, nodes: int = 4096, seeds: tuple[int, ...] = (0, 1, 2, 3),
                   nsteps: int = 256, nparticles: int = 96,
                   interval_factors: tuple[float, ...] = (
                       0.25, 0.5, 1.0, 2.0, 4.0),
                   ) -> DalySweepResult:
    """Measure the optimal checkpoint interval at machine scale.

    Sweeps ``interval_factors x W*`` checkpoint intervals over seeded
    fault-injected campaigns on a ScaledComm modelling all
    ``nodes x gpus_per_node`` ranks, and reports measured overhead
    against :func:`~repro.resilience.daly.predicted_overhead`.
    """
    machine = _machine(nodes)
    dt_step, delta, cost_model = _calibrate(nparticles)
    w_star = TARGET_WSTAR_STEPS * dt_step
    # the MTBF that makes w_star optimal; compression maps the machine's
    # real system MTBF onto it without touching its 1/N node scaling
    m_eff = w_star * w_star / (2.0 * delta)
    compression = system_mtbf(machine) / m_eff
    intervals = sorted({
        max(1, round(TARGET_WSTAR_STEPS * f)) for f in interval_factors
    })
    points = []
    for steps in intervals:
        overheads, failures = [], 0
        for seed in seeds:
            stats = _run_campaign(
                machine, interval_steps=steps, nsteps=nsteps, seed=seed,
                time_compression=compression, nparticles=nparticles,
                cost_model=cost_model,
            )
            overheads.append(stats.overhead_fraction)
            failures += sum(stats.failures_by_kind.values())
        points.append(DalyValidationPoint(
            interval_steps=steps,
            measured_overhead=float(np.mean(overheads)),
            predicted_overhead=predicted_overhead(
                steps * dt_step, delta, m_eff,
                restart_cost=cost_model.restart_cost,
            ),
            failures=failures,
        ))
    return DalySweepResult(
        nodes=machine.nodes, machine_ranks=_machine_ranks(machine),
        step_cost=dt_step, checkpoint_cost=delta, mtbf_seconds=m_eff,
        w_star_seconds=young_daly_interval(delta, m_eff),
        w_star_steps=young_daly_interval(delta, m_eff) / dt_step,
        points=tuple(points), seeds=tuple(seeds), nsteps=int(nsteps),
    )


@dataclass(frozen=True)
class NodeOverheadPoint:
    """Resilience overhead at one node count, at its own Daly interval."""

    nodes: int
    machine_ranks: int
    interval_steps: int
    measured_overhead: float
    predicted_overhead: float
    failures: int


@dataclass(frozen=True)
class OverheadCurveResult:
    """Resilience overhead vs node count at fixed time compression."""

    points: tuple[NodeOverheadPoint, ...]
    seeds: tuple[int, ...]
    nsteps: int

    def checks(self) -> dict[str, bool]:
        first, last = self.points[0], self.points[-1]
        return {
            "overhead grows toward full machine":
                last.measured_overhead > first.measured_overhead,
            "full-machine point saw faults": last.failures > 0,
            "Daly interval shrinks with node count":
                last.interval_steps < first.interval_steps,
        }

    def render(self) -> str:
        rows = [
            (f"{p.nodes:5d} nodes ({p.machine_ranks:6d} ranks, "
             f"W*={p.interval_steps} steps, {p.failures} faults)",
             p.measured_overhead)
            for p in self.points
        ]
        return "\n".join([
            f"Resilience overhead vs node count "
            f"({len(self.seeds)} seeds x {self.nsteps} steps, "
            "each at its own Young/Daly interval):",
            render_series("measured overhead fraction", rows,
                          value_format="{:.4f}"),
        ])


def run_overhead_curve(*, node_counts: tuple[int, ...] = (
                           1024, 2048, 4096, 9074),
                       seeds: tuple[int, ...] = (0, 1, 2),
                       nsteps: int = 192, nparticles: int = 96,
                       ) -> OverheadCurveResult:
    """Resilience overhead from partial allocations to the full machine.

    One ``time_compression`` (anchored at the largest count) serves
    every point, so MTBF differences between points are *only* the
    ``M_node / N`` composition law; each point checkpoints at its own
    Daly-optimal interval, exactly as a production campaign would.
    """
    if not node_counts:
        raise ValueError("need at least one node count")
    dt_step, delta, cost_model = _calibrate(nparticles)
    w_ref = TARGET_WSTAR_STEPS * dt_step
    m_ref = w_ref * w_ref / (2.0 * delta)
    compression = system_mtbf(_machine(max(node_counts))) / m_ref
    points = []
    for nodes in sorted(int(n) for n in node_counts):
        machine = _machine(nodes)
        m_eff = system_mtbf(machine) / compression
        steps = max(1, round(young_daly_interval(delta, m_eff) / dt_step))
        overheads, failures = [], 0
        for seed in seeds:
            stats = _run_campaign(
                machine, interval_steps=steps, nsteps=nsteps, seed=seed,
                time_compression=compression, nparticles=nparticles,
                cost_model=cost_model,
            )
            overheads.append(stats.overhead_fraction)
            failures += sum(stats.failures_by_kind.values())
        points.append(NodeOverheadPoint(
            nodes=nodes, machine_ranks=_machine_ranks(machine),
            interval_steps=steps,
            measured_overhead=float(np.mean(overheads)),
            predicted_overhead=predicted_overhead(
                steps * dt_step, delta, m_eff,
                restart_cost=cost_model.restart_cost,
            ),
            failures=failures,
        ))
    return OverheadCurveResult(points=tuple(points), seeds=tuple(seeds),
                               nsteps=int(nsteps))
