"""Checkpoint-interval tuning against injected-fault campaigns.

The knob is the Young/Daly question: how many compute steps between
checkpoints on each machine?  The *measured* objective is the overhead
fraction a fault-injected :class:`~repro.apps.exasky.ExaskyCampaign`
actually pays through the :class:`~repro.resilience.runner.ResilientRunner`
on a representative-rank :class:`~repro.mpisim.scaled.ScaledComm` of the
full machine — not the analytic formula, which enters only as a
cross-check (the recorded ``w_star_steps`` and agreement factor).

Because campaigns are stochastic under fault injection, the search is
:func:`~repro.tuning.search.successive_halving` over rising fidelity
(more steps, more seeds): every candidate gets a cheap measurement, the
surviving half a trustworthy one.  Campaigns and calibration are
:mod:`repro.experiments.resilience_at_scale`'s: checkpoint cost δ is a
fixed fraction of a step and the timescale is compressed so Young/Daly's
W* lands near :data:`TARGET_WSTAR_STEPS` steps — cheap but
discriminating.

The untuned baseline is the conservative default of a team that has not
measured anything: checkpoint after every step.  That is what makes the
margin real — the tuner's win is the measured gap between "always safe"
and the interval the fault process actually rewards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.machine import MachineSpec
from repro.resilience.daly import system_mtbf
from repro.resilience.runner import CheckpointCostModel
from repro.tuning.search import successive_halving

#: the compression anchor: steps of compute W* prescribes between
#: checkpoints (same constant as experiments.resilience_at_scale)
TARGET_WSTAR_STEPS = 8
#: the untuned baseline: checkpoint after every step
DEFAULT_INTERVAL_STEPS = 1
#: interval candidates as multiples of the W* anchor
INTERVAL_FACTORS: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)


@dataclass(frozen=True)
class CheckpointFidelity:
    """One successive-halving rung: campaign length x fault seeds."""

    nsteps: int
    seeds: tuple[int, ...]

    def describe(self) -> dict:
        return {"nsteps": self.nsteps, "seeds": list(self.seeds)}


@dataclass(frozen=True)
class CheckpointTuningResult:
    """Tuned checkpoint cadence for one machine."""

    machine: str
    nodes: int
    machine_ranks: int
    default_interval_steps: int
    default_overhead: float
    tuned_interval_steps: int
    tuned_overhead: float
    w_star_steps: float
    campaigns: int  # fault campaigns executed by the search
    fidelity: CheckpointFidelity  # the final (trusted) rung

    @property
    def speedup(self) -> float:
        """Campaign wall-time ratio: default over tuned.

        Overhead fractions convert to wall time as ``1 / (1 - overhead)``
        of the pure compute time.
        """
        return (1.0 - self.tuned_overhead) / (1.0 - self.default_overhead)

    @property
    def daly_agreement_factor(self) -> float:
        best = float(max(self.tuned_interval_steps, 1))
        return max(best / self.w_star_steps, self.w_star_steps / best)


def _calibration(machine: MachineSpec,
                 nparticles: int) -> tuple[float, CheckpointCostModel, float]:
    """``(step_cost, cost_model, time_compression)`` for this machine.

    The step and checkpoint costs are the Daly validation's
    (:func:`repro.experiments.resilience_at_scale._calibrate`); the
    compression maps the machine's real system MTBF onto a timescale
    where W* sits at ``TARGET_WSTAR_STEPS`` steps — preserving the 1/N
    failure composition while campaigns run in seconds.
    """
    # imported here: repro.experiments imports this package at load time
    from repro.experiments.resilience_at_scale import _calibrate

    dt_step, delta, cost_model = _calibrate(nparticles)
    w_star = TARGET_WSTAR_STEPS * dt_step
    m_eff = w_star * w_star / (2.0 * delta)
    compression = system_mtbf(machine) / m_eff
    return dt_step, cost_model, compression


def _mean_overhead(machine: MachineSpec, interval_steps: int,
                   fidelity: CheckpointFidelity, *, nparticles: int,
                   compression: float,
                   cost_model: CheckpointCostModel) -> float:
    """Mean overhead fraction of the fidelity's seeded campaigns — the
    Daly validation's own endpoints-ScaledComm campaign."""
    from repro.experiments.resilience_at_scale import _run_campaign

    return float(np.mean([
        _run_campaign(
            machine, interval_steps=interval_steps, nsteps=fidelity.nsteps,
            seed=seed, time_compression=compression, nparticles=nparticles,
            cost_model=cost_model,
        ).overhead_fraction
        for seed in fidelity.seeds
    ]))


def tune_checkpoint_interval(
    machine: MachineSpec,
    *,
    rungs: tuple[CheckpointFidelity, ...],
    nparticles: int = 96,
) -> CheckpointTuningResult:
    """Search the interval grid on *machine* by successive halving.

    Everything is derived from the machine spec and the rung schedule:
    same machine + same rungs => identical result, bit for bit.
    """
    dt_step, cost_model, compression = _calibration(machine, nparticles)

    candidates = sorted({
        max(1, round(TARGET_WSTAR_STEPS * f)) for f in INTERVAL_FACTORS
    })

    def objective(interval: int, rung: object) -> float:
        return _mean_overhead(machine, interval, rung,  # type: ignore[arg-type]
                              nparticles=nparticles, compression=compression,
                              cost_model=cost_model)

    result, _ = successive_halving(candidates, objective, rungs)
    final = rungs[-1]
    tuned_interval = candidates[result.best_index]
    default_overhead = objective(DEFAULT_INTERVAL_STEPS, final)
    campaigns = result.evaluated * len(final.seeds) + len(final.seeds)
    return CheckpointTuningResult(
        machine=machine.name,
        nodes=machine.nodes,
        machine_ranks=machine.nodes * max(machine.node.gpus_per_node, 1),
        default_interval_steps=DEFAULT_INTERVAL_STEPS,
        default_overhead=default_overhead,
        tuned_interval_steps=tuned_interval,
        tuned_overhead=result.best_value,
        w_star_steps=float(TARGET_WSTAR_STEPS),
        campaigns=campaigns,
        fidelity=final,
    )


def measure_overhead(machine: MachineSpec, interval_steps: int,
                     fidelity: CheckpointFidelity, *,
                     nparticles: int = 96) -> float:
    """Re-measure one interval at one fidelity (what generated checks do).

    Identical calibration path to :func:`tune_checkpoint_interval`, so a
    recorded overhead reproduces exactly from (machine, interval,
    fidelity).
    """
    _, cost_model, compression = _calibration(machine, nparticles)
    return _mean_overhead(machine, interval_steps, fidelity,
                          nparticles=nparticles, compression=compression,
                          cost_model=cost_model)
