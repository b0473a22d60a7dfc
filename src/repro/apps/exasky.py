"""ExaSky/HACC (§3.4): weak-scaled gravity FOM, Summit vs. Frontier.

The Frontier target was a weak-scaling benchmark on 8 192 nodes
(32 768 GPUs = GCDs) aiming for 4× the Summit FOM; measured 4.2×.  The
FOM is machine-level particle-interaction throughput, so the ratio
combines the per-GCD kernel rates (six short-range gravity kernels, FP32),
the node counts, and the §3.4 kernel story: the one branchy kernel tuned
for 32-wide warps was restructured for wavefront 64 during the port.
Against the original Theta full-machine baseline the cumulative FOM gain
was ≈230×.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.gpu.kernel import KernelSpec
from repro.gpu.perfmodel import time_kernel
from repro.hardware.catalog import FRONTIER, SUMMIT, THETA
from repro.hardware.gpu import GPUSpec
from repro.particles.cosmology import hacc_gravity_kernels
from repro.resilience.abft import SdcDetected, require_finite
from repro.resilience.elastic import DomainSpec
from repro.resilience.snapshot import Snapshot, require_kind

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.observability.tracer import Tracer


@dataclass(frozen=True)
class ExaskyConfig:
    particles_per_gpu: int = 16_000_000
    summit_nodes: int = 4608  # full Summit
    frontier_nodes: int = 8192  # the §3.4 target scale


def _kernels(cfg: ExaskyConfig, *, wavefront64_tuned: bool) -> list[KernelSpec]:
    kernels = hacc_gravity_kernels(cfg.particles_per_gpu)
    if wavefront64_tuned:
        # the restructured tree-walk kernel no longer assumes 32-wide warps
        kernels = [
            dataclasses.replace(k, divergence_wavefront_sensitive=False)
            if k.divergence_wavefront_sensitive
            else k
            for k in kernels
        ]
    return kernels


def step_time_per_gpu(device: GPUSpec, cfg: ExaskyConfig, *,
                      wavefront64_tuned: bool) -> float:
    """Sum of the six gravity kernels on one device."""
    return sum(
        time_kernel(k, device).total_time
        for k in _kernels(cfg, wavefront64_tuned=wavefront64_tuned)
    )


def machine_fom(machine, cfg: ExaskyConfig, nodes: int, *,
                wavefront64_tuned: bool) -> float:
    """Particles processed per second across *nodes* of *machine*."""
    device = machine.node.gpu
    t = step_time_per_gpu(device, cfg, wavefront64_tuned=wavefront64_tuned)
    gpus = nodes * machine.node.gpus_per_node
    return gpus * cfg.particles_per_gpu / t


@functools.cache
def campaign_step_cost(cfg: ExaskyConfig) -> float:
    """Simulated seconds of one campaign step: the six wavefront-64-tuned
    gravity kernels on one Frontier GCD.

    A pure function of the frozen config, priced once per config; the
    device is fixed here because ``GPUSpec`` holds dicts and cannot key
    the cache.
    """
    return step_time_per_gpu(FRONTIER.node.gpu, cfg, wavefront64_tuned=True)


def wrap_unit(x: np.ndarray) -> np.ndarray:
    """Periodic wrap of *x* onto ``[0, 1)``.

    ``x - floor(x)`` equals ``np.mod(x, 1.0)`` bit for bit at a fraction
    of its cost, except that both round ``x`` in ``[-2**-54, 0)`` up to
    exactly 1.0; that result is folded back to 0.0 so every finite
    input lands inside the box.
    """
    w = x - np.floor(x)
    w[w == 1.0] = 0.0
    return w


class ExaskyCampaign:
    """A checkpointable HACC-style campaign: kick-drift particle sweeps.

    A small periodic particle block evolves by deterministic symplectic
    kick-drift steps under a fixed smooth potential (a stand-in for the
    short-range force loop); each ``step`` returns the simulated cost of
    the six gravity kernels on one Frontier GCD at the §3.4 scale.  The
    state is the exact phase space, so checkpoint/restore is bit-exact.
    """

    snapshot_kind = "apps.exasky.campaign"
    snapshot_version = 1

    def __init__(self, *, nparticles: int = 2048, seed: int = 0,
                 dt: float = 0.05, cfg: ExaskyConfig | None = None,
                 tracer: "Tracer | None" = None) -> None:
        cfg = cfg or ExaskyConfig()
        rng = np.random.default_rng(seed)
        self.pos = rng.uniform(0.0, 1.0, (nparticles, 3))
        self.vel = 0.05 * rng.standard_normal((nparticles, 3))
        self.dt = float(dt)
        self.steps_done = 0
        self.particles_processed = 0
        # observation-only span/metric sink on the campaign's own
        # simulated clock (steps x step_cost); like the Pele campaign's,
        # it is an engine choice, not campaign state — never snapshotted,
        # and traced runs stay bit-identical to untraced ones
        self.tracer = tracer
        self.step_cost = campaign_step_cost(cfg)
        # the acceleration at ``self.pos``, keyed on the array's identity:
        # a step's closing kick and the next step's opening kick share it
        self._acc_pos: np.ndarray | None = None
        self._acc: np.ndarray | None = None

    def _acceleration(self) -> np.ndarray:
        # a smooth periodic force field: cheap, deterministic, nontrivial
        if self._acc_pos is not self.pos:
            self._acc = -np.sin(2.0 * np.pi * self.pos) * 0.1
            self._acc_pos = self.pos
        return self._acc

    def _forget_acceleration(self) -> None:
        self._acc_pos = self._acc = None

    def step(self) -> float:
        t0 = self.steps_done * self.step_cost
        half_dt = 0.5 * self.dt
        self.vel += half_dt * self._acceleration()
        self.pos = wrap_unit(self.pos + self.dt * self.vel)
        self.vel += half_dt * self._acceleration()
        self.steps_done += 1
        self.particles_processed += self.pos.shape[0]
        tr = self.tracer
        if tr is not None:
            tr.record("exasky.step", t0, self.step_cost, cat="apps",
                      pid="apps", tid="exasky", step=int(self.steps_done),
                      nparticles=int(self.pos.shape[0]))
            tr.metrics.counter("exasky.steps").inc()
            tr.metrics.counter("exasky.particles_processed").inc(
                float(self.pos.shape[0]))
        return self.step_cost

    def snapshot(self) -> Snapshot:
        return Snapshot(self.snapshot_kind, self.snapshot_version, {
            "pos": self.pos,
            "vel": self.vel,
            "dt": self.dt,
            "steps_done": int(self.steps_done),
            "particles_processed": int(self.particles_processed),
        })

    def restore(self, snap: Snapshot) -> None:
        require_kind(snap, self)
        p = snap.payload
        self.pos = p["pos"].copy()
        self.vel = p["vel"].copy()
        self.dt = p["dt"]
        self.steps_done = p["steps_done"]
        self.particles_processed = p["particles_processed"]
        self._forget_acceleration()

    # -- resilience hooks ---------------------------------------------------

    def elastic_domain(self) -> DomainSpec:
        """Particles are the migratable unit: 6 float64 of phase space."""
        return DomainSpec(nitems=self.pos.shape[0], bytes_per_item=48.0,
                          label="particles")

    def sdc_targets(self) -> list[np.ndarray]:
        """The live arrays a bit flip can strike.  The caller may write
        ``pos`` in place, so the cached acceleration is dropped."""
        self._forget_acceleration()
        return [self.pos, self.vel]

    def validate_state(self) -> None:
        """Physical-plausibility audit: positions must lie in the periodic
        unit box (``wrap_unit`` guarantees it every step) and velocities far
        inside the kick budget; an exponent-field flip lands outside both."""
        require_finite("exasky phase space", self.pos, self.vel)
        if (self.pos < 0.0).any() or (self.pos >= 1.0).any():
            bad = int(np.flatnonzero((self.pos < 0.0).any(axis=1)
                                     | (self.pos >= 1.0).any(axis=1))[0])
            raise SdcDetected(
                f"particle {bad} outside the periodic unit box",
                location=(bad,),
            )
        if np.abs(self.vel).max() > 1.0:
            bad = int(np.flatnonzero(np.abs(self.vel).max(axis=1) > 1.0)[0])
            raise SdcDetected(
                f"particle {bad} velocity beyond the kick budget",
                location=(bad,),
            )


def run_summit(cfg: ExaskyConfig = ExaskyConfig()) -> float:
    """Summit FOM (CUDA path; warp-32 tuning is native there)."""
    return machine_fom(SUMMIT, cfg, cfg.summit_nodes, wavefront64_tuned=False)


def run_frontier(cfg: ExaskyConfig = ExaskyConfig(), *,
                 wavefront64_tuned: bool = True) -> float:
    return machine_fom(FRONTIER, cfg, cfg.frontier_nodes,
                       wavefront64_tuned=wavefront64_tuned)


def speedup(cfg: ExaskyConfig = ExaskyConfig()) -> float:
    """Table 2 / §3.4: the measured FOM factor vs. Summit (4.2)."""
    return run_frontier(cfg) / run_summit(cfg)


def wavefront_fix_gain(cfg: ExaskyConfig = ExaskyConfig()) -> float:
    """§3.4 ablation: restructuring the warp-32-tuned gravity kernel."""
    before = run_frontier(cfg, wavefront64_tuned=False)
    after = run_frontier(cfg, wavefront64_tuned=True)
    return after / before


def fom_vs_theta_baseline(cfg: ExaskyConfig = ExaskyConfig()) -> float:
    """The ≈230x cumulative factor vs. the original Theta full machine.

    Theta is CPU-only: its throughput comes from the node FP32 peak at
    the same interactions-per-particle cost.  HACC's CPU short-range
    force is famously well vectorized (its BG-Q ancestor sustained >50 %
    of peak); 25 % of peak on KNL is the conservative end of its record.
    """
    from repro.particles.cosmology import (
        FLOPS_PER_INTERACTION,
        INTERACTIONS_PER_PARTICLE,
    )

    cpu_flops = THETA.nodes * THETA.node.cpu.peak_flops_fp64 * 2  # FP32 = 2x
    cpu_rate = 0.25 * cpu_flops / (INTERACTIONS_PER_PARTICLE * FLOPS_PER_INTERACTION)
    return run_frontier(cfg) / cpu_rate
