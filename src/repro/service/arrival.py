"""Seeded open-loop arrival process: the service's offered load.

The SLO benchmark discipline for a multi-tenant service is an
**open-loop** arrival process: jobs arrive on their own Poisson clock
regardless of how backed up the queue is, so queue-wait percentiles
reflect the service's real behaviour under pressure rather than the
closed-loop self-throttling a synchronous driver would impose.

Arrivals are a pure function of the seed: one
``np.random.default_rng(seed)`` draws the exponential inter-arrival
gaps, the tenant of each job, its template from the size mix, and its
app seed — rerunning the process reproduces the identical submission
schedule byte for byte, which is what makes the soak's bit-identity
acceptance test possible.

The default job mix wraps :class:`~repro.apps.exasky.ExaskyCampaign`
(cheap, deterministic, fully Checkpointable) in four sizes from
single-node to hero; any other Checkpointable campaign slots in through
its own :class:`~repro.service.job.JobTemplate`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.service.job import Job, JobError, JobTemplate


def default_templates() -> tuple[JobTemplate, ...]:
    """The standard HACC-campaign size mix (small/medium/wide/hero)."""
    from repro.apps.exasky import (
        ExaskyCampaign,
        ExaskyConfig,
        campaign_step_cost,
    )

    step_cost = campaign_step_cost(ExaskyConfig())

    def make(nparticles: int):
        def build(seed: int):
            return ExaskyCampaign(nparticles=nparticles, seed=seed)
        return build

    return (
        JobTemplate("hacc-small", nodes=1, nsteps=4,
                    est_step_cost=step_cost, make_app=make(64)),
        JobTemplate("hacc-medium", nodes=2, nsteps=6,
                    est_step_cost=step_cost, make_app=make(96)),
        JobTemplate("hacc-wide", nodes=4, nsteps=8,
                    est_step_cost=step_cost, make_app=make(128), priority=1),
        JobTemplate("hacc-hero", nodes=8, nsteps=10,
                    est_step_cost=step_cost, make_app=make(160), priority=2),
    )


class OpenLoopArrivals:
    """Poisson arrivals over a tenant mix and a job-size mix.

    ``rate`` is jobs per simulated second across all tenants;
    ``tenants`` maps tenant id -> relative traffic weight;
    ``template_weights`` (optional, parallel to ``templates``) skews the
    size mix — omitted means uniform.
    """

    def __init__(self, *, rate: float, tenants: Mapping[str, float],
                 templates: Sequence[JobTemplate] | None = None,
                 template_weights: Sequence[float] | None = None,
                 seed: int = 0) -> None:
        if rate <= 0:
            raise JobError("arrival rate must be positive")
        if not tenants:
            raise JobError("need at least one tenant")
        self.rate = float(rate)
        self.tenant_names = tuple(sorted(tenants))
        weights = np.array([float(tenants[t]) for t in self.tenant_names])
        if (weights <= 0).any():
            raise JobError("tenant weights must be positive")
        self.tenant_p = weights / weights.sum()
        self.templates = tuple(templates if templates is not None
                               else default_templates())
        if not self.templates:
            raise JobError("need at least one job template")
        if template_weights is None:
            self.template_p = np.full(len(self.templates),
                                      1.0 / len(self.templates))
        else:
            tw = np.array([float(w) for w in template_weights])
            if tw.shape != (len(self.templates),) or (tw <= 0).any():
                raise JobError("template_weights must be positive and "
                               "parallel to templates")
            self.template_p = tw / tw.sum()
        self.rng = np.random.default_rng(seed)
        self._next_id = 0

    def draw(self, njobs: int, *, start: float = 0.0) -> list[Job]:
        """The next *njobs* submissions, in arrival order."""
        if njobs < 1:
            raise JobError("need at least one job")
        rng = self.rng
        gaps = rng.exponential(1.0 / self.rate, njobs)
        times = start + np.cumsum(gaps)
        tenant_idx = rng.choice(len(self.tenant_names), size=njobs,
                                p=self.tenant_p)
        template_idx = rng.choice(len(self.templates), size=njobs,
                                  p=self.template_p)
        app_seeds = rng.integers(2**31, size=njobs)
        jobs = []
        for k in range(njobs):
            jobs.append(Job(
                job_id=self._next_id,
                tenant=self.tenant_names[int(tenant_idx[k])],
                template=self.templates[int(template_idx[k])],
                app_seed=int(app_seeds[k]),
                submit_time=float(times[k]),
            ))
            self._next_id += 1
        return jobs

    def offered_load(self) -> float:
        """Mean node-seconds of raw work offered per second: the open
        loop's pressure, to be read against the pool's node count."""
        mean_work = float(sum(
            p * t.nodes * t.nsteps * t.est_step_cost
            for p, t in zip(self.template_p, self.templates)
        ))
        return self.rate * mean_work
