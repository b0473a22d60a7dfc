"""Tests for repro.service: jobs, pools, fair-share, EASY backfill,
the event engine, and the standalone-vs-service bit-identity contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.catalog import FRONTIER, SUMMIT
from repro.observability.metrics import MetricsError, MetricsRegistry
from repro.observability.tracer import Tracer
from repro.resilience.faults import FaultKind
from repro.resilience.runner import CheckpointCostModel
from repro.service import (
    CampaignService,
    EasyBackfillScheduler,
    FairShareError,
    FairShareLedger,
    Job,
    JobError,
    JobState,
    JobTemplate,
    OpenLoopArrivals,
    PoolError,
    SparePool,
    build_pool,
    checkpoint_interval_steps,
    combined_fatal_mtbf,
    compute_slo,
    execute_campaign,
    failure_free_checksum,
    walltime_estimate,
)
from repro.service.scheduler import RunningView

MTBF = {
    FaultKind.RANK_FAILURE: 1.5,
    FaultKind.DEVICE_OOM: 6.0,
    FaultKind.LINK_DEGRADATION: 3.0,
}
COST = CheckpointCostModel(restart_cost=0.05)


def _dummy_template(name="t", nodes=1, nsteps=2, est=1.0, priority=0):
    from repro.apps.exasky import ExaskyCampaign

    return JobTemplate(name, nodes=nodes, nsteps=nsteps, est_step_cost=est,
                       make_app=lambda seed: ExaskyCampaign(nparticles=16,
                                                            seed=seed),
                       priority=priority)


def _job(job_id, *, nodes=1, est=1.0, submit=0.0, priority=0, tenant="t"):
    job = Job(job_id=job_id, tenant=tenant,
              template=_dummy_template(nodes=nodes, priority=priority),
              app_seed=0, submit_time=submit)
    job.walltime_estimate = est
    return job


# ---------------------------------------------------------------------------
# job model
# ---------------------------------------------------------------------------


class TestJobModel:
    def test_template_validation(self):
        with pytest.raises(JobError):
            _dummy_template(nodes=0)
        with pytest.raises(JobError):
            _dummy_template(nsteps=0)
        with pytest.raises(JobError):
            _dummy_template(est=0.0)

    def test_job_inherits_template_priority(self):
        assert _job(0).priority == 0
        job = Job(job_id=1, tenant="a",
                  template=_dummy_template(priority=3), app_seed=0,
                  submit_time=0.0)
        assert job.priority == 3
        override = Job(job_id=2, tenant="a",
                       template=_dummy_template(priority=3), app_seed=0,
                       submit_time=0.0, priority=7)
        assert override.priority == 7

    def test_combined_fatal_mtbf(self):
        assert combined_fatal_mtbf(None) == math.inf
        assert combined_fatal_mtbf({}) == math.inf
        # only fatal kinds contribute; rates add harmonically
        m = combined_fatal_mtbf({FaultKind.RANK_FAILURE: 10.0,
                                 FaultKind.DEVICE_OOM: 10.0,
                                 FaultKind.LINK_DEGRADATION: 1e-3})
        assert m == pytest.approx(5.0)
        with pytest.raises(JobError):
            combined_fatal_mtbf({FaultKind.RANK_FAILURE: -1.0})

    def test_checkpoint_interval_clamped(self):
        # infinite MTBF: checkpoint only at the end
        assert checkpoint_interval_steps(1.0, 0.1, math.inf, nsteps=7) == 7
        # brutal MTBF: at least every step
        assert checkpoint_interval_steps(1.0, 0.1, 1e-6, nsteps=7) == 1
        k = checkpoint_interval_steps(1.0, 0.5, 100.0, nsteps=50)
        assert 1 <= k <= 50

    def test_walltime_estimate_is_inflated_work(self):
        base = walltime_estimate(10, 1.0, 0.5, math.inf)
        assert base == pytest.approx(15.0)  # work x default 1.5 safety
        faulty = walltime_estimate(10, 1.0, 0.5, 20.0)
        assert faulty > base
        with pytest.raises(JobError):
            walltime_estimate(10, 1.0, 0.5, 20.0, safety=0.9)


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------


class TestPools:
    def test_build_pool_by_name_and_bounds(self):
        pool = build_pool("summit", nodes=32, spares=2)
        assert pool.machine is SUMMIT
        assert pool.free_nodes == 32 and pool.spares.total == 2
        with pytest.raises(PoolError):
            build_pool("frontier", nodes=FRONTIER.nodes, spares=1)

    def test_allocation_arithmetic(self):
        pool = build_pool("frontier", nodes=4)
        pool.allocate(3)
        assert pool.busy_nodes == 3
        with pytest.raises(PoolError):
            pool.allocate(2)
        pool.release(3)
        with pytest.raises(PoolError):
            pool.release(1)

    def test_spare_pool_audit_log(self):
        sp = SparePool(1)
        assert sp.try_acquire("recovery")
        assert not sp.try_acquire("scheduler")  # denied, logged
        sp.release(1, "recovery-return")
        assert sp.denials == 1
        assert sp.audit() == (
            (0.0, "recovery", "acquire", 0),
            (0.0, "scheduler", "deny", 0),
            (0.0, "recovery-return", "release", 1),
        )
        with pytest.raises(PoolError):
            sp.release(1)


# ---------------------------------------------------------------------------
# fair-share
# ---------------------------------------------------------------------------


class TestFairShare:
    def test_usage_decays_with_half_life(self):
        fs = FairShareLedger(half_life=100.0)
        fs.charge("a", 80.0, now=0.0)
        assert fs.usage("a", 100.0) == pytest.approx(40.0)
        assert fs.usage("a", 200.0) == pytest.approx(20.0)
        assert fs.usage("b", 50.0) == 0.0

    def test_heavy_usage_lowers_priority(self):
        fs = FairShareLedger()
        hog, newcomer = _job(0, tenant="hog"), _job(1, tenant="new")
        fs.charge("hog", 500.0, now=0.0)
        assert (fs.effective_priority(hog, 0.0)
                < fs.effective_priority(newcomer, 0.0))

    def test_config_validation(self):
        with pytest.raises(FairShareError):
            FairShareLedger(half_life=0.0)
        with pytest.raises(FairShareError):
            FairShareLedger(age_weight=0.0)  # aging is the guarantee

    @given(
        base_old=st.integers(min_value=0, max_value=5),
        base_new=st.integers(min_value=0, max_value=5),
        usage_new=st.floats(min_value=0.0, max_value=1e6),
        extra_wait=st.floats(min_value=1e-3, max_value=1e4),
    )
    @settings(max_examples=80, deadline=None)
    def test_no_starvation_bound(self, base_old, base_new, usage_new,
                                 extra_wait):
        """A job older than starvation_bound(span) outranks ANY fresh
        competitor, whatever the competitor's base priority or the
        usage history of either tenant."""
        fs = FairShareLedger()
        now = fs.starvation_bound(5.0) + extra_wait
        old = _job(0, submit=0.0, priority=base_old, tenant="old")
        fresh = _job(1, submit=now, priority=base_new, tenant="fresh")
        fs.charge("fresh", usage_new, now=now)
        assert fs.order_key(old, now) < fs.order_key(fresh, now)


# ---------------------------------------------------------------------------
# EASY backfill invariants (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def scheduler_states(draw):
    capacity = draw(st.integers(min_value=2, max_value=12))
    free = draw(st.integers(min_value=0, max_value=capacity))
    running, held = [], capacity - free
    while held > 0:
        n = draw(st.integers(min_value=1, max_value=held))
        running.append(RunningView(n, draw(
            st.floats(min_value=0.1, max_value=50.0))))
        held -= n
    njobs = draw(st.integers(min_value=1, max_value=8))
    queue = [
        _job(
            k,
            nodes=draw(st.integers(min_value=1, max_value=capacity)),
            est=draw(st.floats(min_value=0.1, max_value=30.0)),
            submit=draw(st.floats(min_value=0.0, max_value=10.0)),
            priority=draw(st.integers(min_value=0, max_value=3)),
            tenant=draw(st.sampled_from(["a", "b", "c"])),
        )
        for k in range(njobs)
    ]
    return capacity, free, running, queue


class TestEasyBackfill:
    @given(scheduler_states())
    @settings(max_examples=120, deadline=None)
    def test_backfill_never_delays_head_reservation(self, state):
        """The EASY guarantee: with estimates treated as exact, the
        blocked head still has enough free nodes at its reserved start
        time after every backfill the plan admits."""
        capacity, free, running, queue = state
        sched = EasyBackfillScheduler()
        now = 10.0
        plan = sched.plan(queue, free, running, now)

        started = {s.job.job_id for s in plan.starts}
        heads = [s for s in plan.starts if s.kind == "head"]
        free_after = free - sum(s.job.nodes for s in plan.starts)
        assert free_after >= 0  # never oversubscribes the pool

        if plan.reservation is None:
            assert started == {j.job_id for j in queue}
            return
        t_res = plan.reservation.start_at
        order = sorted(queue, key=lambda j: sched.fairshare.order_key(j, now))
        head = next(j for j in order if j.job_id not in started)
        assert plan.reservation.job_id == head.job_id

        avail = free_after
        avail += sum(v.nodes for v in running if v.est_end <= t_res)
        avail += sum(s.job.nodes for s in heads
                     if now + s.job.walltime_estimate <= t_res)
        avail += sum(s.job.nodes for s in plan.starts
                     if s.kind == "backfill"
                     and now + s.job.walltime_estimate <= t_res)
        assert avail >= head.nodes

    @given(scheduler_states())
    @settings(max_examples=60, deadline=None)
    def test_plan_is_pure_and_deterministic(self, state):
        capacity, free, running, queue = state
        sched = EasyBackfillScheduler()
        p1 = sched.plan(queue, free, running, 5.0)
        p2 = sched.plan(list(queue), free, running, 5.0)
        assert ([(s.job.job_id, s.kind) for s in p1.starts]
                == [(s.job.job_id, s.kind) for s in p2.starts])
        assert p1.reservation == p2.reservation

    def test_oversized_job_raises_at_plan_time(self):
        sched = EasyBackfillScheduler()
        with pytest.raises(ValueError):
            sched.plan([_job(0, nodes=8)], 2, [RunningView(2, 5.0)], 0.0)

    def test_spare_borrow_only_after_threshold(self):
        sched = EasyBackfillScheduler(borrow_after=10.0)
        job = _job(0, nodes=4, submit=0.0)
        early = sched.plan([job], 2, [RunningView(2, 99.0)], 5.0,
                           spare_available=4)
        assert not early.starts
        late = sched.plan([job], 2, [RunningView(2, 99.0)], 15.0,
                          spare_available=4)
        assert [s.kind for s in late.starts] == ["spare-borrow"]
        assert late.starts[0].borrowed_spares == 2


# ---------------------------------------------------------------------------
# arrivals
# ---------------------------------------------------------------------------


class TestArrivals:
    def test_seeded_arrivals_reproduce(self):
        def draw():
            arr = OpenLoopArrivals(rate=2.0, tenants={"a": 2, "b": 1},
                                   seed=11)
            return [(j.job_id, j.tenant, j.template.name, j.app_seed,
                     j.submit_time) for j in arr.draw(50)]

        assert draw() == draw()

    def test_arrival_validation(self):
        with pytest.raises(JobError):
            OpenLoopArrivals(rate=0.0, tenants={"a": 1})
        with pytest.raises(JobError):
            OpenLoopArrivals(rate=1.0, tenants={})
        with pytest.raises(JobError):
            OpenLoopArrivals(rate=1.0, tenants={"a": -1.0})

    def test_offered_load_scales_with_rate(self):
        a = OpenLoopArrivals(rate=1.0, tenants={"a": 1}, seed=0)
        b = OpenLoopArrivals(rate=3.0, tenants={"a": 1}, seed=0)
        assert b.offered_load() == pytest.approx(3 * a.offered_load())

    def test_default_templates_estimate_the_apps_step_cost(self):
        """The scheduler's estimate and the campaign's own step cost come
        from one source, so they agree exactly."""
        from repro.service import default_templates

        for template in default_templates():
            assert template.est_step_cost == template.make_app(0).step_cost


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _service(pool, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("fault_mtbf", MTBF)
    kw.setdefault("cost_model", COST)
    return CampaignService(pool, **kw)


def _workload(njobs=60, *, rate=40.0, seed=42):
    arr = OpenLoopArrivals(rate=rate,
                           tenants={"astro": 2, "chem": 1, "climate": 1},
                           seed=seed)
    return arr.draw(njobs)


class TestEngine:
    def test_every_job_reaches_a_terminal_state(self):
        pool = build_pool("frontier", nodes=16, spares=2)
        res = _service(pool).run(_workload(60))
        assert all(j.state in (JobState.COMPLETED, JobState.FAILED)
                   for j in res.jobs)
        assert len(res.completed) + len(res.failed) == 60
        # the machine is fully drained afterwards
        assert pool.free_nodes == pool.nodes
        assert pool.spares.available == pool.spares.total

    def test_faults_actually_fire(self):
        res = _service(build_pool("frontier", nodes=16, spares=2)).run(
            _workload(120))
        assert sum(j.stats.recoveries for j in res.completed if j.stats) > 0

    def test_campaign_history_is_deterministic(self):
        def world():
            pool = build_pool("frontier", nodes=16, spares=2)
            svc = _service(
                pool, scheduler=EasyBackfillScheduler(borrow_after=1.0))
            res = svc.run(_workload(80))
            ledger = tuple(
                (j.job_id, j.state.value, j.attempt, j.start_time,
                 j.end_time, j.start_kind, j.result_checksum)
                for j in res.jobs)
            return pool.spares.audit(), ledger, res.slo

        audit1, ledger1, slo1 = world()
        audit2, ledger2, slo2 = world()
        assert audit1 == audit2
        assert ledger1 == ledger2
        assert slo1 == slo2

    def test_recovery_and_scheduler_contend_for_spares(self):
        """Both consumers show up in one audit log, and at least one
        acquisition was denied — the contention is real, and (above)
        byte-reproducible."""
        pool = build_pool("frontier", nodes=16, spares=2)
        svc = _service(pool,
                       scheduler=EasyBackfillScheduler(borrow_after=1.0))
        svc.run(_workload(80))
        purposes = {e.purpose for e in pool.spares.log}
        assert "recovery" in purposes
        assert "scheduler" in purposes or "recovery-return" in purposes
        assert pool.spares.denials > 0

    def test_requeue_then_terminal_failure(self):
        """A job whose campaign keeps dying is requeued max_requeues
        times and then marked FAILED — with the nodes returned."""
        pool = build_pool("frontier", nodes=4)
        svc = _service(
            pool,
            fault_mtbf={FaultKind.RANK_FAILURE: 1e-5},
            recovery="restart", max_retries=1, max_requeues=2,
        )
        job = Job(job_id=0, tenant="a", template=_dummy_template(nsteps=4),
                  app_seed=3, submit_time=0.0)
        res = svc.run([job])
        assert job.state is JobState.FAILED
        assert job.attempt == 3  # initial try + 2 requeues
        assert res.requeues == 2
        assert pool.free_nodes == pool.nodes

    def test_rejects_oversized_job_at_submit(self):
        svc = _service(build_pool("frontier", nodes=2))
        bad = Job(job_id=0, tenant="a", template=_dummy_template(nodes=4),
                  app_seed=0, submit_time=0.0)
        with pytest.raises(JobError):
            svc.submit([bad])

    def test_tracer_sees_scheduler_decisions_and_jobs(self):
        tracer = Tracer()
        pool = build_pool("frontier", nodes=8, spares=1)
        svc = _service(pool, tracer=tracer,
                       scheduler=EasyBackfillScheduler(borrow_after=1.0))
        res = svc.run(_workload(30))
        names = {s.name for s in tracer.spans}
        assert "service.run" in names
        assert any(n.startswith("sched.") for n in names)
        assert any(n.startswith("job.") for n in names)
        # the run span covers the whole campaign on the simulated clock
        run = next(s for s in tracer.spans if s.name == "service.run")
        assert run.dur == pytest.approx(
            res.makespan + res.jobs[0].submit_time - run.ts, rel=1e-6, abs=1e-6
        ) or run.dur >= res.makespan * 0.5

    def test_trace_campaigns_threads_tracer_into_apps(self):
        tracer = Tracer()
        svc = _service(build_pool("frontier", nodes=8), tracer=tracer,
                       trace_campaigns=True, fault_mtbf=None)
        svc.run(_workload(10))
        assert any(s.name == "exasky.step" for s in tracer.spans)


# ---------------------------------------------------------------------------
# bit-identity: standalone vs through-service, faults on
# ---------------------------------------------------------------------------


class TestBitIdentity:
    def test_service_matches_standalone_and_failure_free(self):
        """The acceptance contract: every campaign the service ran under
        fault injection ends bit-identical to (a) the same campaign
        executed standalone through the same runner path, and (b) a
        failure-free run with no service and no runner at all."""
        pool = build_pool("summit", nodes=16, spares=2)
        svc = _service(pool,
                       scheduler=EasyBackfillScheduler(borrow_after=1.0))
        res = svc.run(_workload(40, seed=5))
        assert res.completed  # vacuous otherwise
        for j in res.completed:
            clone = Job(job_id=j.job_id, tenant=j.tenant, template=j.template,
                        app_seed=j.app_seed, submit_time=j.submit_time)
            clone.attempt = j.attempt
            clone.checkpoint_interval = j.checkpoint_interval
            _, standalone = execute_campaign(
                clone, pool.machine, seed=svc.seed, fault_mtbf=svc.fault_mtbf,
                cost_model=COST, policy="restart")
            assert standalone == j.result_checksum
            assert failure_free_checksum(j) == j.result_checksum


# ---------------------------------------------------------------------------
# SLO reporting
# ---------------------------------------------------------------------------


class TestSlo:
    def test_slo_arithmetic(self):
        pool = build_pool("frontier", nodes=4)
        jobs = []
        for k, (start, end) in enumerate([(1.0, 3.0), (2.0, 6.0)]):
            j = _job(k, nodes=2, submit=0.0, tenant="a" if k == 0 else "b")
            j.state = JobState.COMPLETED
            j.start_time, j.end_time = start, end
            j.start_kind = "head" if k == 0 else "backfill"
            jobs.append(j)
        slo = compute_slo(jobs, pool, requeues=1)
        assert slo.completed == 2 and slo.makespan == pytest.approx(6.0)
        assert slo.jobs_per_sec == pytest.approx(2 / 6.0)
        assert slo.utilization == pytest.approx((2 * 2 + 2 * 4) / (4 * 6.0))
        assert slo.backfill_fraction == pytest.approx(0.5)
        assert slo.p50_queue_wait == pytest.approx(1.5)
        shares = {t.tenant: t.share for t in slo.tenants}
        assert shares["a"] == pytest.approx(4 / 12) and sum(
            shares.values()) == pytest.approx(1.0)
        assert "jobs/s" in slo.render()

    def test_histogram_quantile_estimates(self):
        reg = MetricsRegistry()
        h = reg.histogram("w", (1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.0) == pytest.approx(1.0)
        assert 1.0 <= h.quantile(0.5) <= 2.0
        assert h.quantile(1.0) == pytest.approx(4.0)
        with pytest.raises(MetricsError):
            h.quantile(1.5)
        assert reg.histogram("empty", (1.0,)).quantile(0.5) == 0.0
