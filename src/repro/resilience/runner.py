"""Resilient campaign driver: periodic checkpoints, failure recovery, accounting.

:class:`ResilientRunner` wraps any :class:`SteppedApp` (a
:class:`~repro.resilience.snapshot.Checkpointable` whose ``step()``
advances the computation and returns its simulated cost in seconds) and
drives a long campaign the way production jobs on Frontier actually run:

* checkpoint every ``checkpoint_interval`` committed steps, paying the
  serialization size through a :class:`CheckpointCostModel` (write
  latency + bytes/bandwidth — the burst-buffer term of the Young/Daly δ);
* when the :class:`~repro.resilience.faults.FaultInjector` fires a fatal
  event mid-step, roll the work since the last checkpoint into
  ``lost_work_time``, recover through the configured
  :class:`RecoveryPolicy` — full ``restart`` (scheduler relaunch at full
  width), ULFM-style ``shrink-continue`` (drop to the survivors,
  redistribute the domain via :mod:`repro.resilience.elastic`, keep
  going at degraded throughput), or ``spare-swap`` (activate a node from
  a warm spare pool, falling back to shrink when the pool runs dry) —
  then restore from the last *valid* snapshot (checksum-verified, with
  fallback to the previous one) and replay;
* fire non-fatal events through the injector too — a link degradation
  slows overlapping steps, an SDC event flips a bit in the app's live
  arrays (``sdc_targets()`` hook) and is caught *only* if the app's
  checksum guards (``validate_state()`` hook, or an ABFT check inside
  ``step()``) notice: detection coverage is measured, never assumed;
* bound the retries: ``max_retries`` consecutive failures without
  reaching a new checkpoint raise :class:`ResilienceError`;
* account everything into a :class:`ResilienceStats` whose
  ``overhead_fraction`` / ``inflation`` are the measured curve the
  Young/Daly model in :mod:`repro.resilience.daly` predicts, and whose
  event counters must satisfy the conservation identity — every drawn
  fault event is fired or requeued, none silently dropped.

Because snapshots are bit-exact and apps are deterministic, a
fault-injected campaign finishes in *exactly* the same final state as a
failure-free run — under *any* recovery policy, which is the acceptance
test for this subsystem (shrink-continue included: redistribution moves
ownership and time, never values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.gpu.device import Device
from repro.mpisim.comm import CommError, SimComm
from repro.resilience.abft import SdcDetected
from repro.resilience.elastic import shrink_and_redistribute
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    SimulatedFault,
)
from repro.resilience.snapshot import (
    Snapshot,
    decode_snapshot,
    encode_snapshot,
    require_kind,
    snapshot_checksum,
)

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.observability.tracer import Tracer


class ResilienceError(RuntimeError):
    """Unrecoverable campaign: retries exhausted or no valid checkpoint."""


@runtime_checkable
class SteppedApp(Protocol):
    """A checkpointable application advanced step by step."""

    snapshot_kind: str
    snapshot_version: int

    def step(self) -> float:
        """Advance one step; returns the step's simulated cost in seconds."""
        ...

    def snapshot(self) -> Snapshot: ...

    def restore(self, snap: Snapshot) -> None: ...


@dataclass(frozen=True)
class CheckpointCostModel:
    """Simulated cost of moving checkpoints to and from stable storage.

    Defaults are Frontier-node-ish: a few GB/s per node to the burst
    buffer, milliseconds of open/close latency, and a scheduler restart
    penalty of about a minute.
    """

    write_bandwidth: float = 4e9  # bytes/s
    read_bandwidth: float = 8e9  # bytes/s
    latency: float = 2e-3  # per open/close, s
    restart_cost: float = 60.0  # job relaunch + node replacement, s

    def __post_init__(self) -> None:
        if min(self.write_bandwidth, self.read_bandwidth) <= 0:
            raise ValueError("checkpoint bandwidths must be positive")
        if self.latency < 0 or self.restart_cost < 0:
            raise ValueError("latency and restart cost must be non-negative")

    def write_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.write_bandwidth

    def read_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.read_bandwidth


@dataclass
class ResilienceStats:
    """Where the campaign's simulated wall-clock went."""

    steps_completed: int = 0
    steps_replayed: int = 0
    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    recoveries: int = 0
    failures_by_kind: dict[str, int] = field(default_factory=dict)
    degradations_seen: int = 0

    # silent-data-corruption ground truth vs. what the guards caught
    sdc_injected: int = 0
    sdc_detected: int = 0

    # elastic-recovery bookkeeping
    shrinks: int = 0
    spares_used: int = 0
    ranks_initial: int = 0
    ranks_final: int = 0
    migrated_bytes: float = 0.0

    # fault-event conservation (mirrors the injector's counters)
    events_drawn: int = 0
    events_fired: int = 0
    events_requeued_pending: int = 0

    useful_time: float = 0.0  # committed step work in the final trajectory
    lost_work_time: float = 0.0  # rolled-back (replayed or partial) work
    checkpoint_time: float = 0.0  # snapshot writes
    recovery_time: float = 0.0  # restart + backoff + checkpoint reads
    degraded_time: float = 0.0  # extra step time under degraded links
    degraded_throughput_time: float = 0.0  # running below full width
    wall_clock: float = 0.0  # simulated campaign end time

    @property
    def overhead_time(self) -> float:
        return self.wall_clock - self.useful_time

    def assert_event_conservation(self) -> None:
        """Every drawn fault event must be fired or still requeued.

        The accounting contract of satellite-grade fault injection: a
        popped event a caller neither fired nor requeued is a *silently
        dropped failure* — the campaign looked healthier than its own
        failure process.  Raises :class:`AssertionError` on violation.
        """
        if self.events_drawn != self.events_fired + self.events_requeued_pending:
            raise AssertionError(
                f"fault-event conservation violated: drawn "
                f"{self.events_drawn} != fired {self.events_fired} + "
                f"requeued-pending {self.events_requeued_pending}"
            )

    @property
    def overhead_fraction(self) -> float:
        """Fraction of the campaign that was not useful forward progress."""
        return self.overhead_time / self.wall_clock if self.wall_clock > 0 else 0.0

    @property
    def inflation(self) -> float:
        """Wall-clock inflation vs. a free-checkpoint, failure-free run."""
        return self.wall_clock / self.useful_time if self.useful_time > 0 else 1.0

    def describe(self) -> str:
        fail = ", ".join(f"{k}x{v}" for k, v in sorted(self.failures_by_kind.items()))
        elastic = ""
        if self.shrinks or self.spares_used:
            elastic = (
                f", {self.shrinks} shrinks / {self.spares_used} spares "
                f"({self.ranks_initial}->{self.ranks_final} ranks)"
            )
        sdc = ""
        if self.sdc_injected:
            sdc = f", SDC {self.sdc_detected}/{self.sdc_injected} detected"
        return (
            f"{self.steps_completed} steps (+{self.steps_replayed} replayed), "
            f"{self.checkpoints_written} checkpoints "
            f"({self.checkpoint_bytes / 1e6:.2f} MB), "
            f"{self.recoveries} recoveries [{fail or 'no failures'}]{elastic}{sdc}; "
            f"wall {self.wall_clock:.1f}s = useful {self.useful_time:.1f}s "
            f"+ ckpt {self.checkpoint_time:.1f}s + lost {self.lost_work_time:.1f}s "
            f"+ recovery {self.recovery_time:.1f}s + degraded "
            f"{self.degraded_time:.1f}s + narrow {self.degraded_throughput_time:.1f}s "
            f"(overhead {self.overhead_fraction:.1%})"
        )


# ---------------------------------------------------------------------------
# Recovery policies: what "come back from a fatal fault" costs
# ---------------------------------------------------------------------------


class RecoveryPolicy:
    """How a campaign comes back from a fatal fault.

    ``recover`` runs the policy's mechanics (relaunch / shrink /
    spare activation) against the runner's substrates and returns the
    simulated seconds they took — checkpoint read and backoff are priced
    by the runner on top.  Policies may replace ``runner.comm`` (shrink)
    and must leave the communicator in a steppable state.
    """

    name = "restart"

    def recover(self, runner: "ResilientRunner", event: FaultEvent | None,
                stats: ResilienceStats) -> float:
        raise NotImplementedError


class RestartPolicy(RecoveryPolicy):
    """Classic checkpoint/restart: tear down, get replacement nodes,
    relaunch at full width.  The scheduler round-trip is the dominant
    cost; the failure leaves no lasting mark on throughput."""

    name = "restart"

    def recover(self, runner: "ResilientRunner", event: FaultEvent | None,
                stats: ResilienceStats) -> float:
        if runner.injector is not None:
            runner.injector.clear(comm=runner.comm, device=runner.device)
        return runner.cost_model.restart_cost


class ShrinkContinuePolicy(RecoveryPolicy):
    """ULFM shrink-and-continue: agree on the dead, shrink to the
    survivors, redistribute the domain, keep stepping — no scheduler
    round-trip, but every later step runs ``old/new`` slower (accounted
    as ``degraded_throughput_time``)."""

    name = "shrink-continue"

    def recover(self, runner: "ResilientRunner", event: FaultEvent | None,
                stats: ResilienceStats) -> float:
        comm = runner.comm
        if comm is None:
            # nothing to shrink; degenerate to a restart
            return RestartPolicy().recover(runner, event, stats)
        if runner.injector is not None and runner.device is not None:
            # the OOM'd device leaves the job with its node
            runner.injector.clear(device=runner.device)
        if (event is not None and event.kind is FaultKind.DEVICE_OOM
                and not comm.failed_ranks()):
            # machine numbering throughout: on a ScaledComm the OOM'd
            # node can be any modelled rank, on a SimComm it's identical
            # to the old index arithmetic
            comm.fail_rank(event.target % comm.machine_ranks)
        if not comm.alive_ranks():
            raise ResilienceError("no surviving ranks to shrink onto")
        try:
            new_comm, plan, _ = shrink_and_redistribute(runner.app, comm)
        except CommError as exc:
            raise ResilienceError(f"elastic shrink failed: {exc}") from exc
        redist_time = max(new_comm.elapsed - comm.elapsed, 0.0)
        runner.comm = new_comm
        stats.shrinks += 1
        stats.ranks_final = new_comm.machine_ranks
        if plan is not None:
            stats.migrated_bytes += plan.migrated_bytes
        if stats.ranks_initial > 0:
            runner.throughput_factor = (stats.ranks_initial
                                        / new_comm.machine_ranks)
        return redist_time


@runtime_checkable
class SpareNodeSource(Protocol):
    """Anything spare nodes can be drawn from — a private per-job pool or
    a machine-wide pool shared with a scheduler (:mod:`repro.service`).

    ``try_acquire`` returns whether a spare was granted; the caller keeps
    it until the campaign ends (releasing is the owner's business, not the
    recovery policy's)."""

    def try_acquire(self, purpose: str) -> bool: ...


class SpareSwapPolicy(RecoveryPolicy):
    """Warm spare pool: a failed node's work moves to an idle spare at
    activation cost (no scheduler, no shrink) until the pool runs dry —
    then degrade to shrink-and-continue.

    By default the pool is private (``spares`` nodes reserved for this
    campaign alone).  Passing ``pool`` instead draws from a shared
    :class:`SpareNodeSource` — the machine-wide spare pool a campaign
    service's scheduler also borrows from, so recovery and scheduling
    contend for the same nodes and the contention is resolved by whoever
    asks first in deterministic event order.
    """

    name = "spare-swap"

    def __init__(self, spares: int = 2, activation_cost: float = 15.0,
                 pool: SpareNodeSource | None = None) -> None:
        if spares < 0:
            raise ValueError("spare pool size must be non-negative")
        if activation_cost < 0:
            raise ValueError("activation cost must be non-negative")
        self.spares = spares
        self.spares_left = spares
        self.activation_cost = activation_cost
        self.pool = pool
        #: spares this policy actually took (from either source); a
        #: shared pool's owner releases exactly this many at job end
        self.acquired = 0
        self._fallback = ShrinkContinuePolicy()

    def _take_spare(self) -> bool:
        if self.pool is not None:
            if not self.pool.try_acquire("recovery"):
                return False
        elif self.spares_left > 0:
            self.spares_left -= 1
        else:
            return False
        self.acquired += 1
        return True

    def recover(self, runner: "ResilientRunner", event: FaultEvent | None,
                stats: ResilienceStats) -> float:
        if self._take_spare():
            stats.spares_used += 1
            if runner.injector is not None:
                # the spare assumes the dead rank's identity
                runner.injector.clear(comm=runner.comm, device=runner.device)
            return self.activation_cost
        return self._fallback.recover(runner, event, stats)


_POLICY_NAMES = {
    "restart": RestartPolicy,
    "shrink": ShrinkContinuePolicy,
    "shrink-continue": ShrinkContinuePolicy,
    "spare": SpareSwapPolicy,
    "spare-swap": SpareSwapPolicy,
}


def make_policy(name: str, **kwargs) -> RecoveryPolicy:
    """Resolve a policy by CLI-friendly name.

    Keyword arguments pass straight to the policy constructor —
    ``make_policy("spare_swap", pool=shared_pool)`` or
    ``make_policy("spare", spares=4, activation_cost=0.005)`` — so
    callers never special-case policy construction.  Underscores in
    *name* normalize to dashes.
    """
    try:
        cls = _POLICY_NAMES[name.replace("_", "-")]
    except KeyError:
        raise ValueError(
            f"unknown recovery policy {name!r}; "
            f"choose from {sorted(set(_POLICY_NAMES))}"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(
            f"bad arguments for recovery policy {name!r}: {exc}") from None


@dataclass
class _StoredCheckpoint:
    step: int
    blob: bytes
    checksum: str


class ResilientRunner:
    """Drive a :class:`SteppedApp` campaign through failures to completion."""

    def __init__(
        self,
        app: SteppedApp,
        *,
        checkpoint_interval: int,
        injector: FaultInjector | None = None,
        cost_model: CheckpointCostModel | None = None,
        comm: SimComm | None = None,
        device: Device | None = None,
        max_retries: int = 8,
        backoff_base: float = 1.0,
        keep_snapshots: int = 2,
        policy: RecoveryPolicy | str = "restart",
        tracer: "Tracer | None" = None,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1 step")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")
        self.app = app
        self.checkpoint_interval = checkpoint_interval
        self.injector = injector
        self.cost_model = cost_model or CheckpointCostModel()
        self.comm = comm
        self.device = device
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.keep_snapshots = keep_snapshots
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        #: observation-only span/metric sink on the campaign's simulated
        #: clock; ``None`` keeps every instrumented site one pointer test
        self.tracer = tracer
        #: step-time multiplier while running below the initial width
        self.throughput_factor = 1.0
        self._checkpoints: list[_StoredCheckpoint] = []
        #: the last completed run's final checkpoint checksum
        self._final_checksum: str | None = None

    @property
    def final_checksum(self) -> str:
        """Checksum of the app's final state after :meth:`run`.

        ``run`` always checkpoints at ``step == nsteps`` and nothing
        touches the app after that, so the newest stored checkpoint *is*
        the final state and its checksum needs no second encode.
        """
        if self._final_checksum is None:
            raise ResilienceError(
                "no final checkpoint: run() has not completed")
        return self._final_checksum

    # -- checkpoint store ----------------------------------------------------

    def _write_checkpoint(self, step: int, stats: ResilienceStats,
                          t_sim: float = 0.0) -> float:
        blob = encode_snapshot(self.app.snapshot())
        self._checkpoints.append(
            _StoredCheckpoint(step=step, blob=blob,
                              checksum=snapshot_checksum(blob))
        )
        del self._checkpoints[:-self.keep_snapshots]
        stats.checkpoints_written += 1
        stats.checkpoint_bytes += len(blob)
        cost = self.cost_model.write_time(len(blob))
        tr = self.tracer
        if tr is not None:
            tr.record("resilience.checkpoint", t_sim, cost, cat="resilience",
                      pid="resilience", tid="runner", step=int(step),
                      nbytes=len(blob))
            tr.metrics.counter("resilience.checkpoints").inc()
            tr.metrics.counter("resilience.checkpoint_bytes").inc(
                float(len(blob)))
        return cost

    def _restore_latest_valid(self, stats: ResilienceStats) -> tuple[int, float]:
        """Restore the newest checksum-valid checkpoint; returns
        ``(step_restored_to, simulated_read_time)``."""
        read_time = 0.0
        while self._checkpoints:
            ckpt = self._checkpoints[-1]
            read_time += self.cost_model.read_time(len(ckpt.blob))
            if snapshot_checksum(ckpt.blob) == ckpt.checksum:
                snap = decode_snapshot(ckpt.blob)
                require_kind(snap, self.app)
                self.app.restore(snap)
                return ckpt.step, read_time
            self._checkpoints.pop()  # torn write: fall back one generation
        raise ResilienceError("no valid checkpoint to restore from")

    # -- the campaign loop ----------------------------------------------------

    def run(self, nsteps: int) -> ResilienceStats:
        if nsteps < 1:
            raise ValueError("campaign needs at least one step")
        self._final_checksum = None
        stats = ResilienceStats()
        if self.comm is not None:
            stats.ranks_initial = stats.ranks_final = self.comm.machine_ranks
        tr = self.tracer
        run_idx = None
        if tr is not None:
            run_idx = tr.begin("resilience.run", ts=0.0, cat="resilience",
                               pid="resilience", tid="runner",
                               nsteps=int(nsteps), policy=self.policy.name)
        try:
            self._run_loop(nsteps, stats, tr)
            self._final_checksum = self._checkpoints[-1].checksum
            return stats
        finally:
            if run_idx is not None:
                tr.end(run_idx, ts=stats.wall_clock)

    def _run_loop(self, nsteps: int, stats: ResilienceStats,
                  tr: "Tracer | None") -> ResilienceStats:
        t_sim = 0.0
        pending_useful = 0.0  # committed-step work not yet checkpointed
        consecutive_failures = 0
        degradations: list[FaultEvent] = []

        # checkpoint 0: the initial state is always restorable
        t_sim += self._write_checkpoint(0, stats)
        stats.checkpoint_time += t_sim

        step = 0
        first_pass_through = 0  # highest step index ever committed
        while step < nsteps:
            try:
                dt = self.app.step()
            except SdcDetected:
                # an earlier undetected flip tripped an in-step ABFT
                # guard: the state is corrupt, roll back to a checkpoint
                stats.sdc_detected += 1
                stats.lost_work_time += pending_useful
                self._trace_fault("sdc", t_sim, pending_useful)
                pending_useful = 0.0
                stats.failures_by_kind["sdc"] = (
                    stats.failures_by_kind.get("sdc", 0) + 1
                )
                consecutive_failures += 1
                self._check_retries(consecutive_failures)
                recovery, step = self._recover(stats, consecutive_failures,
                                               use_policy=False, t_sim=t_sim)
                t_sim += recovery
                continue
            event = self._pending_event(t_sim + dt)
            if event is not None and event.fatal:
                # the step dies mid-flight: everything since the last
                # checkpoint (committed-but-unsaved steps + the partial
                # step) is lost work
                partial = min(max(event.time - t_sim, 0.0), dt)
                stats.lost_work_time += pending_useful + partial
                self._trace_fault(event.kind.value, event.time,
                                  pending_useful + partial)
                pending_useful = 0.0
                t_sim = max(t_sim + partial, event.time)
                stats.failures_by_kind[event.kind.value] = (
                    stats.failures_by_kind.get(event.kind.value, 0) + 1
                )
                try:
                    self.injector.fire(event, comm=self.comm, device=self.device)
                except SimulatedFault:
                    pass  # detected; recover below
                consecutive_failures += 1
                self._check_retries(consecutive_failures)
                recovery, step = self._recover(stats, consecutive_failures,
                                               event=event, t_sim=t_sim)
                t_sim += recovery
                continue

            if event is not None and event.kind is FaultKind.SDC:
                # the flip lands in live state *after* the step's math —
                # silently; only the app's own guards can notice
                self.injector.fire(event, arrays=self._sdc_arrays())
                stats.sdc_injected = len(self.injector.sdc_injected)
                if self._sdc_detected():
                    stats.sdc_detected += 1
                    stats.lost_work_time += pending_useful + dt
                    self._trace_fault("sdc", event.time, pending_useful + dt)
                    pending_useful = 0.0
                    t_sim = max(t_sim + dt, event.time)
                    stats.failures_by_kind["sdc"] = (
                        stats.failures_by_kind.get("sdc", 0) + 1
                    )
                    consecutive_failures += 1
                    self._check_retries(consecutive_failures)
                    recovery, step = self._recover(stats, consecutive_failures,
                                                   use_policy=False)
                    t_sim += recovery
                    continue
                # undetected: the corruption rides on — and will be
                # checkpointed, which is exactly the danger being measured

            # the step survived; account link degradation slowdowns and
            # the throughput haircut of running below initial width
            extra = self._degradation_penalty(t_sim, dt, event, degradations, stats)
            narrow = dt * (self.throughput_factor - 1.0)
            t_sim += dt + extra + narrow
            pending_useful += dt
            step += 1
            if step <= first_pass_through:
                stats.steps_replayed += 1
            else:
                first_pass_through = step
            stats.degraded_time += extra
            stats.degraded_throughput_time += narrow

            if step % self.checkpoint_interval == 0 or step == nsteps:
                ckpt_time = self._write_checkpoint(step, stats, t_sim)
                t_sim += ckpt_time
                stats.checkpoint_time += ckpt_time
                stats.useful_time += pending_useful
                pending_useful = 0.0
                consecutive_failures = 0

        stats.useful_time += pending_useful
        stats.steps_completed = nsteps
        stats.wall_clock = t_sim
        if self.comm is not None:
            # campaign time is visible on the simulated communicator too
            self.comm.advance_all(max(t_sim - self.comm.elapsed, 0.0))
            stats.ranks_final = self.comm.machine_ranks
        if self.injector is not None:
            stats.sdc_injected = len(self.injector.sdc_injected)
            stats.events_drawn = self.injector.events_drawn
            stats.events_fired = len(self.injector.events_fired)
            stats.events_requeued_pending = self.injector.events_pending_requeued
            stats.assert_event_conservation()
        if tr is not None:
            m = tr.metrics
            m.gauge("resilience.useful_time").set(stats.useful_time)
            m.gauge("resilience.wall_clock").set(stats.wall_clock)
            m.gauge("resilience.overhead_fraction").set(stats.overhead_fraction)
            m.counter("resilience.steps_replayed").inc(stats.steps_replayed)
        return stats

    # -- helpers --------------------------------------------------------------

    def _pending_event(self, horizon: float) -> FaultEvent | None:
        """Pop the next injector event if it fires before *horizon*."""
        if self.injector is None:
            return None
        event = self.injector.peek()
        if event is None or event.time >= horizon:
            return None
        return self.injector.pop()

    def _degradation_penalty(self, t_sim: float, dt: float,
                             event: FaultEvent | None,
                             degradations: list[FaultEvent],
                             stats: ResilienceStats) -> float:
        if event is not None and event.kind is FaultKind.LINK_DEGRADATION:
            # non-fatal, but still *fired*: conservation accounting means
            # no popped event ever disappears into a local variable.  The
            # communicator gets the degradation window too, so collectives
            # priced while it is active see the degraded fabric instead of
            # a stale cached link.
            self.injector.fire(event, comm=self.comm)
            degradations.append(event)
            stats.degradations_seen += 1
        active = [e for e in degradations if e.time + e.duration > t_sim]
        degradations[:] = active
        extra = 0.0
        for e in active:
            overlap = min(t_sim + dt, e.time + e.duration) - max(t_sim, e.time)
            if overlap > 0:
                extra += overlap * (e.slowdown - 1.0)
        return extra

    def _check_retries(self, consecutive_failures: int) -> None:
        if consecutive_failures > self.max_retries:
            raise ResilienceError(
                f"{consecutive_failures} consecutive failures without "
                f"reaching a checkpoint (max_retries={self.max_retries})"
            )

    def _sdc_arrays(self) -> list:
        """The app's live corruptible arrays (``sdc_targets()`` hook)."""
        hook = getattr(self.app, "sdc_targets", None)
        return list(hook()) if callable(hook) else []

    def _sdc_detected(self) -> bool:
        """Run the app's checksum audit (``validate_state()`` hook)."""
        validate = getattr(self.app, "validate_state", None)
        if not callable(validate):
            return False
        try:
            validate()
        except SdcDetected:
            return True
        return False

    def _trace_fault(self, kind: str, t: float, lost_work: float) -> None:
        """Mark a fired fault on the timeline and bump its counters."""
        tr = self.tracer
        if tr is None:
            return
        tr.instant(f"fault.{kind}", ts=t, cat="resilience",
                   pid="resilience", tid="runner",
                   lost_work=float(lost_work))
        m = tr.metrics
        m.counter(f"resilience.faults[{kind}]").inc()
        m.counter("resilience.lost_work_seconds").inc(float(lost_work))

    def _recover(self, stats: ResilienceStats, consecutive_failures: int, *,
                 event: FaultEvent | None = None,
                 use_policy: bool = True,
                 t_sim: float = 0.0) -> tuple[float, int]:
        """Pay policy recovery + backoff + restore; returns
        ``(seconds, step)``.  SDC rollbacks set ``use_policy=False`` —
        the nodes are healthy, only the data is poisoned, so recovery is
        a pure checkpoint rewind."""
        backoff = self.backoff_base * (2.0 ** (consecutive_failures - 1) - 1.0)
        policy_time = (self.policy.recover(self, event, stats)
                       if use_policy else 0.0)
        restored_step, read_time = self._restore_latest_valid(stats)
        total = policy_time + backoff + read_time
        stats.recovery_time += total
        stats.recoveries += 1
        tr = self.tracer
        if tr is not None:
            idx = tr.begin("resilience.recovery", ts=t_sim, cat="resilience",
                           pid="resilience", tid="runner",
                           policy=self.policy.name if use_policy else "rewind",
                           restored_step=int(restored_step))
            tr.record("resilience.restore", t_sim + policy_time + backoff,
                      read_time, cat="resilience", pid="resilience",
                      tid="runner", restored_step=int(restored_step))
            tr.end(idx, ts=t_sim + total)
            tr.metrics.counter("resilience.recoveries").inc()
        return total, restored_step
