"""Wall-clock layer tracing from outside the program.

The traced run times calls into each layer's public functions and
methods.  Nothing in the package is edited: :class:`LayerTracer` swaps
the functions and methods for wrappers that open a span on a
``Tracer(clock=time.perf_counter)`` around the original call, and puts
the originals back when the run ends.

All spans share one lane, so a span's parent is the span that was open
when it began.  A layer's *self time* is its span durations minus the
durations of the spans nested directly inside them.  The iteration's
root span belongs to no layer, so its self time is the time no named
layer accounts for.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

from repro.observability import Tracer

ROOT_SPAN = "bench.iteration"
_LANE = {"pid": "perfbench", "tid": "main"}


class Patcher:
    """Attribute swaps that :meth:`restore` (or leaving ``with``) undoes."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Swap ``owner.attr`` for *value* until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class LayerTracer(Patcher):
    """Patches layer entry points with spans on one wall-clock tracer.

    The tracer outlives :meth:`restore`, so spans from several traced
    iterations accumulate until the run writes them out.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tracer = Tracer(clock=time.perf_counter)
        #: counts the wrappers' ``after`` hooks add (bytes, pairs, ...)
        self.counts: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)

    def span(self, name: str):
        return self.tracer.span(name, cat=name.split(".")[0], **_LANE)

    def wrap(self, layer: str, fn: Callable,
             after: Callable | None = None) -> Callable:
        """*fn* inside a *layer* span; ``after(result, args)`` runs once
        the span has closed, so its cost is not charged to the layer,
        and only for the outermost call, so a constructor that calls its
        base constructor is counted once."""
        tr = self.tracer
        cat = layer.split(".")[0]
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tr.begin(layer, cat=cat, **_LANE)
            depth[layer] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
                tr.end(index)
            if after is not None and depth[layer] == 0:
                after(out, args)
            return out

        return traced

    def patch_method(self, cls: type, attr: str, layer: str,
                     after: Callable | None = None) -> None:
        """Wrap ``cls.attr``; only an attribute *cls* itself defines, so
        an override and the method it overrides are wrapped separately."""
        self.replace(cls, attr, self.wrap(layer, cls.__dict__[attr], after))

    def patch_function(self, fn: Callable, layer: str,
                       after: Callable | None = None) -> None:
        """Wrap *fn* in every loaded ``repro`` module that binds it, so
        callers that imported it by name see the wrapper too."""
        wrapper = self.wrap(layer, fn, after)
        bound = [
            (module, name)
            for mod_name, module in list(sys.modules.items())
            if module is not None
            and (mod_name == "repro" or mod_name.startswith("repro."))
            for name, value in list(vars(module).items())
            if value is fn
        ]
        if not bound:
            raise LookupError(f"no repro module binds {fn.__qualname__}")
        for module, name in bound:
            self.replace(module, name, wrapper)


#: span name -> the per-layer metric holding its self time
SELF_TIME_METRIC = {
    "chem.rhs": "chem.rhs_s",
    "chem.jac": "chem.jac_s",
    "ode.integrate": "ode.self_s",
    "mpisim.partition": "mpisim.partition_s",
    "mpisim.comm_init": "mpisim.comm_init_s",
    "mpisim.collective": "mpisim.collective_s",
    "mpisim.neighbor": "mpisim.neighbor_s",
    "mpisim.fault": "mpisim.fault_s",
    "resilience.run": "resilience.run_s",
    "resilience.snapshot": "resilience.snapshot_s",
    "apps.step": "apps.step_s",
    "service.engine": "service.engine_self_s",
    "service.plan": "service.plan_s",
    "service.make_app": "service.make_app_s",
    "service.execute": "service.execute_s",
    "similarity.pack": "similarity.pack_s",
    "similarity.count": "similarity.count_s",
    "similarity.verify": "similarity.verify_s",
    "particles.forces": "particles.forces_s",
}
#: spans whose call count is a per-layer metric (``<span>_calls``)
CALLED_SPANS = (
    "chem.rhs", "chem.jac", "mpisim.partition", "mpisim.comm_init",
    "mpisim.collective", "mpisim.neighbor", "mpisim.fault",
    "resilience.snapshot", "apps.step", "service.plan", "service.make_app",
    "particles.forces",
)


def layer_profile(tracer: Tracer) -> dict[str, dict[str, float]]:
    """``{span name: {"calls", "self_s"}}`` over closed spans.

    ``calls`` counts only entries from another layer: a method that
    calls its own overridden base is one call, not two.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for span in spans:
        if span.dur is None:
            raise ValueError(f"span {span.name!r} never closed")
        if span.parent is not None:
            child_time[span.parent] += span.dur
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        entry = out[span.name]
        entry["self_s"] += span.dur - child_time[span.index]
        parent = spans[span.parent] if span.parent is not None else None
        if parent is None or parent.name != span.name:
            entry["calls"] += 1
    return dict(out)


def instrument(lt: LayerTracer) -> None:
    """Put a span around every layer entry point the workloads reach.

    The span names are the per-layer metric prefixes.  A layer a
    workload bypasses keeps its wrappers and simply records no span.
    """
    from repro.apps import exasky, pele
    from repro.mpisim import comm, partition, scaled
    from repro.particles import pm
    from repro.resilience import runner, snapshot
    from repro.service import engine, job, scheduler
    from repro.similarity import gemmtally

    # chem + ode: wrap the RHS and Jacobian callables on the real
    # integrate_chemistry_batched path, where pele hands them over
    base = pele.BatchedBdfIntegrator

    class TracedIntegrator(base):
        def __init__(self, rhs, *, jac=None, **kwargs):
            super().__init__(
                lt.wrap("chem.rhs", rhs),
                jac=None if jac is None else lt.wrap("chem.jac", jac),
                **kwargs)

    TracedIntegrator.integrate = lt.wrap("ode.integrate", base.integrate)
    lt.replace(pele, "BatchedBdfIntegrator", TracedIntegrator)

    def comm_built(_, args):
        lt.counts["mpisim.live_ranks"] += args[0].nranks
        lt.counts["mpisim.machine_ranks"] += args[0].machine_ranks

    lt.patch_method(partition.RankGroupPartitioner, "partition",
                    "mpisim.partition")
    lt.patch_function(partition.partition_from_labels, "mpisim.partition")
    for cls in (comm.SimComm, scaled.ScaledComm):
        lt.patch_method(cls, "__init__", "mpisim.comm_init", comm_built)
        for attr, layer in (
            ("reduce", "mpisim.collective"),
            ("allreduce", "mpisim.collective"),
            ("bcast", "mpisim.collective"),
            ("agree", "mpisim.collective"),
            ("alltoallv", "mpisim.collective"),
            ("ineighbor_exchange", "mpisim.neighbor"),
            ("fail_rank", "mpisim.fault"),
            ("restore_rank", "mpisim.fault"),
            ("shrink", "mpisim.fault"),
        ):
            if attr in vars(cls):
                lt.patch_method(cls, attr, layer)
    lt.patch_method(comm.PendingOp, "wait", "mpisim.neighbor")

    def run_done(stats, _):
        c = lt.counts
        c["resilience.checkpoints"] += stats.checkpoints_written
        c["resilience.recoveries"] += stats.recoveries
        c["resilience.failures"] += sum(stats.failures_by_kind.values())
        c["resilience.steps_replayed"] += stats.steps_replayed
        c["resilience.useful_time"] += stats.useful_time
        c["resilience.total_time"] += stats.wall_clock

    def encoded(data, _):
        lt.counts["resilience.snapshot_bytes"] += len(data)

    def decoded(_, args):
        lt.counts["resilience.snapshot_bytes"] += len(args[0])

    lt.patch_method(runner.ResilientRunner, "run", "resilience.run", run_done)
    lt.patch_function(snapshot.encode_snapshot, "resilience.snapshot",
                      encoded)
    lt.patch_function(snapshot.decode_snapshot, "resilience.snapshot",
                      decoded)
    lt.patch_method(exasky.ExaskyCampaign, "step", "apps.step")
    lt.patch_method(pele.PeleChemistryCampaign, "step", "apps.step")

    lt.patch_method(engine.CampaignService, "run", "service.engine")
    lt.patch_method(scheduler.EasyBackfillScheduler, "plan", "service.plan")
    lt.patch_method(job.Job, "make_app", "service.make_app")
    lt.patch_function(engine.execute_campaign, "service.execute")

    def packed(out, args):
        lt.counts["similarity.bytes_computed"] += (
            np.asarray(args[0]).nbytes + out.words.nbytes)

    def counted(out, args):
        lt.counts["similarity.bytes_computed"] += (
            args[0].words.nbytes + out.nbytes)

    def forces_done(_, args):
        n = len(args[0])
        lt.counts["particles.pairs"] += n * (n - 1) / 2

    lt.patch_function(gemmtally.pack_alleles, "similarity.pack", packed)
    lt.patch_function(gemmtally.popcount_tallies_2way, "similarity.count",
                      counted)
    lt.patch_function(gemmtally.popcount_tallies_3way, "similarity.count",
                      counted)
    lt.patch_function(gemmtally.tally_marginal_checksums,
                      "similarity.verify")
    lt.patch_function(gemmtally.verify_tallies, "similarity.verify")
    lt.patch_function(pm.short_range_forces, "particles.forces", forces_done)


def slow_chem_rhs(patcher: Patcher, factor: int) -> None:
    """Evaluate the chemistry RHS *factor* times per call: a deliberate
    slowdown of ``wdot`` alone, for the benchmark's self-check."""
    from repro.apps import pele

    base = pele.BatchedBdfIntegrator

    class SlowRhsIntegrator(base):
        def __init__(self, rhs, **kwargs):
            def slowed(t, y):
                for _ in range(factor - 1):
                    rhs(t, y)
                return rhs(t, y)

            super().__init__(slowed, **kwargs)

    patcher.replace(pele, "BatchedBdfIntegrator", SlowRhsIntegrator)
