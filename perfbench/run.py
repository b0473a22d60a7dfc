"""The repository benchmark: one entry point for every workload.

    python3 perfbench/run.py --workload chem-stage --seed 0 --seconds 16 --trace 0

Runs from the root of a source checkout; imports the package from its
``src/`` and nothing else.  One process, one Python thread, BLAS pinned
to one thread.

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json`` with tracing off.  ``--trace 1`` alternates untraced
and traced iterations and reports the per-layer metrics (self time and
calls of every layer, the program's own exact counts) and the tracing
overhead; its spans go to one Chrome/Perfetto trace under
``.perfbench/``.  Either way every operation's output is checked outside
the timed region, against an oracle for the warm-up iteration and bit
for bit against the warm-up (and against earlier runs of the same
sources and seed) for every later one.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
#: one BLAS thread: the run stays within the host's cores and the
#: figures do not move with whatever else the other cores run
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS")
#: iterations a run times at least, whatever --seconds says
MIN_ITERATIONS = 3
#: share of the timed loop spent on the host reference
REF_SHARE = 0.2
#: import-and-build samples: this process plus this many fresh
#: interpreters (the warm-up iteration is timed once, in this process)
SETUP_PROBES = 2


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-rhs-slowdown", type=int, default=1,
                   metavar="N",
                   help="self-check only: evaluate the chemistry RHS N "
                        "times per call")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0 or args.inject_rhs_slowdown < 1:
        p.error("--seconds must be positive, --seed and "
                "--inject-rhs-slowdown non-negative / at least 1")
    return args


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest() -> str:
    """sha256 over the package sources: the 'same code' key."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "unknown"
    if Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, workload, src_sha: str) -> dict:
    import numpy
    import scipy

    from repro.backend import resolve_backend

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject_rhs_slowdown": args.inject_rhs_slowdown,
        "work_unit": workload.work_unit,
        "stresses": list(workload.stresses),
        "bypasses": list(workload.bypasses),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas_vendor,
        "blas_threads": BLAS_THREADS,
        "backend": resolve_backend(None).name,
        "git_sha": git_sha(),
        "src_sha256": src_sha,
    }


def probe_setup(args) -> float:
    """Imports and input build in a fresh interpreter, in seconds."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "1"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{out.stderr}")
    return float(json.loads(out.stdout.splitlines()[-1])["setup_s"])


def normalize(record) -> list:
    """JSON round trip, so records compare equal to stored ones."""
    return json.loads(json.dumps(record))


class Ledger:
    """Per-iteration records compared, op by op, with the warm-up's."""

    def __init__(self, reference: list) -> None:
        self.reference = reference
        self.mismatches: list[set[int]] = [set()]  # the warm-up itself

    def add(self, record: list) -> None:
        record, ref = normalize(record), self.reference
        if len(record) != len(ref):
            self.mismatches.append(set(range(len(ref))))
        else:
            self.mismatches.append(
                {i for i, (a, b) in enumerate(zip(record, ref)) if a != b})

    def totals(self, bad: set[int]) -> tuple[int, int]:
        """``(attempted, failed)``; *bad* ops failed the oracle or an
        earlier run, so they fail in every iteration."""
        attempted = len(self.reference) * len(self.mismatches)
        return attempted, sum(len(m | bad) for m in self.mismatches)


def stored_mismatches(path: Path, reference: list) -> set[int]:
    """Ops whose record differs from the one an earlier run stored for
    the same sources and seed; the first run stores its own."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(reference))
        os.replace(tmp, path)
        return set()
    stored = json.loads(path.read_text())
    if len(stored) != len(reference):
        return set(range(len(reference)))
    return {i for i, (a, b) in enumerate(zip(stored, reference)) if a != b}


def timed(workload):
    t0 = time.perf_counter()
    it = workload.iteration()
    return it, time.perf_counter() - t0


def host_reference_unit() -> float:
    """Seconds of a fixed computation shaped like the workloads: small
    numpy operations driven from Python, plain interpreter work, and
    streaming array passes, about 10 ms in all."""
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(2023)
    a, m = rng.uniform(size=(48, 22)), rng.uniform(size=(22, 22))
    acc = 0.0
    for _ in range(300):
        b = np.maximum(a @ m - 0.5, 0.0)
        acc += float(np.einsum("ij,ij->", b, b))
    table: dict[int, int] = {}
    for i in range(30_000):
        table[i % 97] = table.get(i % 97, 0) + i
    v = rng.uniform(size=100_000)
    for _ in range(10):
        v = np.sqrt(v * v + 1.0)
    if not np.isfinite(acc + sum(table.values()) + v[0]):
        raise ArithmeticError("host reference diverged")
    return time.perf_counter() - t0


def time_reference(budget_s: float) -> tuple[float, int]:
    """Reference units run back to back for at least *budget_s*:
    ``(seconds, units)``."""
    seconds, units = 0.0, 0
    while units == 0 or seconds < budget_s:
        seconds += host_reference_unit()
        units += 1
    return seconds, units


def per_layer_values(lt, workload, n_traced: int, counts: dict,
                     untraced_walls: list[float]) -> dict[str, float]:
    """Per-iteration layer metrics from the accumulated traced spans."""
    from layers import (
        CALLED_SPANS,
        ROOT_SPAN,
        SELF_TIME_METRIC,
        layer_profile,
    )

    prof = layer_profile(lt.tracer)
    missing = [s for s in workload.required_spans if s not in prof]
    if missing:
        raise RuntimeError(f"traced run has no {missing} spans")
    unnamed = set(prof) - set(SELF_TIME_METRIC) - {ROOT_SPAN}
    if unnamed:
        raise RuntimeError(f"spans with no per-layer metric: {unnamed}")

    def per_iter(span, key):
        return prof.get(span, {}).get(key, 0) / n_traced

    c = lt.counts
    v = {metric: per_iter(span, "self_s")
         for span, metric in SELF_TIME_METRIC.items()}
    v.update({f"{span}_calls": per_iter(span, "calls")
              for span in CALLED_SPANS})
    v.update({name: c[name] / n_traced for name in (
        "resilience.snapshot_bytes", "resilience.checkpoints",
        "resilience.recoveries", "resilience.failures",
        "resilience.steps_replayed", "similarity.bytes_computed",
        "particles.pairs")})
    v.update({name: float(counts.get(name, 0.0)) for name in (
        "ode.step_rounds", "ode.steps_per_cell", "ode.newton_iters",
        "ode.cells_refactored", "ode.jac_builds", "ode.error_test_failures",
        "ode.newton_failures", "ode.lane_util", "service.backfill_frac",
        "service.requeues", "service.spare_denials")})
    rounds = v["ode.step_rounds"]
    v["ode.self_us_per_round"] = (v["ode.self_s"] / rounds * 1e6
                                  if rounds else 0.0)
    v["mpisim.live_frac"] = (c["mpisim.live_ranks"] / c["mpisim.machine_ranks"]
                             if c["mpisim.machine_ranks"] else 0.0)
    v["resilience.useful_frac"] = (
        c["resilience.useful_time"] / c["resilience.total_time"]
        if c["resilience.total_time"] else 0.0)

    roots = [s.dur for s in lt.tracer.spans if s.name == ROOT_SPAN]
    v["trace.unattributed_s"] = per_iter(ROOT_SPAN, "self_s")
    v["trace.overhead_frac"] = (statistics.median(roots)
                                / statistics.median(untraced_walls) - 1.0)
    # every span is the root or a named layer, so the layers' self
    # times and the unattributed time add up to the traced wall time
    layer_sum = (sum(v[m] for m in SELF_TIME_METRIC.values())
                 + v["trace.unattributed_s"])
    traced_wall = sum(roots) / n_traced
    if abs(layer_sum - traced_wall) > 1e-9 * max(traced_wall, 1.0):
        raise RuntimeError(f"self times sum to {layer_sum!r}, traced wall "
                           f"is {traced_wall!r}")
    return v


def run(args) -> int:
    import layers
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    workload = wl.WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    src_sha = source_digest()
    info = manifest(args, workload, src_sha)
    print("manifest " + json.dumps(info, sort_keys=True))

    lt = layers.LayerTracer() if args.trace else None
    walls: list[float] = []  # untraced iteration walls
    ref_s, ref_units = 0.0, 0  # host reference, between iterations
    ref_samples: list[float] = []  # its mean unit time before each one
    timed_its: list = []  # untraced iterations, outputs dropped
    counts: dict = {}
    with layers.Patcher() as patcher:
        if args.inject_rhs_slowdown > 1:
            layers.slow_chem_rhs(patcher, args.inject_rhs_slowdown)
        warm, warm_wall = timed(workload)
        ledger = Ledger(normalize(workload.record(warm)))
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or len(walls) < (2 if lt else MIN_ITERATIONS)):
            # the host's speed drifts on shared cores: time a fixed
            # reference for a fifth of each iteration, so the run's
            # mean speed can be divided out of its mean iteration time
            seconds, units = time_reference(
                REF_SHARE * (walls[-1] if walls else warm_wall))
            ref_s, ref_units = ref_s + seconds, ref_units + units
            ref_samples.append(seconds / units)
            it, wall = timed(workload)
            walls.append(wall)
            ledger.add(workload.record(it))
            it.outputs = None
            timed_its.append(it)
            if lt is not None:
                # traced iterations alternate with untraced ones, so
                # both see the same drift in the host's speed
                layers.instrument(lt)
                try:
                    with lt.span(layers.ROOT_SPAN):
                        it = workload.iteration()
                finally:
                    lt.restore()
                ledger.add(workload.record(it))
                counts = workload.layer_counts(it)
            it = None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # output checks, outside the timed region
    store = (STATE_DIR / "determinism"
             / f"{args.workload}-seed{args.seed}-{src_sha[:16]}.json")
    attempted, failed = ledger.totals(
        set(workload.check(warm)) | stored_mismatches(store, ledger.reference))

    wall_p50 = statistics.median(walls)
    ref_unit_s = ref_s / ref_units
    print("samples wall_s " + json.dumps(walls))
    print("samples ref_unit_s " + json.dumps(ref_samples))
    named = {
        "wall_s_p50": (wall_p50, "s"),
        "wall_samples": (float(len(walls)), "count"),
        "work_per_s": (warm.work / wall_p50, "1/s"),
        "ref_unit_s": (ref_unit_s, "s"),
        "wall_ref": (statistics.fmean(walls) / ref_unit_s, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_failed_frac": (failed / attempted, "ratio"),
    }
    named.update(workload.named_metrics(warm, timed_its, wall_p50))
    if lt is None:
        probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
        named["setup_s"] = (
            statistics.median([own_setup] + probes) + warm_wall, "s")
        wanted = spec["end_to_end"]
        values = {k: v for k, (v, _) in named.items()}
    else:
        values = per_layer_values(lt, workload, len(walls), counts, walls)
        wanted = spec["per_layer"]
        trace_path = STATE_DIR / f"trace-{args.workload}.json"
        write_trace(lt, info, trace_path)
        print(f"trace {trace_path.relative_to(ROOT)} "
              f"({len(lt.tracer.spans)} spans)")
        named.update({m["name"]: (values[m["name"]], m["unit"])
                      for m in wanted})

    for name, (value, unit) in named.items():
        print(f"metric {name} = {value!r} {unit}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for metrics {missing}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


def write_trace(lt, info: dict, path: Path) -> None:
    from repro.observability import export_chrome_trace, validate_chrome_trace

    doc = json.loads(export_chrome_trace(lt.tracer))
    doc["otherData"] = info
    validate_chrome_trace(doc)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
