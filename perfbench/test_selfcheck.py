"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/test_selfcheck.py

Not part of the package's test suite (``testpaths`` is ``tests/``): the
slowdown check drives ``run.py`` end to end, about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
#: long enough for a median over several iterations of every workload
SECONDS = 6


def bench(workload: str, *, trace: int = 0, slowdown: int = 1) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(SECONDS), "--trace", str(trace),
         "--inject-rhs-slowdown", str(slowdown)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    # "metric <name> = <value> <unit>" lines carry the named figures too
    values = {line.split()[1]: float(line.split()[3])
              for line in lines if line.startswith("metric ")}
    values.update({k: v["value"] for k, v in result["metrics"].items()})
    return values


def test_spec_names_every_workload_and_its_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        cls = workloads.WORKLOADS[entry["name"]]
        stressed, bypassed = entry["why"].split("; stresses ")[1].split(
            "; bypasses ")
        layer_names = [s for s in cls.stresses if s not in ("linalg",
                                                             "backend", "gpu")]
        assert set(layer_names) <= set(stressed.split(", ")), entry
        assert set(cls.bypasses) == set(bypassed.split(", ")), entry
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert BOUND["setup_s"] == max(bounds) <= 0.25


def test_self_times_and_unattributed_sum_to_wall():
    def leaf():
        time.sleep(0.002)

    def outer():
        time.sleep(0.001)
        inner()
        leaf()

    def inner():  # a layer calling itself counts as one call
        time.sleep(0.001)

    with layers.LayerTracer() as lt:
        inner = lt.wrap("layer.a", inner)
        inner = lt.wrap("layer.a", inner)
        leaf = lt.wrap("layer.b", leaf)
        outer = lt.wrap("layer.c", outer)
        with lt.span(layers.ROOT_SPAN):
            outer()
            leaf()
    prof = layers.layer_profile(lt.tracer)
    root = next(s for s in lt.tracer.spans if s.name == layers.ROOT_SPAN)
    assert sum(e["self_s"] for e in prof.values()) == pytest.approx(
        root.dur, rel=1e-12)
    assert prof["layer.a"]["calls"] == 1
    assert prof["layer.b"]["calls"] == 2
    assert prof["layer.b"]["self_s"] >= 0.004


def test_patches_are_undone():
    from repro.apps import pele
    from repro.mpisim import SimComm

    before = (pele.BatchedBdfIntegrator, SimComm.__init__, SimComm.reduce)
    with layers.LayerTracer() as lt:
        layers.instrument(lt)
        layers.slow_chem_rhs(lt, 2)
        assert pele.BatchedBdfIntegrator is not before[0]
    assert (pele.BatchedBdfIntegrator, SimComm.__init__,
            SimComm.reduce) == before


def test_injected_rhs_slowdown_moves_only_chem_stage():
    """A 2x slower chemistry RHS must show on chem-stage beyond the
    end-to-end bounds, in chem.rhs_s, and nowhere else."""
    # wall_ref, not raw seconds: the host's speed can drift by more than
    # the bound between two runs a minute apart
    bound = BOUND["wall_ref"]
    base = bench("chem-stage")
    slow = bench("chem-stage", slowdown=2)
    assert slow["wall_ref"] > base["wall_ref"] * (1 + bound)

    def rhs_share(m):  # of the traced wall, within one run
        wall = (m["chem.rhs_s"] + m["chem.jac_s"] + m["ode.self_s"]
                + m["trace.unattributed_s"])
        return m["chem.rhs_s"] / wall

    base_t = bench("chem-stage", trace=1)
    slow_t = bench("chem-stage", trace=1, slowdown=2)
    assert slow_t["chem.rhs_calls"] == 2 * base_t["chem.rhs_calls"]
    assert rhs_share(slow_t) > 1.3 * rhs_share(base_t)
    assert slow_t["ode.step_rounds"] == base_t["ode.step_rounds"]

    for name in ("machine-scale", "kernel-sweep"):
        base = bench(name)
        slow = bench(name, slowdown=2)
        assert abs(slow["wall_ref"] / base["wall_ref"] - 1) <= bound, (
            name, base["wall_ref"], slow["wall_ref"])
