"""The benchmark's tracer still finds every function it wraps, and a traced
benchmark run ends in a strict-JSON result with finite metrics."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def _refuse_constant(name):
    raise ValueError(f"non-finite value {name} in the result line")


def test_traced_run_prints_strict_json_with_finite_metrics():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    bad = {name: m["value"] for name, m in metrics.items()
           if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"]))}
    assert bad == {}
