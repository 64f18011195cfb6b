"""Benchmark driver for avwiretap.

    python3 perfbench/run.py --workload {simulate,verify,analysis} \\
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from
``src/``.  One process, one client, closed loop: ``avwiretap.cli.main`` is
called in this warm interpreter, one invocation after another, each with
its own seed or generated config derived from ``--seed`` (see
``workloads.py``), so no invocation repeats an earlier input.

Before the timed loop, the first invocation is run twice with the same
input and its CSV must be byte-identical.  Every invocation's exit code
and CSV are checked, outside the timed call; one that raises, exits
unexpectedly or writes a bad table counts as failed.  Damaged copies of the
first correct CSV of each kind must fail the check (a negative control).  A `verify` battery
that comes back red (exit 2) is not a failure; it is counted in
``checks.failed_rows``.

``--trace 0`` prints the end-to-end metrics:
  setup_s         median seconds to ``import avwiretap.cli`` in a fresh
                  interpreter, over several interpreters
  invocation_ref  wall time per warm ``cli.main`` call in units of a fixed
                  reference loop timed on either side of it (``reference_loop``):
                  the median over the run's blocks of (mean call seconds /
                  mean reference-loop seconds), where a block is
                  ``workloads.BLOCK_CALLS`` consecutive invocations (one
                  call for simulate and verify, one pass over the analysis
                  mix)
  peak_rss_mb     high-water resident set of this process
The unscaled median wall seconds per call is printed on a comment line.
``--trace 1`` alternates untraced and traced invocations on the same
inputs and prints the per-layer metrics of ``tracing.py`` as means per
traced invocation, plus ``invocation_s`` (median wall seconds per untraced
call, over blocks as above) and ``trace_overhead`` (median traced/untraced
ratio minus 1).  The last stdout line is the JSON result; the lines before
it give the machine, every metric with its unit, the sample count,
quartiles, the 90th percentile where at least ten samples lie beyond it,
and the failed fraction.

Why calls are timed against a reference loop: on a small shared host the
speed of this process drifts by up to ~1.4x from one 30-second run to the
next, as other tenants load the machine, and the median seconds per call
drift with it (an interquartile spread of 0.17-0.26 of the median over ten
`analysis` runs).  The reference loop is interpreter-bound work that does
not depend on the program, timed for a few milliseconds between calls,
so it slows with the host but not with the program; the ratio keeps the
program's own cost and drops most of the host's drift.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracing import LAYER_METRICS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_IMPORTS = 5
# After every timed call the reference loop runs for this share of the
# call's seconds, and at least REFERENCE_MIN_LOOPS times; before the first
# call it runs for REFERENCE_START_S.  A call is scaled by the mean of the
# reference times on either side of it.
REFERENCE_SHARE = 0.02
REFERENCE_MIN_LOOPS = 5
REFERENCE_START_S = 0.1
IMPORT_SNIPPET = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import avwiretap.cli\n"
    "t = time.perf_counter() - t\n"
    "assert avwiretap.cli.__file__.startswith(sys.argv[1]), avwiretap.cli.__file__\n"
    "print(repr(t))\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def measure_setup() -> list[float]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for i in range(SETUP_IMPORTS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing avwiretap.cli failed:\n{proc.stderr}")
        if i:  # the first import also writes the bytecode cache
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def reference_loop() -> str:
    """Fixed interpreter-bound work of about a millisecond, of the kind the
    program's scalar rate and schedule loops and CSV writer do: float
    math, calls and number formatting."""
    cells, x = [], 0.0
    for i in range(1, 1500):
        x = math.log1p(i * 1e-3) / (1.0 + i) + 0.5 * math.log2(1.0 + x)
        if i % 3 == 0:
            cells.append(f"{x:.12g}")
    return ",".join(cells)


def time_reference(budget: float) -> float:
    """Mean seconds of one reference loop, over at least
    REFERENCE_MIN_LOOPS loops and ``budget`` seconds."""
    loops, start = 0, perf_counter()
    while loops < REFERENCE_MIN_LOOPS or perf_counter() - start < budget:
        reference_loop()
        loops += 1
    return (perf_counter() - start) / loops


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = None  # a source checkout without git history has only the hash below
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        if (ROOT / ".git").exists():
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class Runner:
    """Makes, times and checks the invocations of one workload run."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.config_path = WORK / "config.json"
        self.out_path = WORK / "out.csv"
        self.failed_rows = 0
        self.failed_checks = set()
        self.rows = 0
        self.errors = []
        self.controlled = set()  # kinds whose negative controls have run
        self.controls_ok = True

    def make(self, index: int) -> workloads.Invocation:
        inv = workloads.invocation(self.workload, self.seed, index,
                                   str(self.config_path), str(self.out_path))
        if inv.config is not None:
            self.config_path.write_text(json.dumps(inv.config))
        return inv

    def call(self, inv: workloads.Invocation):
        """Time one ``cli.main`` call; returns (seconds, exit code, CSV text)."""
        self.out_path.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            try:
                rc = self.cli.main(list(inv.argv))
            except (Exception, SystemExit):
                elapsed = perf_counter() - t0
                self.errors.append(f"{inv.argv}: raised\n{traceback.format_exc()}")
                return elapsed, None, ""
            elapsed = perf_counter() - t0
        text = self.out_path.read_text() if self.out_path.exists() else ""
        return elapsed, rc, text

    def judge(self, inv, rc, text) -> bool:
        """Check one invocation's output and tally its rows.  The first
        correct output of each kind also serves as a negative control:
        damaged copies of it must fail the check."""
        if rc is None:
            return False
        problems = workloads.check(inv, rc, text)
        if problems:
            self.errors.append(f"{inv.argv}: " + "; ".join(problems[:5]))
            return False
        if inv.kind not in self.controlled:
            self.controlled.add(inv.kind)
            for label, damaged in workloads.corruptions(inv, text).items():
                if not workloads.check(inv, rc, damaged):
                    self.errors.append(f"negative control {inv.kind}/{label} passed the output check")
                    self.controls_ok = False
        _, header, rows = workloads.parse_csv(text)
        self.rows += len(rows)
        if inv.kind == "verify":
            failed = [row[0] for row in rows if row[header.index("passed")] == "0"]
            self.failed_rows += len(failed)
            self.failed_checks.update(failed)
        return True

    def preflight(self) -> bool:
        """Untimed warm-up; its rerun with the same input must write the
        same bytes."""
        inv = self.make(0)
        _, rc, first = self.call(inv)
        ok = self.judge(inv, rc, first)
        _, _, again = self.call(self.make(0))
        if again != first:
            self.errors.append("rerun with the same input wrote a different CSV")
            ok = False
        self.rows = self.failed_rows = 0
        self.failed_checks.clear()
        return ok


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def block_means(indexed, size):
    """(mean call seconds, mean reference-loop seconds) of every complete
    block of ``size`` consecutive invocations, given (index, call seconds,
    reference seconds) triples."""
    groups = {}
    for index, elapsed, reference in indexed:
        groups.setdefault((index - 1) // size, []).append((elapsed, reference))
    return [tuple(statistics.fmean(column) for column in zip(*group))
            for group in groups.values() if len(group) == size]


def p90_if_resolved(values):
    """90th percentile, when at least ten samples lie beyond it."""
    if len(values) < 2:
        return None
    p90 = statistics.quantiles(values, n=10)[8]
    return p90 if sum(v > p90 for v in values) >= 10 else None


def run(args) -> dict:
    if not (SRC / "avwiretap" / "cli.py").is_file():
        raise BenchError(f"no avwiretap sources under {SRC}")
    WORK.mkdir(parents=True, exist_ok=True)
    for key in [k for k in os.environ if k.startswith("AVWT_")]:
        del os.environ[key]
    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    from avwiretap import cli

    machine = machine_info()
    print("# machine " + json.dumps(machine, sort_keys=True))

    runner = Runner(cli, args.workload, args.seed)
    correct = runner.preflight()
    tracer = Tracer() if args.trace else None
    times, traced_times, ratios, attempted, failed = [], [], [], 0, 0
    indexed = []  # (invocation index, call seconds, reference-loop seconds) of untraced calls
    index = 1
    reference_before = time_reference(REFERENCE_START_S) if tracer is None else math.nan
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        inv = runner.make(index)
        # in a traced run each input runs untraced and traced, in alternating order
        modes = (False,) if tracer is None else ((False, True) if index % 2 else (True, False))
        pair = {}
        for traced in modes:
            if traced:
                tracer.install()
            try:
                elapsed, rc, text = runner.call(inv)
            finally:
                if traced:
                    tracer.uninstall()
            reference = math.nan  # a traced run reports no invocation_ref
            if tracer is None:
                reference_after = time_reference(REFERENCE_SHARE * elapsed)
                reference = (reference_before + reference_after) / 2
                reference_before = reference_after
            attempted += 1
            if runner.judge(inv, rc, text):
                pair[traced] = elapsed
                (traced_times if traced else times).append(elapsed)
                if not traced:
                    indexed.append((index, elapsed, reference))
            else:
                failed += 1
        if len(pair) == 2:
            ratios.append(pair[True] / pair[False])
        index += 1
    correct = correct and runner.controls_ok and failed == 0

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} failed_frac={failed / max(attempted, 1):.4g} "
          f"samples={len(times)}")
    if runner.errors:
        print("\n".join(runner.errors[:5]), file=sys.stderr)
    if not times:
        return {"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1), "metrics": {}}
    q1, q3 = quartiles(times)
    p90 = p90_if_resolved(times)
    size = workloads.BLOCK_CALLS[args.workload]
    blocks = block_means(indexed, size) or block_means(indexed, 1)
    invocation_s = statistics.median(seconds for seconds, _ in blocks)
    print(f"# per call: median={statistics.median(times):.6g} q1={q1:.6g} q3={q3:.6g} "
          f"p90={'unresolved' if p90 is None else f'{p90:.6g}'} n={len(times)}")
    print(f"# invocation_s={invocation_s:.6g}: median seconds per call over {len(blocks)} "
          f"block(s) of {size} call(s)")
    print(f"# setup_s samples={[round(t, 4) for t in setup]}")
    print(f"# failing verify checks: {sorted(runner.failed_checks) or 'none'}")

    if tracer is None:
        reference_s = statistics.median(reference for _, reference in blocks)
        print(f"# reference loop: median={reference_s:.6g} s")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "invocation_ref": (statistics.median(seconds / reference for seconds, reference in blocks), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.invocations = len(traced_times)
        judged = len(times) + len(traced_times)
        tracer.run_values.update({
            "checks.failed_rows": runner.failed_rows / judged,
            "cli.rows": runner.rows / judged,
            "invocation_s": invocation_s,
            "trace_overhead": statistics.median(ratios) - 1.0 if ratios else 0.0,
        })
        metrics = layer_metrics(tracer)
        missing = sorted(name for name, (value, _) in metrics.items() if value is None)
        if missing:
            print(f"# missing (traced function not found): {', '.join(missing)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {'missing' if value is None else f'{value:.6g}'} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def check_declared(trace: bool) -> None:
    """The metrics run.py emits must be the ones BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        emitted = {name: (unit, better) for name, (unit, better, _, _) in LAYER_METRICS.items()}
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        emitted = {"setup_s": "s", "invocation_ref": "ref", "peak_rss_mb": "MB"}
    if declared != emitted:
        raise BenchError(f"BENCHMARK.json declares {declared}, run.py emits {emitted}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_declared(bool(args.trace))
        result = run(args)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
