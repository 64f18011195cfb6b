"""Compare the CLI outputs of two source checkouts, cell by cell.

    python scripts/compare_outputs.py --parent DIR --first 1 --last 30

For the parent checkout DIR and for the checkout that holds this script,
one fresh Python process with that checkout's ``src`` on its path calls
``avwiretap.cli.main`` in-process for every seed in ``--first``..``--last``:

  simulate   ``simulate --seed SEED``
  verify     ``verify --seed SEED`` at the light and at the standard budget
  analysis   the seven ``rate``, ``region`` and ``schedule`` invocations
             (indexes 0-6) that ``perfbench/workloads.py::invocation``
             generates for the ``analysis`` workload at that seed

The inputs come from this checkout's ``perfbench/workloads.py`` (the only
module read from ``perfbench``), so both sides get the same configs.  The
script prints every differing exit code and every differing (row key,
column) cell, then one ``identical k of m`` line per command, and exits 1
when any output differs.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ANALYSIS_INDEXES = range(7)  # one pass over workloads.ANALYSIS_CYCLE

# Runs in the child process: reads the jobs as JSON on stdin, runs each
# through cli.main with its "{config}" and "{out}" arguments put to
# scratch files, and prints {job id: [exit code, CSV text]} as JSON.
_WORKER = """
import contextlib, io, json, os, sys, tempfile
from avwiretap import cli
if not os.path.realpath(cli.__file__).startswith(os.path.realpath(sys.argv[1])):
    sys.exit(f"imported {cli.__file__}, not the checkout's {sys.argv[1]}")
results = {}
with tempfile.TemporaryDirectory() as tmp:
    paths = {"{config}": os.path.join(tmp, "cfg.json"), "{out}": os.path.join(tmp, "out.csv")}
    for job in json.load(sys.stdin):
        with open(paths["{config}"], "w") as fh:
            json.dump(job["config"], fh)
        if os.path.exists(paths["{out}"]):
            os.remove(paths["{out}"])
        argv = [paths.get(arg, arg) for arg in job["argv"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = ""
        if os.path.exists(paths["{out}"]):
            with open(paths["{out}"]) as fh:
                text = fh.read()
        results[job["id"]] = [code, text]
print(json.dumps(results))
"""


def jobs(seeds) -> list[dict]:
    """Every invocation as {id, label (the command it counts under), argv,
    config}, in order."""
    workloads = _workloads()
    out = []
    for seed in seeds:
        argv = ["simulate", "--seed", str(seed), "--out", "{out}"]
        out.append({"id": f"simulate seed {seed}", "label": "simulate", "argv": argv, "config": {}})
        for budget in ("light", "standard"):
            argv = ["verify", "--seed", str(seed), "--config", "{config}", "--out", "{out}"]
            out.append({"id": f"verify {budget} seed {seed}", "label": f"verify {budget}",
                        "argv": argv, "config": {"budget": budget}})
        for index in ANALYSIS_INDEXES:
            inv = workloads.invocation("analysis", seed, index, "{config}", "{out}")
            out.append({"id": f"analysis seed {seed} #{index} ({inv.argv[0]})", "label": inv.argv[0],
                        "argv": list(inv.argv), "config": inv.config})
    return out


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("compare_outputs_workloads", path)
    # registered first: its dataclasses look their module up by name
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_side(checkout: Path, job_list: list[dict]) -> dict:
    """{job id: (exit code, CSV text)} of every job, run in one fresh
    process on ``checkout``'s ``src``."""
    src = str(Path(checkout).resolve() / "src")
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-c", _WORKER, src], input=json.dumps(job_list),
            capture_output=True, text=True, env=env, cwd=cwd, check=True,
        )
    return json.loads(proc.stdout)


def _table(text: str) -> dict:
    """{cell key: cell} of a CLI table: each metadata line under
    ``# key``, each data cell under ``row i (first column=value) column``."""
    cells, header = {}, None
    for i, row in enumerate(csv.reader(line for line in text.splitlines() if line)):
        if row and row[0].startswith("#"):
            key, _, value = ",".join(row)[1:].strip().partition("=")
            cells[f"# {key}"] = value
        elif header is None:
            header, first = row, i + 1
        else:
            for column, cell in zip(header, row):
                cells[f"row {i - first} ({header[0]}={row[0]}) {column}"] = cell
            if len(row) != len(header):
                cells[f"row {i - first} width"] = str(len(row))
    return cells


def compare(parent: dict, change: dict, job_list: list[dict]) -> tuple[list[str], dict]:
    """The difference lines and {command label: [identical, total]}."""
    lines, tally = [], {}
    for job in job_list:
        (code_a, text_a), (code_b, text_b) = parent[job["id"]], change[job["id"]]
        counts = tally.setdefault(job["label"], [0, 0])
        counts[1] += 1
        diffs = [] if code_a == code_b else [f"exit code: {code_a} -> {code_b}"]
        a, b = _table(text_a), _table(text_b)
        for key in [*a, *(k for k in b if k not in a)]:
            if a.get(key) != b.get(key):
                diffs.append(f"{key}: {a.get(key, '(none)')} -> {b.get(key, '(none)')}")
        lines += [f"{job['id']}: {d}" for d in diffs]
        counts[0] += not diffs
    return lines, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare CLI outputs of two checkouts")
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--last", type=int, default=30)
    args = parser.parse_args(argv)
    job_list = jobs(range(args.first, args.last + 1))
    lines, tally = compare(run_side(args.parent, job_list), run_side(ROOT, job_list), job_list)
    for line in lines:
        print(line)
    for label, (same, total) in tally.items():
        print(f"{label}: identical {same} of {total}")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
