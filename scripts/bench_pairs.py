"""Run the benchmark on a parent checkout and on this one in alternating
pairs, and write every run and a per-metric summary as one JSON file.

    python scripts/bench_pairs.py --parent DIR --workload simulate \\
        --workload verify --pairs 10 --seconds 30 --out BENCH_abc1234.json

For each workload (every one that ``BENCHMARK.json`` lists when
``--workload`` is not given), pair i runs ``perfbench/run.py --workload W
--seed SEED+i --seconds S --trace 0`` once from the root of DIR and once
from the root of the checkout that holds this script, one run at a time;
the parent goes first in even pairs and the change in odd ones.  Each run
is the checkout's own ``perfbench`` on its own ``src``.  The last stdout
line of a run is its JSON result; the ``# machine`` line before it is kept
with it.

The file holds ``what``, ``parent_commit`` (the git commit that the
parent's runs report), ``machine`` (the change side's machine line,
without its commit and source hash), ``runs`` and ``summary``.  For each
workload and each end-to-end metric of ``BENCHMARK.json``, ``summary``
gives both sides' quartiles (inclusive method) and medians, in how many
pairs the change was better, and ``unresolved``: true when the change's
median lies inside the parent's quartiles, so the difference of medians is
no larger than the parent's own spread.  ``--attach KEY=FILE`` stores the
lines of a text file (say, the output of ``compare_outputs.py``) under KEY,
a dotted KEY nesting it.  The file is rewritten after every pair, so a cut
session leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run from the root of ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line[len("# machine "):]) for line in lines
                    if line.startswith("# machine ")), None)
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return {"returncode": proc.returncode, "machine": machine, "result": result,
            "stderr": proc.stderr.splitlines()[-5:]}


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs, metrics) -> dict:
    """Per workload: per end-to-end metric both sides' quartiles, the pairs
    the change wins and whether the difference is unresolved; and the
    invocation counts of each side."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        pairs = {}
        for run in mine:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        complete = [p for p in pairs.values() if p.get("parent") and p.get("change")]
        entry = {}
        for name, better in metrics.items():
            if not complete:
                break
            parent_values = [p["parent"]["metrics"][name]["value"] for p in complete]
            change_values = [p["change"]["metrics"][name]["value"] for p in complete]
            parent, change = quartiles(parent_values), quartiles(change_values)
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent_values, change_values))
            entry[name] = {
                "parent": parent,
                "change": change,
                "change_better_in_pairs": f"{wins} of {len(complete)}",
                "unresolved": parent["q1"] <= change["median"] <= parent["q3"],
            }
        for key, field in (("attempted_invocations", "attempted"), ("failed_invocations", "failed")):
            entry[key] = {side: sum(run["result"][field] for run in mine
                                    if run["side"] == side and run["result"])
                          for side in ("parent", "change")}
        entry["all_correct"] = all(run["result"] and run["result"]["correct"] for run in mine)
        out[workload] = entry
    return out


def attach(report: dict, spec: str) -> None:
    key, sep, path = spec.partition("=")
    if not sep:
        raise SystemExit(f"--attach wants KEY=FILE, not {spec!r}")
    *outer, last = key.split(".")
    node = report
    for part in outer:
        node = node.setdefault(part, {})
    node[last] = Path(path).read_text().splitlines()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--what", default="", help="a sentence on the change measured")
    parser.add_argument("--attach", action="append", default=[], metavar="KEY=FILE")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    report = {
        "what": (f"perfbench/run.py --trace 0 ({args.seconds:g}-s runs) on the parent "
                 f"checkout and on this one, {args.pairs} alternating pairs per workload "
                 f"(seeds {args.seed}-{args.seed + args.pairs - 1}), one run at a time. "
                 + args.what).strip(),
        "parent_commit": None,
        "machine": None,
        "runs": [],
        "summary": {},
    }
    for spec_arg in args.attach:
        attach(report, spec_arg)
    for workload in workloads:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(sides[side], workload, seed, args.seconds)
                report["runs"].append({"order": len(report["runs"]) + 1, "pair": pair,
                                       "side": side, "workload": workload, "seed": seed, **run})
                machine = run["machine"] or {}
                if side == "parent" and report["parent_commit"] is None:
                    report["parent_commit"] = machine.get("git_commit")
                if side == "change" and not report["machine"]:
                    report["machine"] = {key: value for key, value in machine.items()
                                         if key not in ("git_commit", "src_sha256")}
            report["summary"] = summarize(report["runs"], metrics)
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["summary"].items():
        for name in metrics:
            if name in entry:
                m = entry[name]
                print(f"{workload} {name}: parent {m['parent']['median']:.6g} "
                      f"change {m['change']['median']:.6g} better in "
                      f"{m['change_better_in_pairs']}"
                      f"{' (unresolved)' if m['unresolved'] else ''}")
        print(f"{workload}: all correct {entry['all_correct']}")
    return 0 if all(entry["all_correct"] for entry in report["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
