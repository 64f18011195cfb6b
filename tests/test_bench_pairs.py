"""Smoke test of ``scripts/bench_pairs.py``, which nothing else runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_checkout_paired_with_itself_writes_every_key(tmp_path):
    notes = tmp_path / "notes.txt"
    notes.write_text("first line\nsecond line\n")
    out = tmp_path / "bench.json"
    code = _load_script().main([
        "--parent", str(ROOT), "--workload", "analysis", "--pairs", "1", "--seconds", "1",
        "--out", str(out), "--attach", f"sweep.parent={notes}",
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"what", "parent_commit", "machine", "runs", "summary", "sweep"}
    assert report["sweep"] == {"parent": ["first line", "second line"]}
    assert report["machine"]["nproc"] >= 1
    assert not {"git_commit", "src_sha256"} & set(report["machine"])
    runs = report["runs"]
    assert [(run["order"], run["pair"], run["side"]) for run in runs] == [
        (1, 0, "parent"), (2, 0, "change"),
    ]
    assert all(run["returncode"] == 0 and run["result"]["correct"] for run in runs)
    entry = report["summary"]["analysis"]
    assert set(entry) == {"setup_s", "invocation_ref", "peak_rss_mb", "attempted_invocations",
                          "failed_invocations", "all_correct"}
    for name in ("setup_s", "invocation_ref", "peak_rss_mb"):
        metric = entry[name]
        assert set(metric) == {"parent", "change", "change_better_in_pairs", "unresolved"}
        for side in ("parent", "change"):
            value = runs[side == "change"]["result"]["metrics"][name]["value"]
            assert metric[side] == {"q1": value, "median": value, "q3": value}
        assert metric["change_better_in_pairs"] in ("0 of 1", "1 of 1")
        assert isinstance(metric["unresolved"], bool)
    assert entry["failed_invocations"] == {"parent": 0, "change": 0}
    assert all(entry["attempted_invocations"][side] > 0 for side in ("parent", "change"))
    assert entry["all_correct"] is True
