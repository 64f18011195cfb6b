"""Smoke test of ``scripts/compare_outputs.py``, which nothing else runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_checkout_compared_with_itself_is_identical(capsys):
    script = _load_script()
    assert script.main(["--parent", str(ROOT), "--first", "1", "--last", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "simulate: identical 1 of 1",
        "verify light: identical 1 of 1",
        "verify standard: identical 1 of 1",
        "rate: identical 2 of 2",
        "region: identical 3 of 3",
        "schedule: identical 2 of 2",
    ]


def test_differing_cells_and_exit_codes_are_listed():
    script = _load_script()
    job = {"id": "simulate seed 1", "label": "simulate"}
    table = "# seed=1\nn,d_hat\n2,0.5\n8,0.25\n"
    lines, tally = script.compare(
        {job["id"]: [0, table]}, {job["id"]: [2, table.replace("0.25", "0.3")]}, [job]
    )
    assert lines == [
        "simulate seed 1: exit code: 0 -> 2",
        "simulate seed 1: row 1 (n=8) d_hat: 0.25 -> 0.3",
    ]
    assert tally == {"simulate": [0, 1]}
