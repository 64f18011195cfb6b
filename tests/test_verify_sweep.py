"""Smoke test of ``scripts/verify_sweep.py``, which nothing else runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_sweep.py"


def test_sweep_prints_one_line_per_row_and_the_any_row_line(capsys):
    spec = importlib.util.spec_from_file_location("verify_sweep", SCRIPT)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--budget", "light", "--first", "1", "--last", "2"]) == 0
    header, *rows, any_row = capsys.readouterr().out.splitlines()
    assert header.startswith("# verify light, seeds 1-2")
    assert len(rows) == 10
    assert all("/2" in row and "median_s" in row for row in rows)
    assert rows[1].startswith("output-invariance")
    assert any_row.startswith("(any row)")
