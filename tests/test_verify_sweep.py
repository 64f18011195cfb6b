"""Smoke test of ``scripts/verify_sweep.py``, which nothing else runs."""

import functools
import importlib.util
from pathlib import Path

import pytest

from avwiretap import checks
from test_cli import _openblas_setters, _openblas_threads

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_sweep.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("verify_sweep", SCRIPT)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_sweep_prints_one_line_per_row_and_the_any_row_line(capsys):
    sweep = _load_script()
    assert sweep.main(["--budget", "light", "--first", "1", "--last", "2"]) == 0
    header, *rows, any_row = capsys.readouterr().out.splitlines()
    assert header.startswith("# verify light, seeds 1-2")
    assert len(rows) == 10
    assert all("/2" in row and "median_s" in row for row in rows)
    assert rows[1].startswith("output-invariance")
    assert any_row.startswith("(any row)")


def test_sweep_runs_blas_on_one_thread(monkeypatch):
    libs = _openblas_setters()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    sweep = _load_script()
    seen, check = [], checks.quantization_error_check

    @functools.wraps(check)
    def spy(*args, **kwargs):
        seen.append(_openblas_threads(libs))
        return check(*args, **kwargs)

    monkeypatch.setattr(checks, "quantization_error_check", spy)
    original = _openblas_threads(libs)
    try:
        # two threads before the sweep, so a sweep left at the default shows
        for _, put in libs.values():
            put(2)
        sweep.sweep("light", [1])
        after = _openblas_threads(libs)
    finally:
        for path, (_, put) in libs.items():
            put(original[path])
    assert seen == [{path: 1 for path in libs}]
    assert after == {path: 2 for path in libs}
