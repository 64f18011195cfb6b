import ctypes
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwiretap import cli, codebook
from avwiretap.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    ConfigError,
    main,
    parse_matrix,
    read_table,
    write_table,
)
from avwiretap.codebook import ToyScaleError


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    return code, out


def test_parse_matrix_variants():
    assert np.array_equal(parse_matrix({"identity": 2}), np.eye(2))
    assert np.array_equal(parse_matrix({"diagonal": [3, 2]}), np.diag([3.0, 2.0]))
    explicit = parse_matrix(
        {"rows": 1, "cols": 2, "entries": [[1.0, 0.5], [0.0, -1.0]]}
    )
    assert np.array_equal(explicit, np.array([[1 + 0.5j, -1j]]))
    with pytest.raises(Exception):
        parse_matrix({"rows": 2, "cols": 2, "entries": [[1, 0]]})


def test_rate_command_values(tmp_path):
    cfg = _write_cfg(
        tmp_path, "rate.json",
        {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [102.0]},
    )
    code, out = _run(tmp_path, "rate", "--config", cfg)
    assert code == 0
    meta, columns, rows = read_table(out)
    assert meta["version"] and meta["config_hash"]
    assert columns[0] == "pbar"
    rate = float(rows[0][columns.index("secrecy_rate")])
    assert rate == pytest.approx(2 * math.log2(26) - math.log2(101), abs=1e-9)


def test_rate_command_zero_when_eve_covers(tmp_path):
    cfg = _write_cfg(
        tmp_path, "rate.json",
        {"channel": {"identity": 2}, "n_eve": 2, "pbar_grid": [10.0, 100.0, 1000.0]},
    )
    code, out = _run(tmp_path, "rate", "--config", cfg)
    assert code == 0
    _, columns, rows = read_table(out)
    idx = columns.index("secrecy_rate")
    assert all(float(r[idx]) == 0.0 for r in rows)


def test_rate_command_rerun_byte_identical(tmp_path):
    cfg = _write_cfg(
        tmp_path, "rate.json",
        {"channel": {"diagonal": [2, 1]}, "n_eve": 1,
         "pbar_grid": {"start": 10, "stop": 1000, "num": 7}},
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["rate", "--config", cfg, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_region_bc_hull_vertices(tmp_path):
    cfg = _write_cfg(
        tmp_path, "region.json",
        {"model": "bc", "channel1": {"identity": 2}, "channel2": {"identity": 2},
         "pbar": 102.0, "n_eve": 1},
    )
    code, out = _run(tmp_path, "region", "--config", cfg)
    assert code == 0
    _, columns, rows = read_table(out)
    hull_rows = [r for r in rows if r[columns.index("hull")] == "1"]
    assert len(hull_rows) == 3  # origin and the two single-user corners


def test_region_mac_hull_not_larger_than_raw(tmp_path):
    cfg = _write_cfg(
        tmp_path, "region.json",
        {"model": "mac", "channel1": {"identity": 2}, "channel2": {"identity": 2},
         "pbar": 102.0, "n_eve": 1},
    )
    code, out = _run(tmp_path, "region", "--config", cfg)
    assert code == 0
    _, columns, rows = read_table(out)
    hull = [r for r in rows if r[columns.index("hull")] == "1"]
    raw = [r for r in rows if r[columns.index("hull")] == "0"]
    assert len(raw) == 101
    # the closure can add the origin and two axis corners beyond the raw set
    assert len(hull) <= len(raw) + 3


def test_region_round_trip(tmp_path):
    from avwiretap.channel import MainChannel
    from avwiretap.rates import convex_hull_2d, mac_region

    cfg = _write_cfg(
        tmp_path, "region.json",
        {"model": "mac", "channel1": {"diagonal": [2, 1]},
         "channel2": {"identity": 2}, "pbar": 80.0, "n_eve": 1},
    )
    code, out = _run(tmp_path, "region", "--config", cfg)
    assert code == 0
    _, columns, rows = read_table(out)
    hull = np.array(
        [[float(r[0]), float(r[1])] for r in rows if r[columns.index("hull")] == "1"]
    )
    region = mac_region(
        MainChannel(np.diag([2.0, 1.0])), MainChannel(np.eye(2)), 80.0, 1
    )
    assert np.allclose(hull, region.hull, atol=1e-9)
    assert np.allclose(convex_hull_2d(hull), hull, atol=1e-9)


def test_simulate_distance_nonincreasing_and_seed_sensitivity(tmp_path):
    cfg = _write_cfg(
        tmp_path, "sim.json",
        {"n_values": [2, 4, 8], "distance_samples": 2400, "mi_samples": 400,
         "error_trials": 80, "codebooks": 6},
    )
    code, out = _run(tmp_path, "simulate", "--config", cfg, "--seed", "9")
    assert code == 0
    _, columns, rows = read_table(out)
    d = [float(r[columns.index("d_hat")]) for r in rows]
    se = [float(r[columns.index("d_se")]) for r in rows]
    for k in range(len(d) - 1):
        assert d[k + 1] <= d[k] + 3 * math.hypot(se[k], se[k + 1])
    code2, out2 = _run(tmp_path, "simulate", "--config", cfg, "--seed", "10")
    _, columns2, rows2 = read_table(out2)
    assert columns2 == columns
    assert rows2 != rows


def test_default_simulate_mi_hat_lies_in_its_range(tmp_path):
    # each leakage summand is log2 n_bins - H(posterior), inside
    # [0, log2 n_bins], so every row's mean is too (the per-message
    # summand it replaced could average below 0)
    code, out = _run(tmp_path, "simulate", "--seed", "3")
    assert code == 0
    _, columns, rows = read_table(out)
    assert len(rows) == 3
    for row in rows:
        mi_hat = float(row[columns.index("mi_hat")])
        assert 0.0 <= mi_hat <= math.log2(int(row[columns.index("n_bins")]))


def test_simulate_requires_seed(tmp_path, capsys):
    assert main(["simulate"]) == 1


def test_simulate_rejects_zero_budget(tmp_path):
    cfg = _write_cfg(tmp_path, "sim.json", {"distance_samples": 0})
    code, _ = _run(tmp_path, "simulate", "--config", cfg, "--seed", "1")
    assert code == 1


def test_simulate_refuses_oversized_blocklength(tmp_path):
    cfg = _write_cfg(tmp_path, "sim.json", {"n_values": [40]})
    code, _ = _run(tmp_path, "simulate", "--config", cfg, "--seed", "1")
    assert code == 3


def test_simulate_refuses_overflowing_blocklength(tmp_path):
    # 2^(n rate) bins overflow a float long before the sampler cap is reached
    cfg = _write_cfg(tmp_path, "sim.json", {"n_values": [2000]})
    code, _ = _run(tmp_path, "simulate", "--config", cfg, "--seed", "1")
    assert code == 3


def test_simulate_refuses_overflowing_bin_count(tmp_path, capsys):
    # a huge power budget puts 2^(n rate) past a float at n = 8
    cfg = _write_cfg(tmp_path, "sim.json", {"pbar": 1e30, "n_values": [8]})
    code, out = _run(tmp_path, "simulate", "--config", cfg, "--seed", "1")
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("refusing oversized run") and err.count("\n") == 1
    assert "Traceback" not in err


def test_rate_rejects_non_finite_power(tmp_path):
    cfg = _write_cfg(
        tmp_path, "rate.json",
        {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [math.nan, 10, 100]},
    )
    code, out = _run(tmp_path, "rate", "--config", cfg)
    assert code == 1
    assert not out.exists()


def test_rate_rejects_a_negative_budget_anywhere_in_the_grid(tmp_path):
    # the grid is checked as a whole before any row is computed
    cfg = _write_cfg(
        tmp_path, "rate.json",
        {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [10, 100, -1e-9, 1000]},
    )
    code, out = _run(tmp_path, "rate", "--config", cfg)
    assert code == 1
    assert not out.exists()


def test_malformed_config_rejected(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["rate", "--config", str(bad)]) == 1


def test_missing_key_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, "rate.json", {"n_eve": 1, "pbar_grid": [10]})
    assert main(["rate", "--config", cfg]) == 1


def test_config_type_and_key_errors_are_config_errors(tmp_path, capsys):
    # a list where a number belongs, and a perturbation block missing "eps"
    rate = _write_cfg(
        tmp_path, "rate.json",
        {"channel": {"identity": 2}, "n_eve": [1], "pbar_grid": [10]},
    )
    sched = _write_cfg(
        tmp_path, "sched.json",
        {"eps_prime": 0.01, "perturbation": {"p": 1, "n_tx": 2, "n_eve": 1}},
    )
    assert main(["rate", "--config", rate]) == 1
    assert main(["schedule", "--config", sched]) == 1
    err = capsys.readouterr().err
    assert err.count("config error:") == 2 and "Traceback" not in err


@pytest.mark.parametrize(
    "target, exc",
    [("cmd_rate", RuntimeError("boom")), ("secrecy_rate", KeyError("bug")),
     ("cmd_verify", TypeError("bug"))],
)
def test_internal_error_exits_4(tmp_path, capsys, monkeypatch, target, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, broken)
    if target == "cmd_verify":
        argv = ["verify", "--seed", "1"]
    else:
        argv = ["rate", "--config", _write_cfg(
            tmp_path, "rate.json",
            {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [10]},
        )]
    code, out = _run(tmp_path, *argv)
    assert code == EXIT_INTERNAL == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["rate", "--bogus"], [], ["frobnicate"], ["simulate", "--threads", "two"],
     ["rate", "--convention", "quarter"]],
)
def test_usage_errors_exit_1(capsys, argv):
    # argparse's own exit 2 would read as a red verify battery
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: avwiretap") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def _openblas_setters():
    """{path: (get, set)} thread-count functions of each OpenBLAS loaded
    into this process, read independently of the CLI's own lookup."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return {}
    found = {}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                       "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found[path] = (get, put)
                break
    return found


def _openblas_threads(libs):
    return {path: get() for path, (get, _) in libs.items()}


def test_session_runs_every_openblas_on_one_thread():
    # conftest pins the whole session, numpy's and scipy's OpenBLAS alike
    libs = _openblas_setters()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    assert _openblas_threads(libs) == {path: 1 for path in libs}


@pytest.mark.parametrize(
    "raised, code",
    [(None, 0), (ConfigError("bad"), 1), (ToyScaleError("big"), 3), (RuntimeError("bug"), 4)],
)
def test_commands_run_blas_on_one_thread(tmp_path, monkeypatch, capsys, raised, code):
    libs = _openblas_setters()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    original = _openblas_threads(libs)
    seen = []

    def command(cfg, scale):
        seen.append(_openblas_threads(libs))
        if raised is not None:
            raise raised
        return ["x"], []

    monkeypatch.setattr(cli, "cmd_rate", command)
    try:
        # two threads before the call, so a count left at 1 shows
        for _, put in libs.values():
            put(2)
        before = _openblas_threads(libs)
        assert main(["rate", "--out", str(tmp_path / "out.csv")]) == code
        after = _openblas_threads(libs)
    finally:
        for path, (_, put) in libs.items():
            put(original[path])
    assert seen == [{path: 1 for path in libs}]
    assert after == before


def _fresh_interpreter(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter importing the package from src/
    and this directory's test modules; returns its stdout."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_grid_commands_never_import_scipy(tmp_path):
    # scipy is loaded in this test session, so the check needs its own process
    configs = {
        "rate": {"channel": {"identity": 2}, "n_eve": 1,
                 "pbar_grid": {"start": 10, "stop": 1e4, "num": 50}},
        "region": {"model": "mac", "channel1": {"identity": 2}, "channel2": {"diagonal": [2, 1]},
                   "pbar": 100, "n_eve": 1, "alpha_grid": {"num": 40}},
        "region-bc": {"model": "bc", "channel1": {"identity": 2}, "channel2": {"diagonal": [2, 1]},
                      "pbar": 100, "n_eve": 1},
        "schedule": {"eps_prime": 0.2, "n_values": [50, 100, 500],
                     "perturbation": {"p": 10, "n_tx": 2, "n_eve": 1, "eps": 0.01}},
    }
    argvs = [
        [name.partition("-")[0], "--config", _write_cfg(tmp_path, f"{name}.json", cfg),
         "--out", str(tmp_path / f"{name}.csv")]
        for name, cfg in configs.items()
    ]
    script = (
        "import json, sys\n"
        "import avwiretap, avwiretap.cli\n"
        "codes = [avwiretap.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')]))\n"
    )
    codes, scipy_modules = json.loads(_fresh_interpreter(script, json.dumps(argvs)))
    assert codes == [0] * len(argvs)
    assert scipy_modules == []
    assert all((tmp_path / f"{name}.csv").stat().st_size for name in configs)


def test_blas_loaded_after_a_command_is_pinned_by_the_next(tmp_path):
    # the first command runs before scipy (and its own OpenBLAS) is loaded;
    # the command after the import must pin every OpenBLAS, that one included
    cfg = _write_cfg(tmp_path, "rate.json",
                     {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [10]})
    script = (
        "import json, sys\n"
        "from avwiretap import cli\n"
        "from test_cli import _openblas_setters, _openblas_threads\n"
        "argv = ['rate', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
        "assert cli.main(argv) == 0\n"
        "import scipy.special\n"
        "libs = _openblas_setters()\n"
        "for _, put in libs.values():\n"
        "    put(2)\n"
        "seen, command = [], cli.cmd_rate\n"
        "def spy(cfg, scale):\n"
        "    seen.append(_openblas_threads(libs))\n"
        "    return command(cfg, scale)\n"
        "cli.cmd_rate = spy\n"
        "assert cli.main(argv) == 0\n"
        "print(json.dumps([len(libs), seen, _openblas_threads(libs)]))\n"
    )
    count, seen, after = json.loads(_fresh_interpreter(script, cfg, str(tmp_path / "out.csv")))
    if not count:
        pytest.skip("no OpenBLAS loaded")
    assert [list(threads.values()) for threads in seen] == [[1] * count]
    assert list(after.values()) == [2] * count


# one point past cli.GRID_POINT_CAP
_OVERSIZED = 2**20 + 1


@pytest.mark.parametrize(
    "command, payload, target",
    [("rate", {"channel": {"identity": 2}, "n_eve": 1,
               "pbar_grid": {"start": 10, "stop": 100, "num": _OVERSIZED}}, "secrecy_rate"),
     ("rate", {"channel": {"identity": 2}, "n_eve": 1,
               "pbar_grid": [10.0] * _OVERSIZED}, "secrecy_rate"),
     ("region", {"model": "mac", "channel1": {"identity": 2}, "channel2": {"identity": 2},
                 "pbar": 100, "n_eve": 1, "alpha_grid": {"num": _OVERSIZED}}, "mac_region")],
    ids=["rate-num", "rate-list", "mac-region"],
)
def test_oversized_grid_refused_before_evaluation(tmp_path, capsys, monkeypatch, command, payload,
                                                  target):
    def no_evaluation(*args, **kwargs):
        raise RuntimeError("evaluated an oversized grid")

    monkeypatch.setattr(cli, target, no_evaluation)
    code, out = _run(tmp_path, command, "--config", _write_cfg(tmp_path, "grid.json", payload))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("refusing oversized run: ") and f"{_OVERSIZED} points" in err
    assert not out.exists()
    assert _OVERSIZED == cli.GRID_POINT_CAP + 1


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "rate.json",
        {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [10]},
    )
    out = tmp_path / "missing-dir" / "out.csv"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and "Traceback" not in err


def test_verify_light_suite_passes(tmp_path):
    cfg = _write_cfg(tmp_path, "verify.json", {"budget": "light"})
    code, out = _run(tmp_path, "verify", "--config", cfg, "--seed", "5")
    assert code == 0
    _, columns, rows = read_table(out)
    assert all(r[columns.index("passed")] == "1" for r in rows)
    assert all(r[columns.index("description")] for r in rows)


def test_verify_negative_control_fails(tmp_path):
    cfg = _write_cfg(
        tmp_path, "verify.json", {"budget": "light", "inject_noncanonical": True}
    )
    code, out = _run(tmp_path, "verify", "--config", cfg, "--seed", "5")
    assert code == 2
    _, columns, rows = read_table(out)
    assert rows[0][columns.index("passed")] == "0"


@pytest.mark.parametrize(
    "command, payload, key",
    [("simulate", {"n_values": []}, "n_values"),
     ("schedule", {"eps_prime": 0.05, "n_values": []}, "n_values"),
     # the string "false" is truthy and must not inject the scaled state
     ("verify", {"budget": "light", "inject_noncanonical": "false"}, "inject_noncanonical")],
)
def test_empty_n_values_and_non_boolean_control_are_config_errors(tmp_path, capsys, command, payload, key):
    cfg = _write_cfg(tmp_path, "cfg.json", payload)
    code, out = _run(tmp_path, command, "--config", cfg, "--seed", "5")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and key in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload, key",
    [("rate", {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [10.0], "n_eves": 2}, "n_eves"),
     # alpha_grid is read by the multi-access model only
     ("region", {"model": "bc", "channel1": {"identity": 2}, "channel2": {"identity": 2},
                 "pbar": 10.0, "n_eve": 1, "alpha_grid": {"num": 5}}, "alpha_grid"),
     ("simulate", {"n_value": [2]}, "n_value"),
     ("verify", {"budget": "light", "inject_noncanonicl": True}, "inject_noncanonicl"),
     ("schedule", {"eps_prime": 0.05, "c_prim": 0.1}, "c_prim"),
     # nested objects refuse unknown keys too
     ("rate", {"channel": {"identity": 2}, "n_eve": 1,
               "pbar_grid": {"start": 10, "stop": 100, "nmu": 3}}, "nmu"),
     ("rate", {"channel": {"identity": 2, "scale": 2.0}, "n_eve": 1, "pbar_grid": [10.0]}, "scale"),
     ("region", {"model": "mac", "channel1": {"identity": 2}, "channel2": {"identity": 2},
                 "pbar": 10.0, "n_eve": 1, "alpha_grid": {"strat": 0.1}}, "strat"),
     ("schedule", {"eps_prime": 0.05,
                   "perturbation": {"p": 4.0, "n_tx": 2, "n_eve": 1, "eps": 0.01, "m": 3}}, "m")],
)
def test_unknown_config_keys_are_config_errors(tmp_path, capsys, command, payload, key):
    cfg = _write_cfg(tmp_path, "cfg.json", payload)
    code, out = _run(tmp_path, command, "--config", cfg, "--seed", "5")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and repr(key) in err[0]
    assert not out.exists()


def test_simulate_refuses_oversized_book_before_sampling(tmp_path, capsys, monkeypatch):
    # pbar 7.5 sizes a 242,955-word book at n = 8: under the sampler cap,
    # over the exact-mixture cap of 2^14
    def no_sampling(*args, **kwargs):
        raise RuntimeError("sampled a codebook")

    monkeypatch.setattr(codebook, "sample_codebook", no_sampling)
    cfg = _write_cfg(tmp_path, "sim.json", {"pbar": 7.5, "n_values": [8], "codebooks": 2})
    code, out = _run(tmp_path, "simulate", "--config", cfg, "--seed", "1")
    assert code == 3
    assert capsys.readouterr().err.startswith("refusing oversized run")
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, key",
    [({"w_subset": 0}, "w_subset"),
     # a 2x3 main channel fed by two transmit antennas
     ({"n_tx": 2, "channel": {"rows": 2, "cols": 3,
                              "entries": [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 1]]}},
      "n_tx")],
)
def test_simulate_refuses_bad_subset_or_channel_width_before_sampling(tmp_path, capsys, monkeypatch,
                                                                       payload, key):
    def no_sampling(*args, **kwargs):
        raise RuntimeError("sampled a codebook")

    monkeypatch.setattr(codebook, "sample_codebook", no_sampling)
    cfg = _write_cfg(tmp_path, "sim.json", payload)
    code, out = _run(tmp_path, "simulate", "--config", cfg, "--seed", "1")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("n_eve", [-1, 0, 3])
def test_simulate_refuses_eavesdropper_rows_outside_one_to_n_tx(tmp_path, capsys, monkeypatch,
                                                               n_eve):
    # refused before any book is sized from i_eve = n_eve log2 p'
    def no_binning(*args, **kwargs):
        raise RuntimeError("sized a codebook")

    monkeypatch.setattr(cli, "binning_params", no_binning)
    cfg = _write_cfg(tmp_path, "sim.json", {"n_tx": 2, "n_eve": n_eve})
    code, out = _run(tmp_path, "simulate", "--config", cfg, "--seed", "1")
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "n_eve" in err[0]


_RATE = {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [10.0]}
_MAC = {"model": "mac", "channel1": {"identity": 2}, "channel2": {"identity": 2},
        "pbar": 10.0, "n_eve": 1}
_SCHEDULE = {"eps_prime": 0.05, "n_values": [1000],
             "perturbation": {"p": 4.0, "n_tx": 2, "n_eve": 1, "eps": 0.01}}
_SIMULATE = {"n_values": [2], "codebooks": 2, "error_trials": 4, "distance_samples": 4,
             "mi_samples": 4, "w_subset": 1, "n_tx": 2, "n_eve": 1}


@pytest.mark.parametrize(
    "command, payload, key",
    [("simulate", {**_SIMULATE, "n_values": [2.0], "codebooks": 2.0, "error_trials": 4.0,
                   "distance_samples": 4.0, "mi_samples": 4.0, "w_subset": 1.0,
                   "n_tx": 2.0, "n_eve": 1.0}, None),
     ("simulate", {**_SIMULATE, "codebooks": 2.7}, "codebooks"),
     ("simulate", {**_SIMULATE, "error_trials": True}, "error_trials"),
     ("simulate", {**_SIMULATE, "distance_samples": 4.5}, "distance_samples"),
     ("simulate", {**_SIMULATE, "mi_samples": "4"}, "mi_samples"),
     ("simulate", {**_SIMULATE, "w_subset": 1.5}, "w_subset"),
     ("simulate", {**_SIMULATE, "n_tx": True}, "n_tx"),
     ("simulate", {**_SIMULATE, "n_eve": 1.5}, "n_eve"),
     ("simulate", {**_SIMULATE, "n_values": [2, True]}, "n_values"),
     ("rate", {**_RATE, "n_eve": 1.0, "pbar_grid": {"start": 10, "stop": 100, "num": 4.0}}, None),
     ("rate", {**_RATE, "n_eve": True}, "n_eve"),
     ("rate", {**_RATE, "pbar_grid": {"start": 10, "stop": 100, "num": 3.5}}, "num"),
     ("region", {**_MAC, "n_eve": 1.0, "alpha_grid": {"num": 5.0}}, None),
     ("region", {**_MAC, "n_eve": 0.5}, "n_eve"),
     ("region", {**_MAC, "alpha_grid": {"num": True}}, "num"),
     ("schedule", {**_SCHEDULE, "n_values": [1000.0, 1001],
                   "perturbation": {"p": 4.0, "n_tx": 2.0, "n_eve": 1.0, "eps": 0.01}}, None),
     ("schedule", {**_SCHEDULE, "n_values": [1000, 1000.5]}, "n_values"),
     ("schedule", {**_SCHEDULE, "perturbation": {"p": 4.0, "n_tx": 2.5, "n_eve": 1, "eps": 0.01}},
      "n_tx"),
     ("schedule", {**_SCHEDULE, "perturbation": {"p": 4.0, "n_tx": 2, "n_eve": False, "eps": 0.01}},
      "n_eve"),
     ("rate", {**_RATE, "channel": {"identity": 2.7}}, "identity"),
     ("rate", {**_RATE, "channel": {"rows": 2.5, "cols": 2,
                                    "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}}, "rows"),
     # a count past 2^53 (here 401 digits) is refused, also in a list of ints
     ("rate", {**_RATE, "n_eve": 10**400}, "n_eve"),
     ("schedule", {**_SCHEDULE, "n_values": [1000, 10**400]}, "n_values")],
)
def test_count_config_values_must_be_whole_numbers(tmp_path, capsys, command, payload, key):
    # 4 and 4.0 are counts; 2.7, a boolean or a string is a config error
    cfg = _write_cfg(tmp_path, "cfg.json", payload)
    code, out = _run(tmp_path, command, "--config", cfg, "--seed", "5")
    err = capsys.readouterr().err.strip().splitlines()
    if key is None:
        assert code == 0 and out.exists()
    else:
        assert code == 1 and not out.exists()
        assert len(err) == 1 and err[0].startswith("config error:") and key in err[0]


_MAC_JSON = '"model": "mac", "channel1": {"identity": 2}, "channel2": {"identity": 2}, "n_eve": 1'
_RATE_JSON = '"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [10]'


@pytest.mark.parametrize(
    "command, text, key",
    [("schedule", '{"eps_prime": NaN, "n_values": [10, 20]}', "eps_prime"),
     ("schedule", '{"eps_prime": Infinity}', "eps_prime"),
     ("schedule", '{"eps_prime": 0.05, "r0": NaN}', "r0"),
     # 401 digits: an integer overflows a float, a float parses as inf
     ("schedule", '{"eps_prime": 1%s.0}' % ("0" * 400), "eps_prime"),
     ("region", '{%s, "pbar": 1%s}' % (_MAC_JSON, "0" * 400), "pbar"),
     ("simulate", '{"pbar": "6"}', "pbar"),
     ("region", '{%s, "pbar": true}' % _MAC_JSON, "pbar"),
     ("rate", '{%s, "eps_p": "0.1"}' % _RATE_JSON, "eps_p"),
     ("region", '{%s, "pbar": 10, "alpha_grid": [0.1, 0.5]}' % _MAC_JSON, "alpha_grid"),
     ("region", '{%s, "pbar": 10, "alpha_grid": "x"}' % _MAC_JSON, "alpha_grid"),
     # a matrix takes exactly one form
     ("rate", '{"channel": {"identity": 2, "diagonal": [5, 1]}, "n_eve": 1, "pbar_grid": [10]}',
      "diagonal")],
    ids=["nan", "infinity", "nan-r0", "401-digit-float", "401-digit-int", "string", "boolean",
         "string-eps_p", "list-alpha_grid", "string-alpha_grid", "two-form-matrix"],
)
def test_bad_numbers_grids_and_matrices_are_config_errors(tmp_path, capsys, command, text, key):
    # a number must be a finite JSON number, a grid an object, a matrix one form
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out = _run(tmp_path, command, "--config", str(cfg), "--seed", "5")
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and key in err[0]


def test_schedule_command_values(tmp_path):
    cfg = _write_cfg(
        tmp_path, "sched.json",
        {"eps_prime": 0.01, "n_values": [1000], "c_prime": 0.05,
         "alpha_eps": 0.05, "alpha_eps_p": 0.05, "error_exponent": 0.5, "r0": 1.0},
    )
    code, out = _run(tmp_path, "schedule", "--config", cfg)
    assert code == 0
    _, columns, rows = read_table(out)
    assert float(rows[0][columns.index("log_k")]) == pytest.approx(20.0)
    assert float(rows[0][columns.index("overhead_factor")]) == pytest.approx(
        1.0288539008, abs=1e-9
    )
    assert rows[0][columns.index("growth_ok")] == "1"


def test_schedule_infeasible_is_informational(tmp_path):
    cfg = _write_cfg(
        tmp_path, "sched.json",
        {"eps_prime": 0.06, "n_values": [100], "c_prime": 0.05,
         "alpha_eps": 0.05, "alpha_eps_p": 0.05, "error_exponent": 0.5},
    )
    code, out = _run(tmp_path, "schedule", "--config", cfg)
    assert code == 0
    _, columns, rows = read_table(out)
    assert rows[0][columns.index("distance_exponent_ok")] == "0"
    assert rows[0][columns.index("min_feasible_n")] == ""


@pytest.mark.parametrize(
    "payload",
    [{"eps_prime": 1e-300, "c_prime": 1.0},
     {"eps_prime": 0.1, "c_prime": 0.10000000000000002}],
)
def test_schedule_extreme_exponents_terminate(tmp_path, payload):
    # the minimum blocklength lands near 4e299 and 4e17, where a step of one
    # in n no longer changes the float feasibility tests
    cfg = _write_cfg(tmp_path, "sched.json", payload)
    code, out = _run(tmp_path, "schedule", "--config", cfg)
    assert code == 0
    _, columns, rows = read_table(out)
    assert int(rows[0][columns.index("min_feasible_n")]) > 10**17


@pytest.mark.parametrize(
    "payload, keys",
    [({"eps_prime": 1e308}, ("eps_prime", "n_values")),
     ({"eps_prime": 1e306, "n_values": [1000]}, ("eps_prime", "n_values")),
     ({"eps_prime": 0.1, "r0": 1e-320}, ("eps_prime", "r0")),
     ({"eps_prime": 5e-324, "c_prime": 1e-323}, ("eps_prime", "c_prime"))],
)
def test_schedule_refuses_cells_past_the_float_range(tmp_path, capsys, payload, keys):
    # log_k = 2 eps' n, stage2_per_use = 2 eps' log2(e) / r0 and the minimum
    # feasible blocklength would be inf
    cfg = _write_cfg(tmp_path, "sched.json", payload)
    code, out = _run(tmp_path, "schedule", "--config", cfg)
    captured = capsys.readouterr()
    assert code == 1 and not out.exists() and not captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert all(key in err[0] for key in keys)


@pytest.mark.parametrize(
    "payload",
    [{"eps_prime": 1e300, "n_values": [1000]},
     {"eps_prime": 0.1, "c_prime": 1e308, "n_values": [1, 2, 1000]},
     {"eps_prime": 0.1, "c_prime": -1e308, "n_values": [1, 2, 1000]}],
)
def test_schedule_extreme_finite_inputs_write_finite_cells_quietly(tmp_path, capsys, payload):
    cfg = _write_cfg(tmp_path, "sched.json", payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(tmp_path, "schedule", "--config", cfg)
    assert code == 0 and not caught and not capsys.readouterr().err
    _, columns, rows = read_table(out)
    numeric = ("eps_n", "log_k", "log_m", "overhead_factor", "stage2_per_use")
    assert all(math.isfinite(float(row[columns.index(c)])) for row in rows for c in numeric)
    growth = [row[columns.index("growth_ok")] for row in rows]
    assert growth == ["1" if payload.get("c_prime", 0.05) > payload["eps_prime"] else "0"] * len(rows)


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("AVWT_SEED", "77")
    monkeypatch.setenv("AVWT_CONVENTION", "half")
    cfg = _write_cfg(
        tmp_path, "sim.json",
        {"n_values": [2], "distance_samples": 100, "mi_samples": 100,
         "error_trials": 10},
    )
    code, out = _run(tmp_path, "simulate", "--config", cfg)
    assert code == 0
    meta, _, _ = read_table(out)
    assert meta["seed"] == "77"
    assert meta["convention"] == "half"


def test_unknown_env_convention_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AVWT_CONVENTION", "quarter")
    cfg = _write_cfg(tmp_path, "rate.json",
                     {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": [10]})
    code, out = _run(tmp_path, "rate", "--config", cfg)
    assert code == EXIT_CONFIG == 1
    assert not out.exists()
    assert capsys.readouterr().err == "config error: convention must be 'full' or 'half'\n"


def test_package_exports_resolve():
    import avwiretap

    exported = avwiretap.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(avwiretap, name)] == []
    cut = {"ChannelSvd", "reduce_main_channel", "eve_equiv_noise_cov", "encode",
           "TwoStageEncoding", "two_stage_encode", "info_density", "QuantGrid",
           "gallager_exponent"}
    assert not cut & set(exported)
    assert not any(hasattr(avwiretap, name) for name in cut)


@pytest.mark.parametrize(
    "payload",
    [{"eps_prime": 1e-308, "c_prime": 1.0000000000000002e-308},
     {"eps_prime": 1e-320, "c_prime": 1.0}],
)
def test_schedule_beyond_float_range_is_a_config_error(tmp_path, capsys, payload):
    # 2 / (c' - eps') or the net-size start overflows to inf: one stderr
    # line and exit 1, not an internal error
    cfg = _write_cfg(tmp_path, "sched.json", payload)
    code, out = _run(tmp_path, "schedule", "--config", cfg)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not out.exists()


def test_table_cells_with_commas_round_trip(tmp_path):
    header = ["check", "description", "observed", "passed"]
    block = [["output-invariance", "plain"],
             ["follows CN(0, p' I), \"exactly\"", "no comma here"], [0.5, 1.25], [True, False]]
    out = tmp_path / "t.csv"
    with open(out, "w") as fh:
        write_table(fh, {"seed": "3"}, header, [block])
    meta, columns, rows = read_table(out)
    assert meta == {"seed": "3"}
    assert columns == header
    assert rows == [
        ["output-invariance", "follows CN(0, p' I), \"exactly\"", "0.5", "1"],
        ["plain", "no comma here", "1.25", "0"],
    ]
    # a row without commas is written bare, one line, as before
    assert out.read_text().splitlines()[-1] == "plain,no comma here,1.25,0"


def test_format_cell_numpy_scalars():
    # numpy flags are 1/0 like Python ones, and every real float is %.12g
    assert [cli._format_cell(v) for v in (np.True_, np.False_, True, False)] == ["1", "0", "1", "0"]
    assert cli._format_cell(np.float32(0.1)) == "%.12g" % float(np.float32(0.1)) == "0.10000000149"
    assert cli._format_cell(np.float64(1 / 3)) == cli._format_cell(1 / 3) == "0.333333333333"
    assert cli._format_cell(np.int64(7)) == "7"
    # the block writer gives the same bytes as formatting cell by cell, with
    # a fill value (here one holding %, a comma and a quote) on every row
    header = ["flag", "x", "k", "mixed", "text"]
    blocks = [
        [[np.True_, False], [np.float32(0.1), 2.5], [np.int64(3), 4], [2, 0.5], ["a,b", ""]],
        [np.array([True, False]), np.array([1e-300, -0.0]), [5, 6], "", "c"],
        [np.array([False]), 1 / 3, [7], '5%,"x"', ["d"]],
    ]
    out = io.StringIO()
    write_table(out, {}, header, blocks)
    rows = [
        [np.True_, np.float32(0.1), np.int64(3), 2, "a,b"], [False, 2.5, 4, 0.5, ""],
        [True, 1e-300, 5, "", "c"], [False, -0.0, 6, "", "c"], [False, 1 / 3, 7, '5%,"x"', "d"],
    ]
    expected = ["flag,x,k,mixed,text"] + [",".join(map(cli._format_cell, row)) for row in rows]
    assert out.getvalue().splitlines() == expected
    assert expected[1:] == ["1,0.10000000149,3,2,\"a,b\"", "0,2.5,4,0.5,", "1,1e-300,5,,c", "0,-0,6,,c",
                            '0,0.333333333333,7,"5%,""x""",d']
    with pytest.raises(ValueError, match="differ in length"):
        write_table(io.StringIO(), {}, header, [[[True, False], [1.0], 0.5, "", "e"]])
    with pytest.raises(ValueError, match="row width"):
        write_table(io.StringIO(), {}, header, [[[True], [1.0]]])


@pytest.mark.parametrize(
    "grid, message",
    [({"start": 10, "stop": 1000, "num": 5, "spacing": "Log"}, "spacing"),
     ({"start": 10, "stop": 1000, "num": 0}, "num"),
     ({"start": 0, "stop": 1000, "num": 5, "spacing": "log"}, "log-spaced"),
     ([], "nonempty"), ([[10.0, 100.0]], "flat list")],
)
def test_bad_power_grid_is_a_config_error(tmp_path, capsys, grid, message):
    cfg = _write_cfg(
        tmp_path, "rate.json", {"channel": {"identity": 2}, "n_eve": 1, "pbar_grid": grid}
    )
    code, out = _run(tmp_path, "rate", "--config", cfg)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and message in err[0]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


_FRESH_MAIN = "import sys; from avwiretap.cli import main; sys.exit(main(sys.argv[1:]))"


def test_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # each call's exit code, stderr and CSV bytes are those of the same call
    # in a new interpreter, whatever the calls before it in this one asked for
    for name in ("SEED", "CONVENTION", "OUT"):
        monkeypatch.delenv(cli.ENV_PREFIX + name, raising=False)
    sim = _write_cfg(tmp_path, "sim.json", {"n_values": [2], "distance_samples": 20,
                                            "mi_samples": 20, "error_trials": 8, "codebooks": 2})
    rate = _write_cfg(tmp_path, "rate.json", {"channel": {"diagonal": [2.0, 1.0]}, "n_eve": 1,
                                              "pbar_grid": {"start": 10, "stop": 1e4, "num": 30}})
    mac = _write_cfg(tmp_path, "mac.json", {"model": "mac", "channel1": {"identity": 2},
                                            "channel2": {"diagonal": [3.0, 0.5]}, "pbar": 100.0,
                                            "n_eve": 1, "alpha_grid": {"num": 300}})
    calls = [
        ["simulate", "--config", sim, "--seed", "5"],
        ["simulate", "--config", sim],
        ["rate", "--config", rate, "--convention", "half"],
        ["rate", "--config", rate],
        ["region", "--config", mac, "--bogus"],
        ["region", "--config", mac],
    ]
    env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    codes = []
    for i, argv in enumerate(calls):
        warm_out, fresh_out = tmp_path / f"warm{i}.csv", tmp_path / f"fresh{i}.csv"
        warm_code = main([*argv, "--out", str(warm_out)])
        codes.append(warm_code)
        warm_err = capsys.readouterr().err
        fresh = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv, "--out", str(fresh_out)],
                               env=env, capture_output=True, text=True, timeout=120)
        assert (warm_code, warm_err) == (fresh.returncode, fresh.stderr), argv
        assert warm_out.exists() == fresh_out.exists(), argv
        if warm_out.exists():
            assert warm_out.read_bytes() == fresh_out.read_bytes(), argv
    assert codes == [0, 1, 0, 0, 1, 0]


def _table_bytes(blocks) -> str:
    out = io.StringIO()
    write_table(out, {"seed": "1"}, ["f", "f32", "i", "u", "b", "fill"], blocks)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(width=32, allow_nan=True, allow_infinity=True),
    st.integers(-2**63, 2**63 - 1),
    st.integers(0, 2**64 - 1),
    st.booleans(),
), max_size=30))
def test_array_columns_write_as_their_lists(rows):
    f, f32, i, u, b = (list(c) for c in zip(*rows)) if rows else ([],) * 5
    arrays = [np.array(f, dtype=float), np.array(f32, dtype=np.float32),
              np.array(i, dtype=np.int64), np.array(u, dtype=np.uint64), np.array(b, dtype=bool)]
    # a non-empty block, an empty one, and a block of special floats
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 1 / 3])
    special_block = [specials, specials.astype(np.float32), np.arange(6),
                     np.arange(6, dtype=np.uint8), specials > 0, 2.5]
    empty_block = [np.array([]), np.array([], dtype=np.float32), np.array([], dtype=int),
                   np.array([], dtype=np.uint8), np.array([], dtype=bool), "x"]
    blocks = [[*arrays, 7], empty_block, special_block]
    as_lists = [[c.tolist() if isinstance(c, np.ndarray) else c for c in block] for block in blocks]
    assert _table_bytes(blocks) == _table_bytes(as_lists)


@pytest.mark.parametrize("matrix", [
    {"identity": 33554432},
    {"diagonal": [1.0] * 1025},
    {"rows": 1025, "cols": 1024, "entries": [[1.0, 0.0]]},
])
def test_oversized_channel_matrix_refused_from_its_counts(tmp_path, capsys, matrix):
    cfg = _write_cfg(tmp_path, "rate.json", {"channel": matrix, "n_eve": 1, "pbar_grid": [10]})
    start = time.perf_counter()
    code, out = _run(tmp_path, "rate", "--config", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("refusing oversized run: channel has")


def test_channel_matrix_at_the_cap_is_accepted(tmp_path):
    assert parse_matrix({"diagonal": [1.0] * 1024}).shape == (1024, 1024)
    cfg = _write_cfg(tmp_path, "rate.json", {"channel": {"identity": 1024}, "n_eve": 1,
                                             "pbar_grid": [10]})
    code, out = _run(tmp_path, "rate", "--config", cfg)
    assert code == 0
    _, header, rows = read_table(out)
    assert len(rows) == 1 and float(rows[0][header.index("converse_bound")]) > 0


_BC = {**_MAC, "model": "bc"}
_LINEAR = {"start": 1.0, "stop": 10.0, "num": 5, "spacing": "linear"}


def _with(payload, key, value):
    """``payload`` with ``value`` at the dotted ``key``, nested objects copied."""
    head, _, rest = key.partition(".")
    return {**payload, head: _with(payload.get(head, {}), rest, value) if rest else value}


_ENTRIES = {"rows": 2, "cols": 2, "entries": []}
# (command, config, dotted key, a value just outside the key's range)
_OUT_OF_RANGE = [
    ("simulate", {}, "n_values", [0]),
    ("schedule", _SCHEDULE, "n_values", [0, 5]),
    # one row cannot carry two modes
    ("simulate", {}, "channel", {"rows": 1, "cols": 2, "entries": [[1, 0], [0, 0]]}),
    ("rate", _RATE, "n_eve", -1),
    ("region", _MAC, "pbar", -1),
    ("region", _MAC, "pbar", -10.0),
    ("region", _MAC, "n_eve", -1),
    ("region", _BC, "n_eve", -1),
    ("schedule", _SCHEDULE, "perturbation.eps", -1.0),
    ("schedule", _SCHEDULE, "perturbation.eps", 0.0),
    ("schedule", _SCHEDULE, "perturbation.n_eve", 0),
    ("schedule", _SCHEDULE, "perturbation.n_tx", 0),
    ("schedule", _SCHEDULE, "perturbation.p", -1.0),
    ("simulate", {}, "pbar", -1),
    ("rate", _RATE, "pbar_grid", [-1]),
    ("simulate", {}, "eps_p", 1.5),
    ("rate", _RATE, "eps_p", 1),
    ("simulate", {}, "delta_n", -1),
    ("simulate", {}, "delta_prime", -1),
    ("simulate", {}, "n_tx", 0),
    ("schedule", _SCHEDULE, "eps_prime", -0.1),
    ("simulate", {}, "pbar", -0.001),
    ("simulate", {}, "eps_p", 1),
    ("simulate", {}, "eps_p", -0.001),
    ("simulate", {}, "delta_n", 0),
    ("simulate", {}, "delta_prime", 0),
    ("simulate", {}, "distance_samples", 1),
    ("simulate", {}, "mi_samples", 1),
    ("simulate", {}, "error_trials", 0),
    ("simulate", {}, "codebooks", 1),
    ("simulate", {}, "w_subset", 0),
    ("rate", _RATE, "eps_p", -0.001),
    ("rate", _RATE, "pbar_grid", [10.0, -0.001]),
    ("rate", {**_RATE, "pbar_grid": _LINEAR}, "pbar_grid.start", -0.001),
    ("rate", {**_RATE, "pbar_grid": _LINEAR}, "pbar_grid.stop", -0.001),
    ("rate", {**_RATE, "pbar_grid": _LINEAR}, "pbar_grid.num", 0),
    ("region", _BC, "pbar", -0.001),
    ("region", _MAC, "alpha_grid.start", 0),
    ("region", _MAC, "alpha_grid.start", 1.001),
    ("region", _MAC, "alpha_grid.stop", 0),
    ("region", _MAC, "alpha_grid.stop", 1.001),
    ("region", _MAC, "alpha_grid.num", 0),
    ("schedule", _SCHEDULE, "eps_prime", 0),
    ("schedule", _SCHEDULE, "r0", 0),
    ("rate", _RATE, "channel.identity", 0),
    ("rate", {**_RATE, "channel": _ENTRIES}, "channel.rows", 0),
    ("rate", {**_RATE, "channel": _ENTRIES}, "channel.cols", 0),
    # bad seeds, from the command line and from the environment
    ("simulate", {}, "--seed", "-1"),
    ("verify", {}, "--seed", "-1"),
    ("simulate", {}, "AVWT_SEED", "abc"),
    ("verify", {}, "AVWT_SEED", "-1"),
    ("verify", {}, "AVWT_SEED", "2.5"),
]


@pytest.mark.parametrize("command, payload, key, value", _OUT_OF_RANGE, ids=[
    f"{command}-payload{i}-{key}" for i, (command, _, key, _) in enumerate(_OUT_OF_RANGE)
])
def test_out_of_range_values_name_their_key(tmp_path, capsys, monkeypatch, command, payload,
                                            key, value):
    def no_sampling(*args, **kwargs):
        raise RuntimeError("sampled a codebook")

    monkeypatch.setattr(codebook, "sample_codebook", no_sampling)
    seed = ["--seed", "1"]
    if key == "--seed":
        seed = ["--seed", value]
    elif key == "AVWT_SEED":
        seed = []
        monkeypatch.setenv(key, value)
    else:
        payload = _with(payload, key, value)
    cfg = _write_cfg(tmp_path, "cfg.json", payload)
    code, out = _run(tmp_path, command, "--config", cfg, *seed)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {key} ")


# (command, config, dotted key, a value at a closed end of the key's range)
_CLOSED_ENDS = [
    ("rate", _RATE, "eps_p", 0),
    ("rate", _RATE, "n_eve", 0),
    ("rate", _RATE, "pbar_grid", [0, 10.0]),
    ("rate", {**_RATE, "pbar_grid": _LINEAR}, "pbar_grid.start", 0),
    ("rate", {**_RATE, "pbar_grid": _LINEAR}, "pbar_grid.stop", 0),
    ("rate", {**_RATE, "pbar_grid": _LINEAR}, "pbar_grid.num", 1),
    ("rate", _RATE, "channel.identity", 1),
    ("region", _BC, "pbar", 0),
    ("region", _MAC, "n_eve", 0),
    ("region", _MAC, "alpha_grid", {"start": 1, "stop": 1, "num": 1}),
    ("schedule", _SCHEDULE, "perturbation.p", 0),
    ("schedule", _SCHEDULE, "n_values", [1]),
    ("simulate", _SIMULATE, "codebooks", 2),
    ("simulate", _SIMULATE, "distance_samples", 2),
    ("simulate", _SIMULATE, "mi_samples", 2),
    ("simulate", _SIMULATE, "error_trials", 1),
    ("simulate", _SIMULATE, "n_values", [1]),
]


@pytest.mark.parametrize("command, payload", [
    (command, _with(payload, key, value)) for command, payload, key, value in _CLOSED_ENDS
])
def test_closed_ends_of_the_ranges_still_run(tmp_path, command, payload):
    cfg = _write_cfg(tmp_path, "cfg.json", payload)
    code, out = _run(tmp_path, command, "--config", cfg, "--seed", "1")
    assert code == 0 and out.exists()
