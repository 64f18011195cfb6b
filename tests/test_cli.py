import json
import math

import numpy as np
import pytest

from avwiretap.cli import main, parse_matrix, read_table


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


def test_malformed_config_rejected(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["rate", "--config", str(bad)]) == 1


def test_missing_key_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, "rate.json", {"n_eve": 1, "pbar_grid": [10]})
    assert main(["rate", "--config", cfg]) == 1


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
