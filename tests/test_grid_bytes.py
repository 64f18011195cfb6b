"""Byte-level guard on the grid commands: every CSV data row of `rate`,
`region` (mac) and `schedule` equals, as a string, the row that a plain
`math` evaluation of the paper's closed forms gives, point by point, with
every float written as %.12g.  A `bc` region under the half convention is
exactly half of the library's region."""

import json
import math

import numpy as np
import pytest

from avwiretap import cli
from avwiretap.channel import MainChannel
from avwiretap.quantization import schedule_params
from avwiretap.rates import bc_region


def _csv_rows(tmp_path, command, payload, *extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    return lines[1:]


def _cell(c):
    if isinstance(c, bool):
        return "1" if c else "0"
    if isinstance(c, float):
        return "%.12g" % c
    return str(c)


def _row(*cells):
    return ",".join(map(_cell, cells))


def _singular_values(matrix):
    return MainChannel(cli.parse_matrix(matrix)).singular_values.tolist()


def _cap(snr, scale):
    return scale * math.log2(1.0 + snr)


def _mode_rate(svals, p, n_t, scale):
    return sum(_cap(s * s * p / ((s * s + 1.0) * n_t), scale) for s in svals)


RATE_CFG = {
    "channel": {"diagonal": [2.5, 0.7, 1.3]},
    "n_eve": 1,
    "eps_p": 0.2,
    # below, at and above the n_tx units reserved for artificial noise
    "pbar_grid": [0.5, 3.0, 3.25, 10.0, 102.0, 1234.5678, 1e5, 3.3e7],
}


@pytest.mark.parametrize("convention, scale", [("full", 1.0), ("half", 0.5)])
def test_rate_rows_match_math_oracle(tmp_path, convention, scale):
    svals = _singular_values(RATE_CFG["channel"])
    m, n_eve = len(svals), RATE_CFG["n_eve"]
    expected = []
    for pbar in RATE_CFG["pbar_grid"]:
        p = max(pbar - m, 0.0)
        mi = _mode_rate(svals, p, m, scale)
        leak = n_eve * _cap(p, scale)
        converse = sum(_cap(s * s * (pbar / m), scale) for s in svals[n_eve:])
        expected.append(_row(pbar, p, mi, leak, max(mi - leak, 0.0), converse))
    rows = _csv_rows(tmp_path, "rate", RATE_CFG, "--convention", convention)
    assert rows == expected


def _gift_wrap(points):
    """Hull vertices counterclockwise from the lexicographically smallest
    point, collinear points dropped: from each vertex the next is the point
    with no other point to its right, the farthest one among collinear ones."""
    pts = sorted(set(points))
    hull = [pts[0]]
    while True:
        here = hull[-1]
        nxt = next(c for c in pts if c != here)
        for c in pts:
            cross = ((nxt[0] - here[0]) * (c[1] - here[1])
                     - (nxt[1] - here[1]) * (c[0] - here[0]))
            if cross < 0 or (cross == 0 and math.dist(here, c) > math.dist(here, nxt)):
                nxt = c
        if nxt == hull[0]:
            return hull
        hull.append(nxt)


@pytest.mark.parametrize("convention, scale", [("full", 1.0), ("half", 0.5)])
def test_mac_region_rows_match_math_oracle(tmp_path, convention, scale):
    cfg = {
        "model": "mac",
        "channel1": {"diagonal": [2.0, 1.0]},
        "channel2": {"diagonal": [1.5, 0.8]},
        "pbar": 80.0,
        "n_eve": 1,
        "alpha_grid": {"start": 0.02, "stop": 1.0, "num": 60},
    }
    sv1, sv2 = _singular_values(cfg["channel1"]), _singular_values(cfg["channel2"])
    n_t, n_eve, pbar = 2, cfg["n_eve"], cfg["pbar"]

    def user_rate(svals, p):
        return max(_mode_rate(svals, p, n_t, scale) - n_eve * _cap(p, scale), 0.0)

    raw = []
    for alpha in np.linspace(0.02, 1.0, 60).tolist():
        abar = 1.0 - alpha
        r1 = alpha * user_rate(sv1, max(pbar / alpha - n_t, 0.0))
        r2 = abar * user_rate(sv2, max(pbar / abar - n_t, 0.0)) if abar > 0 else 0.0
        raw.append((r1, r2))
    closure = raw + [(x, 0.0) for x, _ in raw] + [(0.0, y) for _, y in raw] + [(0.0, 0.0)]
    hull = _gift_wrap(closure)
    expected = [_row(r1, r2, False) for r1, r2 in raw] + [_row(r1, r2, True) for r1, r2 in hull]
    assert _csv_rows(tmp_path, "region", cfg, "--convention", convention) == expected


@pytest.mark.parametrize("n_eve", [1, 2])  # 2: both users clamped at zero
def test_bc_region_half_rows_are_half_the_full_rows(tmp_path, n_eve):
    cfg = {
        "model": "bc",
        "channel1": {"diagonal": [2.0, 1.0]},
        "channel2": {"diagonal": [1.5, 0.8]},
        "pbar": 80.0,
        "n_eve": n_eve,
    }
    ch1, ch2 = (MainChannel(cli.parse_matrix(cfg[k])) for k in ("channel1", "channel2"))
    region = bc_region(ch1, ch2, cfg["pbar"], n_eve)
    for convention, scale in (("full", 1.0), ("half", 0.5)):
        expected = [_row(*(scale * point).tolist(), False) for point in region.raw_points]
        expected += [_row(*(scale * vertex).tolist(), True) for vertex in region.hull]
        assert _csv_rows(tmp_path, "region", cfg, "--convention", convention) == expected


SCHEDULE_BASE = {
    "eps_prime": 0.1,
    "n_values": list(range(1, 120)) + [3510, 3511, 10**6],
    "c_prime": 0.13,
    "alpha_eps": 0.2,
    "alpha_eps_p": 0.05,
    "error_exponent": 0.3,
    "r0": 1.7,
}


@pytest.mark.parametrize(
    "perturbation", [None, {"p": 20.0, "n_tx": 2, "n_eve": 1, "eps": 0.1}]
)
def test_schedule_rows_match_math_oracle(tmp_path, perturbation):
    cfg = dict(SCHEDULE_BASE)
    if perturbation is not None:
        cfg["perturbation"] = perturbation
    eps, c_prime = cfg["eps_prime"], cfg["c_prime"]
    stage2 = 2.0 * eps * math.log2(math.e) / cfg["r0"]
    expected, minima = [], []
    for n in cfg["n_values"]:
        log_m = 2.0 * eps * n
        drift = ""
        if perturbation is not None:
            p, n_tx, n_eve, margin = (perturbation[k] for k in ("p", "n_tx", "n_eve", "eps"))
            log_r_prime = 0.5 * math.log(2.0 * n_tx * n_eve * p) - log_m
            r_prime = math.exp(log_r_prime) if log_r_prime > -700 else 0.0
            drift = r_prime == 0.0
            if not drift:
                r = r_prime + math.sqrt(n_eve * (1.0 + margin))
                drift = math.log(n) + math.log(r_prime * (2.0 * r + r_prime)) < -1.5 * eps * n
        scalar = schedule_params(
            eps, n, c_prime, cfg["alpha_eps"], cfg["alpha_eps_p"], cfg["error_exponent"],
            None if perturbation is None else tuple(perturbation.values()),
        )
        minima.append(scalar.min_feasible_n)
        expected.append(_row(
            n, math.exp(-n * eps), log_m, log_m, eps < c_prime, eps < cfg["alpha_eps"],
            eps < cfg["alpha_eps_p"], 2.0 * eps < cfg["error_exponent"],
            (c_prime - eps) * n > 2.0, drift, scalar.min_feasible_n, 1.0 + stage2, stage2,
        ))
    rows = _csv_rows(tmp_path, "schedule", cfg)
    assert rows == expected
    assert [int(row.split(",")[10]) for row in rows] == minima
    # the table covers both sides of the drift and growth thresholds
    assert {row.split(",")[8] for row in rows} == {"0", "1"}
    if perturbation is not None:
        assert {row.split(",")[9] for row in rows} == {"0", "1"}
