"""Workloads of the benchmark: the CLI invocations each one makes, and the
output checks that decide whether an invocation failed.

Every invocation is derived from (workload, workload seed, index), so the
same seed replays the same inputs while no two invocations of a run share
an input.  The checks look only at properties that hold for any random
stream (row shapes, ranges, bound orderings), because a change to the
program may legitimately change its Monte Carlo streams.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("simulate", "verify", "analysis")

# (n_bins, per_bin) of the default simulate config, keyed by blocklength.
SIMULATE_SHAPES = {2: (1, 8), 4: (2, 64), 8: (4, 4096)}

VERIFY_IDS = (
    "noise-whiteness",
    "output-invariance",
    "quantization-error",
    "loglik-perturbation-m100",
    "received-energy",
    "truncation-surrogate",
    "density-tail-trend",
    "decoder-symmetry",
    "grid-shrinkage-trend",
    "resolvability",
)

# A fixed mix, so every run of `analysis` has the same share of each kind.
# `bc` has no grid; it keeps the broadcast path and the per-call overhead
# in the mix at a small share.
ANALYSIS_CYCLE = ("rate", "mac", "schedule", "rate", "mac", "schedule", "bc")
# Invocations per timing block (see run.py): one pass over the analysis mix,
# so every block holds the same kinds in the same proportions and the
# median over blocks does not snap between the kinds' times.
BLOCK_CALLS = {"simulate": 1, "verify": 1, "analysis": len(ANALYSIS_CYCLE)}

# Grid sizes per kind put each invocation near 60 ms on a 2-core 2.1 GHz
# Xeon, so the work on the grid outweighs the fixed cost of a call, the
# kinds' times overlap, and a run leaves enough samples to resolve p90.
GRID_POINTS = {"rate": (3900, 4300), "mac": (2300, 2500), "bc": (0, 0), "schedule": (5200, 5600)}

# CSV cells carry 12 significant digits, so an equality between two
# columns may round either way by this much.
ROUNDING = 1e-11


@dataclass(frozen=True)
class Invocation:
    kind: str  # simulate | verify | rate | mac | bc | schedule
    argv: tuple
    config: dict | None


def invocation(workload: str, seed: int, index: int, config_path: str, out_path: str) -> Invocation:
    """The index-th invocation of a workload run seeded with ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    io_args = ("--threads", "1", "--out", out_path)
    if workload in ("simulate", "verify"):
        return Invocation(workload, (workload, "--seed", str(rng.getrandbits(63)), *io_args), None)
    if workload != "analysis":
        raise ValueError(f"unknown workload {workload!r}")
    kind = ANALYSIS_CYCLE[index % len(ANALYSIS_CYCLE)]
    command = "region" if kind in ("mac", "bc") else kind
    config = _analysis_config(kind, rng)
    return Invocation(kind, (command, "--config", config_path, *io_args), config)


def _diagonal(rng, modes):
    return {"diagonal": [round(rng.uniform(0.5, 3.0), 6) for _ in range(modes)]}


def _analysis_config(kind: str, rng: random.Random) -> dict:
    num = rng.randint(*GRID_POINTS[kind])
    modes = rng.randint(2, 4)
    n_eve = rng.randint(1, modes - 1)
    if kind == "rate":
        return {
            "channel": _diagonal(rng, modes),
            "n_eve": n_eve,
            "eps_p": round(rng.uniform(0.0, 0.5), 6),
            "pbar_grid": {
                "start": round(10 ** rng.uniform(0.7, 1.5), 6),
                "stop": round(10 ** rng.uniform(4.0, 7.0), 3),
                "num": num,
                "spacing": rng.choice(("log", "linear")),
            },
        }
    if kind in ("mac", "bc"):
        cfg = {
            "model": kind,
            "channel1": _diagonal(rng, modes),
            "channel2": _diagonal(rng, modes),
            "pbar": round(10 ** rng.uniform(1.0, 4.0), 6),
            "n_eve": n_eve,
        }
        if kind == "mac":
            cfg["alpha_grid"] = {"start": round(rng.uniform(0.005, 0.05), 6), "stop": 1.0, "num": num}
        return cfg
    if kind == "schedule":
        eps_prime = round(rng.uniform(0.01, 0.2), 6)
        first = rng.randint(1, 200)
        n_tx = rng.randint(1, 4)
        return {
            "eps_prime": eps_prime,
            "n_values": list(range(first, first + num)),
            "c_prime": round(eps_prime * rng.uniform(1.2, 4.0), 6),
            "alpha_eps": round(rng.uniform(0.01, 0.5), 6),
            "alpha_eps_p": round(rng.uniform(0.01, 0.5), 6),
            "error_exponent": round(rng.uniform(0.05, 1.0), 6),
            "r0": round(rng.uniform(0.5, 4.0), 6),
            "perturbation": {
                "p": round(rng.uniform(1.0, 50.0), 6),
                "n_tx": n_tx,
                "n_eve": rng.randint(1, n_tx),
                "eps": round(rng.uniform(0.05, 0.5), 6),
            },
        }
    raise ValueError(f"unknown analysis kind {kind!r}")


# ---------------------------------------------------------------------------
# output checks


def parse_csv(text: str):
    """Split a CLI table into (metadata, header, rows of string cells)."""
    metadata, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return metadata, header or [], rows


def check(inv: Invocation, rc, text: str) -> list[str]:
    """Problems with one invocation's exit code and CSV; empty when correct."""
    metadata, header, rows = parse_csv(text)
    if metadata.get("command") != inv.argv[0]:
        return [f"metadata command {metadata.get('command')!r} != {inv.argv[0]!r}"]
    if any(len(row) != len(header) for row in rows):
        return ["a row's width differs from the header"]
    table = [dict(zip(header, row)) for row in rows]
    try:
        if inv.kind == "simulate":
            errors = _check_simulate(table)
        elif inv.kind == "verify":
            errors = _check_verify(table)
        elif inv.kind == "rate":
            errors = _check_rate(inv.config, table)
        elif inv.kind in ("mac", "bc"):
            errors = _check_region(inv.config, table)
        else:
            errors = _check_schedule(inv.config, table)
    except (KeyError, ValueError) as exc:
        return [f"malformed table: {exc!r}"]
    expected_rc = 0
    if inv.kind == "verify" and any(row["passed"] == "0" for row in table):
        expected_rc = 2  # a red battery is reported, not counted as a failure
    if rc != expected_rc:
        errors.append(f"exit code {rc!r}, expected {expected_rc}")
    return errors


def _finite(row, *columns) -> dict:
    out = {}
    for col in columns:
        value = float(row[col])
        if not math.isfinite(value):
            raise ValueError(f"{col}={row[col]} is not finite")
        out[col] = value
    return out


def _flag(value: str) -> None:
    if value not in ("0", "1"):
        raise ValueError(f"flag {value!r} is not 0/1")


def _check_simulate(table) -> list[str]:
    errors = []
    if [int(row["n"]) for row in table] != list(SIMULATE_SHAPES):
        return [f"blocklengths {[row['n'] for row in table]} != {list(SIMULATE_SHAPES)}"]
    for row in table:
        n = int(row["n"])
        if (int(row["n_bins"]), int(row["per_bin"])) != SIMULATE_SHAPES[n]:
            errors.append(f"n={n}: bins ({row['n_bins']}, {row['per_bin']}) != {SIMULATE_SHAPES[n]}")
        v = _finite(row, "main_err", "main_err_se", "eve_err", "eve_err_se", "d_hat",
                    "d_se", "mi_hat", "mi_se", "mi_bound")
        _flag(row["saturated"])
        for col in ("main_err", "eve_err", "d_hat"):
            if not 0.0 <= v[col] <= 1.0:
                errors.append(f"n={n}: {col}={v[col]} outside [0, 1]")
    return errors


def _check_verify(table) -> list[str]:
    ids = tuple(row["check"] for row in table)
    if ids != VERIFY_IDS:
        return [f"check ids {ids} != {VERIFY_IDS}"]
    for row in table:
        _finite(row, "observed", "bound")
        _flag(row["passed"])
    return []


def _check_rate(cfg, table) -> list[str]:
    num = cfg["pbar_grid"]["num"]
    if len(table) != num:
        return [f"{len(table)} rows for a {num}-point grid"]
    errors = []
    for row in table:
        v = _finite(row, "pbar", "p", "main_mi", "leakage_cap", "secrecy_rate", "converse_bound")
        if min(v.values()) < 0.0:
            errors.append(f"pbar={row['pbar']}: negative value")
        if v["secrecy_rate"] > v["converse_bound"] * (1.0 + ROUNDING) + ROUNDING:
            errors.append(f"pbar={row['pbar']}: secrecy rate above the converse")
    return errors


def _check_region(cfg, table) -> list[str]:
    raw_count = cfg["alpha_grid"]["num"] if cfg["model"] == "mac" else 3
    points = np.array([list(_finite(row, "r1", "r2").values()) for row in table]).reshape(-1, 2)
    is_hull = np.array([row["hull"] == "1" for row in table], dtype=bool)
    raw, hull = points[~is_hull], points[is_hull]
    if len(raw) != raw_count or not len(hull) or not all(row["hull"] in ("0", "1") for row in table):
        return [f"{len(raw)} raw and {len(hull)} hull rows, expected {raw_count} raw"]
    if np.any(points < 0.0):
        return ["negative rate pair"]
    # the hull must cover every raw point, its axis projections and the origin
    closure = np.vstack([raw, raw * [1.0, 0.0], raw * [0.0, 1.0], [[0.0, 0.0]]])
    tol = 1e-9 * max(1.0, float(points.max())) ** 2
    outside = int(np.count_nonzero(~_in_convex_polygon(hull, closure, tol)))
    return [f"{outside} points of the closure lie outside the hull"] if outside else []


def _cross(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0])


def _in_convex_polygon(hull, pts, tol):
    """Which points lie in the convex polygon with these vertices, in
    O(len(pts) log len(hull)) time and memory linear in the inputs."""
    if len(hull) == 1:
        return np.abs(pts - hull[0]).max(axis=1) <= tol
    if len(hull) == 2:
        a, b = hull
        on_line = np.abs(_cross(a, b, pts)) <= tol
        t = (pts - a) @ (b - a)
        return on_line & (t >= -tol) & (t <= (b - a) @ (b - a) + tol)
    x, y = hull[:, 0], hull[:, 1]
    if np.dot(x, np.roll(y, -1)) < np.dot(y, np.roll(x, -1)):
        hull = hull[::-1]  # clockwise: turn it counterclockwise
    # fan from the lowest-x vertex: the other vertices' angles increase
    hull = np.roll(hull, -int(np.lexsort((hull[:, 1], hull[:, 0]))[0]), axis=0)
    v0 = hull[0]
    angles = np.arctan2(hull[1:, 1] - v0[1], hull[1:, 0] - v0[0])
    j = np.clip(np.searchsorted(angles, np.arctan2(pts[:, 1] - v0[1], pts[:, 0] - v0[0])), 1, len(hull) - 2)
    return ((_cross(v0, hull[1], pts) >= -tol)
            & (_cross(v0, hull[-1], pts) <= tol)
            & (_cross(hull[j], hull[j + 1], pts) >= -tol))


def _check_schedule(cfg, table) -> list[str]:
    if [int(row["n"]) for row in table] != cfg["n_values"]:
        return [f"{len(table)} schedule rows do not match the {len(cfg['n_values'])} blocklengths"]
    errors = []
    for row in table:
        v = _finite(row, "eps_n", "log_k", "log_m", "overhead_factor", "stage2_per_use")
        for col in ("distance_exponent_ok", "residual_tail_ok", "truncation_tail_ok",
                    "decoding_exponent_ok", "growth_ok", "drift_ok"):
            _flag(row[col])
        if not (0.0 <= v["eps_n"] <= 1.0 and v["log_k"] >= 0.0 and v["log_m"] >= 0.0
                and v["overhead_factor"] >= 1.0 and v["stage2_per_use"] >= 0.0):
            errors.append(f"n={row['n']}: schedule value out of range")
    return errors


# ---------------------------------------------------------------------------
# negative controls


def corruptions(inv: Invocation, text: str) -> dict[str, str]:
    """Damaged copies of a correct CSV that ``check`` must reject."""
    lines = text.splitlines(keepends=True)
    bad_cell = {
        "simulate": ("d_hat", lambda v: "1.5"),
        "verify": ("observed", lambda v: "nan"),
        "rate": ("secrecy_rate", lambda v: repr(abs(float(v)) * 2.0 + 1e6)),
        "mac": ("r1", lambda v: "-1"),
        "bc": ("r1", lambda v: "-1"),
        "schedule": ("n", lambda v: str(int(v) + 1)),
    }[inv.kind]
    return {
        "dropped-row": "".join(lines[:-1]),
        f"{bad_cell[0]}-corrupted": _set_first_cell(lines, *bad_cell),
    }


def _set_first_cell(lines, column, make_value) -> str:
    out = list(lines)
    head = next(i for i, line in enumerate(out) if not line.startswith("#"))
    cells = out[head + 1].rstrip("\n").split(",")
    col = out[head].rstrip("\n").split(",").index(column)
    cells[col] = make_value(cells[col])
    out[head + 1] = ",".join(cells) + "\n"
    return "".join(out)
