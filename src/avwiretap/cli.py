"""Command-line front end: seeded, reproducible experiment drivers that
emit plot-ready CSV.

Subcommands
-----------
rate      secrecy rate, leakage cap, and converse over a power grid
region    multi-access or broadcast time-sharing region with its hull
simulate  toy-scale codebook sweep: decode errors, distance, leakage
verify    stock battery of bound/invariance checks
schedule  correlation-elimination schedule values and feasibility flags

Every output embeds the configuration hash, the seed, and the toolkit
version.  Monte Carlo work is split into per-task generators spawned from
the master seed, so results are byte-identical for any ``--threads``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import EveTrace, MainChannel, PowerConfig
from .checks import default_verification_suite, noise_whiteness_check
from .codebook import (
    ToyScaleError,
    binning_params,
    check_toy_caps,
    codebook_ensemble,
    estimate_decode_error,
)
from .leakage import (
    estimate_leakage_mi,
    estimate_variational_distance,
    leakage_from_distance,
    total_distance_bound,
)
from .quantization import schedule_params, two_stage_overhead
from .rates import (
    bc_region,
    converse_rate_bound,
    leakage_cap,
    mac_region,
    main_mutual_info,
    secrecy_rate,
)

ENV_PREFIX = "AVWT_"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY_FAILED = 2
EXIT_CAPPED = 3


class ConfigError(ValueError):
    """Configuration file or parameter problem."""


@dataclass
class ResultTable:
    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("row width does not match the header")
        self.rows.append(tuple(values))

    def write(self, fh):
        for key in sorted(self.metadata):
            fh.write(f"# {key}={self.metadata[key]}\n")
        fh.write(",".join(self.columns) + "\n")
        for row in self.rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def read_table(path):
    """Reload a CSV written by ``ResultTable.write`` (metadata, header, rows)."""
    metadata, columns, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                metadata[key] = value
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return metadata, columns, rows


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def parse_matrix(value) -> np.ndarray:
    """Channel matrix schema: identity / diagonal shorthand or explicit
    row-major [re, im] entry pairs."""
    if isinstance(value, dict) and "identity" in value:
        return np.eye(int(value["identity"]), dtype=complex)
    if isinstance(value, dict) and "diagonal" in value:
        return np.diag([complex(v) for v in value["diagonal"]])
    if isinstance(value, dict) and {"rows", "cols", "entries"} <= value.keys():
        rows, cols = int(value["rows"]), int(value["cols"])
        entries = value["entries"]
        if len(entries) != rows * cols:
            raise ConfigError(f"matrix needs {rows * cols} entries, got {len(entries)}")
        flat = [complex(re, im) for re, im in entries]
        return np.array(flat, dtype=complex).reshape(rows, cols)
    raise ConfigError(
        "matrix must be {'identity': k}, {'diagonal': [...]}, or "
        "{'rows', 'cols', 'entries': [[re, im], ...]}"
    )


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _power_grid(value) -> np.ndarray:
    if isinstance(value, list):
        return np.asarray(value, dtype=float)
    if isinstance(value, dict):
        num = int(value.get("num", 20))
        start, stop = float(value["start"]), float(value["stop"])
        if value.get("spacing", "log") == "log":
            return np.logspace(math.log10(start), math.log10(stop), num)
        return np.linspace(start, stop, num)
    raise ConfigError("pbar_grid must be a list or {'start','stop','num','spacing'}")


def _spawn_rngs(seed: int, count: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _run_tasks(tasks, threads: int):
    """Ordered execution of no-argument callables, optionally threaded."""
    if threads <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda t: t(), tasks))


# ---------------------------------------------------------------------------
# subcommands


def cmd_rate(cfg: dict, convention: str) -> ResultTable:
    ch = MainChannel(parse_matrix(_require(cfg, "channel")))
    n_eve = int(_require(cfg, "n_eve"))
    eps_p = float(cfg.get("eps_p", 0.0))
    grid = _power_grid(_require(cfg, "pbar_grid"))
    table = ResultTable(
        columns=["pbar", "p", "main_mi", "leakage_cap", "secrecy_rate", "converse_bound"]
    )
    for pbar in grid:
        pc = PowerConfig(pbar=float(pbar), eps_p=eps_p, n_tx=ch.n_modes)
        res = secrecy_rate(ch, pc, n_eve, convention)
        table.add(
            float(pbar),
            pc.p,
            res.main_mi,
            leakage_cap(pc, n_eve, "conservative", convention),
            res.rate_bits,
            converse_rate_bound(ch, float(pbar), n_eve, convention),
        )
    return table


def cmd_region(cfg: dict, convention: str) -> ResultTable:
    model = _require(cfg, "model")
    if model not in ("mac", "bc"):
        raise ConfigError("model must be 'mac' or 'bc'")
    ch1 = MainChannel(parse_matrix(_require(cfg, "channel1")))
    ch2 = MainChannel(parse_matrix(_require(cfg, "channel2")))
    pbar = float(_require(cfg, "pbar"))
    n_eve = int(_require(cfg, "n_eve"))
    if model == "mac":
        grid_cfg = cfg.get("alpha_grid", {})
        alphas = np.linspace(
            float(grid_cfg.get("start", 0.01)),
            float(grid_cfg.get("stop", 1.0)),
            int(grid_cfg.get("num", 101)),
        )
        region = mac_region(ch1, ch2, pbar, n_eve, alphas, convention)
    else:
        region = bc_region(ch1, ch2, pbar, n_eve, convention)
    table = ResultTable(columns=["r1", "r2", "hull"])
    for r1, r2 in region.raw_points:
        table.add(float(r1), float(r2), False)
    for r1, r2 in region.hull:
        table.add(float(r1), float(r2), True)
    return table


def cmd_simulate(cfg: dict, seed: int, threads: int) -> ResultTable:
    pbar = float(cfg.get("pbar", 6.0))
    eps_p = float(cfg.get("eps_p", 0.5))
    n_tx = int(cfg.get("n_tx", 2))
    n_eve = int(cfg.get("n_eve", 1))
    n_values = [int(v) for v in cfg.get("n_values", [2, 4, 8])]
    delta_n = float(cfg.get("delta_n", 0.5))
    delta_prime = float(cfg.get("delta_prime", 0.25))
    mode = cfg.get("mode", "strong")
    distance_samples = int(cfg.get("distance_samples", 1_000))
    mi_samples = int(cfg.get("mi_samples", 1_000))
    error_trials = int(cfg.get("error_trials", 200))
    books = int(cfg.get("codebooks", 4))
    if distance_samples < 2 or mi_samples < 2 or error_trials < 1:
        raise ConfigError("Monte Carlo budgets must be positive")
    if books < 2:
        raise ConfigError("need at least two codebooks per blocklength")
    for n in n_values:
        # refuse before binning_params sizes 2^(n rate) codewords
        check_toy_caps(0, n)
    w_count = int(cfg.get("w_subset", 4))
    ch = MainChannel(parse_matrix(cfg.get("channel", {"identity": n_tx})))
    pc = PowerConfig(pbar=pbar, eps_p=eps_p, n_tx=n_tx)
    i_main = main_mutual_info(ch, pc)
    i_eve = n_eve * math.log2(pc.p_prime)

    def make_task(n, rng):
        # single-draw codebooks fluctuate at toy blocklengths, so every
        # statistic is an ensemble average with its spread taken across
        # freshly drawn books
        def run():
            bp = binning_params(i_main, i_eve, n, delta_n, delta_prime, mode)
            trace = EveTrace.random(n_eve, n_tx, n, rng)
            trials = max(1, error_trials // books)

            def stats(cb):
                lam, _ = estimate_decode_error(cb, ch, trials, rng)
                eta, _ = estimate_decode_error(cb, trace, trials, rng)
                est = estimate_variational_distance(
                    cb, trace, range(min(cb.n_bins, w_count)),
                    max(2, distance_samples // books), rng,
                )
                mi, _ = estimate_leakage_mi(
                    cb, trace, max(2, mi_samples // books), rng
                )
                return lam, eta, est.d_hat, mi, est.saturated

            mean, stderr = codebook_ensemble(bp, pc, books, rng, stats)
            mi_bound = leakage_from_distance(
                total_distance_bound(float(mean[2]), n, pc), bp.n_bins
            )
            return (
                n, bp.n_bins, bp.per_bin, float(mean[0]), float(stderr[0]),
                float(mean[1]), float(stderr[1]), float(mean[2]), float(stderr[2]),
                float(mean[3]), float(stderr[3]), mi_bound, bool(mean[4] > 0),
            )

        return run

    rngs = _spawn_rngs(seed, len(n_values))
    tasks = [make_task(n, rng) for n, rng in zip(n_values, rngs)]
    table = ResultTable(
        columns=[
            "n", "n_bins", "per_bin", "main_err", "main_err_se", "eve_err",
            "eve_err_se", "d_hat", "d_se", "mi_hat", "mi_se", "mi_bound",
            "saturated",
        ]
    )
    for row in _run_tasks(tasks, threads):
        table.add(*row)
    return table


def cmd_verify(cfg: dict, seed: int, threads: int) -> ResultTable:
    budget = cfg.get("budget", "standard")
    if budget not in ("light", "standard"):
        raise ConfigError("budget must be 'light' or 'standard'")
    rngs = iter(_spawn_rngs(seed, 32))
    results = default_verification_suite(rngs, budget)
    if cfg.get("inject_noncanonical"):
        # negative control: a scaled row is not canonical and must trip the
        # whiteness check
        bad = [np.array([[1.4, 0.0]], dtype=complex)]
        results.insert(
            0,
            noise_whiteness_check(1, 2, 1, 20_000, next(rngs), state_mats=bad),
        )
    table = ResultTable(columns=["check", "description", "observed", "bound", "passed"])
    for res in results:
        table.add(res.check_id, res.description, res.observed, res.bound, res.passed)
    return table


def cmd_schedule(cfg: dict) -> ResultTable:
    eps_prime = float(_require(cfg, "eps_prime"))
    n_values = [int(v) for v in cfg.get("n_values", [1000])]
    c_prime = float(cfg.get("c_prime", 0.05))
    alpha_eps = float(cfg.get("alpha_eps", 0.05))
    alpha_eps_p = float(cfg.get("alpha_eps_p", 0.05))
    error_exponent = float(cfg.get("error_exponent", 0.5))
    r0 = float(cfg.get("r0", 1.0))
    pert_cfg = cfg.get("perturbation")
    pert = None
    if pert_cfg is not None:
        pert = (
            float(pert_cfg["p"]),
            int(pert_cfg["n_tx"]),
            int(pert_cfg["n_eve"]),
            float(pert_cfg["eps"]),
        )
    overhead, stage2 = two_stage_overhead(eps_prime, r0)
    table = ResultTable(
        columns=[
            "n", "eps_n", "log_k", "log_m", "distance_exponent_ok",
            "residual_tail_ok", "truncation_tail_ok", "decoding_exponent_ok",
            "growth_ok", "drift_ok", "min_feasible_n", "overhead_factor",
            "stage2_per_use",
        ]
    )
    for n in n_values:
        sp = schedule_params(
            eps_prime, n, c_prime, alpha_eps, alpha_eps_p, error_exponent, pert
        )
        table.add(
            n, sp.eps_n, sp.log_k, sp.log_m, sp.distance_exponent_ok,
            sp.residual_tail_ok, sp.truncation_tail_ok, sp.decoding_exponent_ok,
            sp.growth_ok, "" if sp.drift_ok is None else sp.drift_ok,
            "" if sp.min_feasible_n is None else sp.min_feasible_n,
            overhead, stage2,
        )
    return table


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


# ---------------------------------------------------------------------------
# argument plumbing


def _env(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name, fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avwiretap",
        description="secrecy-rate analysis and toy coding experiments for "
        "wiretap channels with arbitrarily varying eavesdroppers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_seed in (
        ("rate", False),
        ("region", False),
        ("simulate", True),
        ("verify", True),
        ("schedule", False),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed (required for Monte Carlo commands)")
        sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--convention", choices=["full", "half"], default=None)
        sp.set_defaults(needs_seed=needs_seed)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        seed = args.seed if args.seed is not None else _env("SEED")
        seed = int(seed) if seed is not None else None
        if args.needs_seed and seed is None:
            raise ConfigError(
                f"command {args.command!r} runs Monte Carlo and needs --seed "
                f"(or {ENV_PREFIX}SEED)"
            )
        threads = args.threads if args.threads is not None else int(_env("THREADS", 1))
        convention = args.convention or _env("CONVENTION", "full")
        if convention not in ("full", "half"):
            raise ConfigError("convention must be 'full' or 'half'")
        out_path = args.out if args.out is not None else _env("OUT")

        if args.command == "rate":
            table = cmd_rate(cfg, convention)
        elif args.command == "region":
            table = cmd_region(cfg, convention)
        elif args.command == "simulate":
            table = cmd_simulate(cfg, seed, threads)
        elif args.command == "verify":
            table = cmd_verify(cfg, seed, threads)
        else:
            table = cmd_schedule(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ToyScaleError as exc:
        print(f"refusing oversized run: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    table.metadata.update(
        {
            "command": args.command,
            "config_hash": _config_hash(cfg),
            "seed": "" if seed is None else seed,
            "version": __version__,
            "convention": convention,
        }
    )
    if out_path:
        with open(out_path, "w") as fh:
            table.write(fh)
    else:
        table.write(sys.stdout)
    if args.command == "verify":
        failed = [row for row in table.rows if not row[-1]]
        if failed:
            print(f"{len(failed)} verification check(s) failed", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
