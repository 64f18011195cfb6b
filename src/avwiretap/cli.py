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
version.  Monte Carlo work draws from generators spawned from the master
seed, one per blocklength or check, so a seed fixes the output bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import operator
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .channel import EveTrace, MainChannel, PowerConfig
from .codebook import (
    MODES,
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
EXIT_INTERNAL = 4

# Most points a `rate` power grid or a `region` alpha grid may hold.  `rate`
# keeps about 540 bytes per point (a fresh process peaks near 570 MB at the
# cap); a larger grid is refused (exit 3) before it is built.
GRID_POINT_CAP = 2**20
# Most entries (rows x cols) a channel matrix may hold, refused (exit 3) from
# its counts before it is built; the SVD of one at the cap (1024 x 1024)
# takes about 0.4 s.
MATRIX_ENTRY_CAP = 2**20


class ConfigError(ValueError):
    """Configuration file or parameter problem."""


# Thread-count symbols of the scipy-openblas wheels (64- and 32-bit integer
# builds) and of a plain OpenBLAS.
_OPENBLAS_SYMBOLS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


@functools.lru_cache(maxsize=1)
def _openblas_thread_controls(module_count: int) -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS loaded into
    this process, found by path in /proc/self/maps; empty where there is
    none.  A library comes in with an extension-module import (scipy's own
    OpenBLAS with the first ``scipy.special`` import), so the scan is keyed
    by the number of loaded modules and reruns only when that changes."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return ()
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread and give each
    its previous count back on the way out.  The GEMMs here are too thin for
    a second BLAS thread to pay."""
    controls = _openblas_thread_controls(len(sys.modules))
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


def write_table(fh, metadata: dict, header: list, blocks) -> None:
    """Write the sorted metadata lines, the header and then each block's rows.

    A block holds one entry per column: an equally long array or list, or
    one value that fills its column on every row of the block.  Each block
    is written with one %-format string, in which a fill value stands
    formatted once by ``_format_cell``.  A 1-d array of floats, integers or
    flags takes its format from its dtype; any other column is written cell
    by cell through ``_format_cell`` as %s."""
    for key in sorted(metadata):
        fh.write(f"# {key}={metadata[key]}\n")
    fh.write(",".join(map(_format_cell, header)) + "\n")
    for block in blocks:
        if len(block) != len(header):
            raise ValueError("row width does not match the header")
        formats, columns = [], []
        for cells in block:
            fmt = None
            if isinstance(cells, np.ndarray):
                if cells.ndim == 1:
                    fmt = _DTYPE_FORMATS.get(cells.dtype.kind)
                cells = cells.tolist()
            if isinstance(cells, list):
                if fmt is None:
                    fmt, cells = "%s", [_format_cell(v) for v in cells]
                columns.append(cells)
            else:
                fmt = _format_cell(cells).replace("%", "%%")
            formats.append(fmt)
        if len(set(map(len, columns))) > 1:
            raise ValueError("columns differ in length")
        line = ",".join(formats) + "\n"
        fh.write("".join(line % row for row in zip(*columns)))


_FLAG_TYPES = (bool, np.bool_)
_FLOAT_TYPES = (float, np.floating)
# the format of a 1-d array column by its dtype kind: what ``_format_cell``
# writes for each of its cells (%d writes a flag as 1/0)
_DTYPE_FORMATS = {"f": "%.12g", "i": "%d", "u": "%d", "b": "%d"}


def _format_cell(v) -> str:
    if isinstance(v, _FLAG_TYPES):
        return "1" if v else "0"
    if isinstance(v, _FLOAT_TYPES):
        return "%.12g" % v
    v = str(v)
    # quoted as csv.writer quotes, for csv.reader in read_table; csv.writer
    # itself writes the same bytes but made 5,000-row tables ~10% slower
    if "," in v or '"' in v or "\n" in v or "\r" in v:
        return '"' + v.replace('"', '""') + '"'
    return v


def read_table(path):
    """Reload a CSV written by ``write_table`` (metadata, header, rows)."""
    metadata, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                metadata[key] = value
            else:
                body.append(line)
    table = [row for row in csv.reader(body) if row]
    return metadata, (table[0] if table else None), table[1:]


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


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config reading

REQUIRED = object()  # the default of a key that must be given


def _read(obj, where: str, **spec) -> list:
    """The values of a config object's keys in ``spec`` order; ``spec`` maps
    each key the object may hold to ``(read, default)``.  ``read(value,
    name)`` returns the value or raises a ConfigError; a missing key gives
    ``default`` as it is, or an error if that is ``REQUIRED``.  A non-object,
    an unknown key, and a KeyError, TypeError or OverflowError in a reader
    are ConfigErrors too.  ``where`` names a nested object ("" for the root)
    and prefixes its keys' names."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config'} must be an object, not {type(obj).__name__}")
    unknown = ", ".join(map(repr, sorted(set(obj) - spec.keys())))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: {unknown}")
    values = []
    for key, (read, default) in spec.items():
        name = f"{where}.{key}" if where else key
        if key not in obj and default is REQUIRED:
            raise ConfigError(f"missing required config key {name!r}")
        try:
            values.append(read(obj[key], name) if key in obj else default)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad value for config key {name!r}: {exc!r}") from exc
    return values


def _float(value, name: str) -> float:
    """A finite JSON number (not a boolean or a string) as float."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def _reals(value, name: str) -> np.ndarray:
    """A nonempty flat JSON list of finite numbers as a float array."""
    if isinstance(value, list) and value and set(map(type, value)) <= {int, float}:
        values = np.array(value, dtype=float)
        if np.isfinite(values).all():
            return values
    raise ConfigError(f"{name} must be a nonempty flat list of finite numbers")


def _pairs(value, name: str) -> np.ndarray:
    """A nonempty JSON list of [re, im] pairs as a complex array."""
    if isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value):
        return _reals([x for pair in value for x in pair], name).view(complex)
    raise ConfigError(f"{name} must be a list of [re, im] pairs")


_COUNT_LIMIT = 2**53  # past it, floats stop being exact


def _counts(values, name: str) -> list:
    """A nonempty list of counts as ints: whole numbers up to 2^53 in
    magnitude, such as 4 and 4.0, pass, but not 2.7, a boolean or a string.
    A list of ints is returned as it is, after one min/max check."""
    if not (isinstance(values, list) and values):
        raise ConfigError(f"{name} must be a nonempty list of counts")
    kinds = set(map(type, values))
    if kinds <= {int} and -_COUNT_LIMIT <= min(values) and max(values) <= _COUNT_LIMIT:
        return values
    for v in values:
        if type(v) not in (int, float) or not (abs(v) <= _COUNT_LIMIT and v == round(v)):
            raise ConfigError(f"{name} must hold whole numbers up to 2^53 in magnitude, not {v!r}")
    return [int(v) for v in values]


def _count(value, name: str) -> int:
    """One count-valued config entry as int (``_counts``)."""
    return _counts([value], name)[0]


def _within(read, interval: str):
    """``read`` refusing a value, or any entry of the list or array it
    returns, outside ``interval``, written as "[0, 1)" or "(0, inf)" (a
    bracket takes its end in).  Only a finite end is checked, in one pass."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    below = operator.le if interval[0] == "(" else operator.lt
    above = operator.ge if interval[-1] == ")" else operator.gt

    def read_within(value, name):
        values = read(value, name)
        entries = values if isinstance(values, (list, np.ndarray)) else [values]
        least, most = (np.min, np.max) if isinstance(entries, np.ndarray) else (min, max)
        for end, extreme, outside in ((low, least, below), (high, most, above)):
            if math.isfinite(end) and outside(bad := extreme(entries), end):
                raise ConfigError(f"{name} must lie in {interval}, not {bad}")
        return values
    return read_within


def _choice(*options):
    """A reader that takes one of ``options``, equal in value and type."""
    def read(value, name):
        if any(type(value) is type(o) and value == o for o in options):
            return value
        raise ConfigError(f"{name} must be one of {', '.join(map(repr, options))}, not {value!r}")
    return read


def parse_matrix(value, where: str = "matrix") -> np.ndarray:
    """Channel matrix schema, in exactly one form: identity / diagonal
    shorthand or explicit row-major [re, im] entry pairs.  A matrix of more
    than ``MATRIX_ENTRY_CAP`` entries is refused (ToyScaleError)."""
    if isinstance(value, dict) and "identity" in value:
        (k,) = _read(value, where, identity=(_within(_count, "[1, inf)"), REQUIRED))
        _check_size(k * k, MATRIX_ENTRY_CAP, f"{where} has {k} x {k} entries")
        return np.eye(k, dtype=complex)
    if isinstance(value, dict) and "diagonal" in value:
        (diagonal,) = _read(value, where, diagonal=(_reals, REQUIRED))
        k = diagonal.size
        _check_size(k * k, MATRIX_ENTRY_CAP, f"{where} has {k} x {k} entries")
        return np.diag(diagonal.astype(complex))
    if isinstance(value, dict) and "entries" in value:
        rows, cols, entries = _read(
            value, where, rows=(_within(_count, "[1, inf)"), REQUIRED),
            cols=(_within(_count, "[1, inf)"), REQUIRED), entries=(_pairs, REQUIRED),
        )
        _check_size(rows * cols, MATRIX_ENTRY_CAP, f"{where} has {rows} x {cols} entries")
        if entries.size != rows * cols:
            raise ConfigError(f"{where} needs {rows * cols} entries, got {entries.size}")
        return entries.reshape(rows, cols)
    raise ConfigError(f"{where} must be {{'identity': k}}, {{'diagonal': [...]}} or "
                      "{'rows', 'cols', 'entries': [[re, im], ...]}")


def _channel(value, name: str) -> MainChannel:
    return MainChannel(parse_matrix(value, name))


def _power_grid(value, name: str) -> np.ndarray:
    if isinstance(value, list):
        _check_size(len(value), GRID_POINT_CAP, f"{name} has {len(value)} points")
        return _within(_reals, "[0, inf)")(value, name)
    start, stop, num, spacing = _read(
        value, name, start=(_within(_float, "[0, inf)"), REQUIRED),
        stop=(_within(_float, "[0, inf)"), REQUIRED), num=(_within(_count, "[1, inf)"), 20),
        spacing=(_choice("log", "linear"), "log"),
    )
    _check_size(num, GRID_POINT_CAP, f"{name} has {num} points")
    if spacing == "linear":
        return np.linspace(start, stop, num)
    if start <= 0 or stop <= 0:
        raise ConfigError(f"a log-spaced {name} needs start and stop above 0")
    return np.logspace(math.log10(start), math.log10(stop), num)


def _alpha_grid(value, name: str) -> np.ndarray:
    start, stop, num = _read(
        value, name, start=(_within(_float, "(0, 1]"), 0.01),
        stop=(_within(_float, "(0, 1]"), 1.0), num=(_within(_count, "[1, inf)"), 101),
    )
    _check_size(num, GRID_POINT_CAP, f"{name} has {num} points")
    return np.linspace(start, stop, num)


def _perturbation(value, name: str) -> tuple:
    return tuple(_read(
        value, name, p=(_within(_float, "[0, inf)"), REQUIRED),
        n_tx=(_within(_count, "[1, inf)"), REQUIRED),
        n_eve=(_within(_count, "[1, inf)"), REQUIRED), eps=(_within(_float, "(0, inf)"), REQUIRED),
    ))


def _check_size(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise ToyScaleError(f"{what}, over the cap of {cap}")


def _spawn_rngs(seed: int, count: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_rate(cfg: dict, scale: float) -> tuple:
    ch, n_eve, eps_p, grid = _read(
        cfg, "", channel=(_channel, REQUIRED), n_eve=(_within(_count, "[0, inf)"), REQUIRED),
        eps_p=(_within(_float, "[0, 1)"), 0.0), pbar_grid=(_power_grid, REQUIRED),
    )
    pc = PowerConfig(pbar=grid, eps_p=eps_p, n_tx=ch.n_modes)
    res = secrecy_rate(ch, pc, n_eve)
    header = ["pbar", "p", "main_mi", "leakage_cap", "secrecy_rate", "converse_bound"]
    return header, [[
        grid, pc.p, scale * res.main_mi, scale * res.leakage_cap, scale * res.rate_bits,
        scale * converse_rate_bound(ch, grid, n_eve),
    ]]


def cmd_region(cfg: dict, scale: float) -> tuple:
    # alpha_grid belongs to the multi-access model only
    mac = cfg.get("model") != "bc"
    model, ch1, ch2, pbar, n_eve, *alphas = _read(
        cfg, "", model=(_choice("mac", "bc"), REQUIRED), channel1=(_channel, REQUIRED),
        channel2=(_channel, REQUIRED), pbar=(_within(_float, "[0, inf)"), REQUIRED),
        n_eve=(_within(_count, "[0, inf)"), REQUIRED),
        **({"alpha_grid": (_alpha_grid, _alpha_grid({}, "alpha_grid"))} if mac else {}),
    )
    if model == "mac":
        region = mac_region(ch1, ch2, pbar, n_eve, *alphas)
    else:
        region = bc_region(ch1, ch2, pbar, n_eve)
    return ["r1", "r2", "hull"], [
        [scale * region.raw_points[:, 0], scale * region.raw_points[:, 1], False],
        [scale * region.hull[:, 0], scale * region.hull[:, 1], True],
    ]


def cmd_simulate(cfg: dict, seed: int) -> tuple:
    (pbar, eps_p, n_tx, n_eve, n_values, delta_n, delta_prime, mode, distance_samples,
     mi_samples, error_trials, books, w_count, ch) = _read(
        cfg, "", pbar=(_within(_float, "[0, inf)"), 6.0),
        eps_p=(_within(_float, "[0, 1)"), 0.5), n_tx=(_within(_count, "[1, inf)"), 2),
        n_eve=(_count, 1), n_values=(_within(_counts, "[1, inf)"), [2, 4, 8]),
        delta_n=(_within(_float, "(0, inf)"), 0.5),
        delta_prime=(_within(_float, "(0, inf)"), 0.25), mode=(_choice(*MODES), "strong"),
        distance_samples=(_within(_count, "[2, inf)"), 1_000),
        mi_samples=(_within(_count, "[2, inf)"), 400),
        error_trials=(_within(_count, "[1, inf)"), 200),
        codebooks=(_within(_count, "[2, inf)"), 4), w_subset=(_within(_count, "[1, inf)"), 4),
        channel=(_channel, None),
    )
    ch = ch or _channel({"identity": n_tx}, "channel")
    if ch.n_tx != n_tx:
        raise ConfigError(f"channel has {ch.n_tx} transmit antennas but n_tx is {n_tx}")
    if ch.n_modes != n_tx:
        raise ConfigError(f"channel has {ch.n_rx} receive antennas, fewer than n_tx = {n_tx}")
    if not 1 <= n_eve <= n_tx:
        raise ConfigError(f"n_eve must lie between 1 and n_tx = {n_tx}, not {n_eve}")
    pc = PowerConfig(pbar=pbar, eps_p=eps_p, n_tx=n_tx)
    i_main = main_mutual_info(ch, pc)
    i_eve = leakage_cap(pc, n_eve, "exact")
    # size every book, and refuse one past the exact-mixture caps, before
    # any Monte Carlo work
    bps = [binning_params(i_main, i_eve, n, delta_n, delta_prime, mode) for n in n_values]
    for n, bp in zip(n_values, bps):
        check_toy_caps(bp.n_bins * bp.per_bin, n)

    header = [
        "n", "n_bins", "per_bin", "main_err", "main_err_se", "eve_err",
        "eve_err_se", "d_hat", "d_se", "mi_hat", "mi_se", "mi_bound", "saturated",
    ]
    rows = []
    trials = max(1, error_trials // books)
    for n, bp, rng in zip(n_values, bps, _spawn_rngs(seed, len(n_values))):
        # single-draw codebooks fluctuate at toy blocklengths, so every
        # statistic is an ensemble average with its spread taken across
        # freshly drawn books
        trace = EveTrace.random(n_eve, n_tx, n, rng)

        def stats(cb):
            lam, _ = estimate_decode_error(cb, ch, trials, rng)
            eta, _ = estimate_decode_error(cb, trace, trials, rng)
            est = estimate_variational_distance(
                cb, trace, range(min(cb.n_bins, w_count)),
                max(2, distance_samples // books), rng,
            )
            mi, _ = estimate_leakage_mi(cb, trace, max(2, mi_samples // books), rng)
            return lam, eta, est.d_hat, mi, est.saturated

        mean, stderr = codebook_ensemble(bp, pc, books, rng, stats)
        mi_bound = leakage_from_distance(
            total_distance_bound(float(mean[2]), n, pc), bp.n_bins
        )
        rows.append((
            n, bp.n_bins, bp.per_bin, float(mean[0]), float(stderr[0]),
            float(mean[1]), float(stderr[1]), float(mean[2]), float(stderr[2]),
            float(mean[3]), float(stderr[3]), mi_bound, bool(mean[4] > 0),
        ))
    return header, [[list(column) for column in zip(*rows)]]


def cmd_verify(cfg: dict, seed: int) -> tuple:
    # imported here, as only this command needs the battery (and the scipy
    # functions it loads)
    from .checks import default_verification_suite, noise_whiteness_check

    budget, inject = _read(
        cfg, "", budget=(_choice("light", "standard"), "standard"),
        inject_noncanonical=(_choice(True, False), False),
    )
    rngs = iter(_spawn_rngs(seed, 32))
    results = default_verification_suite(rngs, budget)
    if inject:
        # negative control: a scaled row is not canonical and must trip the
        # whiteness check
        bad = [np.array([[1.4, 0.0]], dtype=complex)]
        results.insert(
            0,
            noise_whiteness_check(1, 2, 1, 20_000, next(rngs), state_mats=bad),
        )
    header = ["check", "description", "observed", "bound", "passed"]
    fields = ("check_id", "description", "observed", "bound", "passed")
    return header, [[[getattr(res, f) for res in results] for f in fields]]


def cmd_schedule(cfg: dict) -> tuple:
    eps_prime, n_values, c_prime, alpha_eps, alpha_eps_p, error_exponent, r0, pert = _read(
        cfg, "", eps_prime=(_within(_float, "(0, inf)"), REQUIRED),
        n_values=(_within(_counts, "[1, inf)"), [1000]), c_prime=(_float, 0.05),
        alpha_eps=(_float, 0.05), alpha_eps_p=(_float, 0.05), error_exponent=(_float, 0.5),
        r0=(_within(_float, "(0, inf)"), 1.0), perturbation=(_perturbation, None),
    )
    if not math.isfinite(2.0 * eps_prime * max(n_values)):
        raise ConfigError("eps_prime and n_values put log_k = 2 eps_prime n past the float range")
    if not math.isfinite(2.0 * eps_prime * math.log2(math.e) / r0):
        raise ConfigError("eps_prime and r0 put stage2_per_use past the float range")
    overhead, stage2 = two_stage_overhead(eps_prime, r0)
    header = [
        "n", "eps_n", "log_k", "log_m", "distance_exponent_ok",
        "residual_tail_ok", "truncation_tail_ok", "decoding_exponent_ok",
        "growth_ok", "drift_ok", "min_feasible_n", "overhead_factor",
        "stage2_per_use",
    ]
    sp = schedule_params(
        eps_prime, np.asarray(n_values), c_prime, alpha_eps, alpha_eps_p, error_exponent, pert
    )
    return header, [[
        sp.n, sp.eps_n, sp.log_k, sp.log_m, sp.distance_exponent_ok,
        sp.residual_tail_ok, sp.truncation_tail_ok, sp.decoding_exponent_ok,
        sp.growth_ok, "" if sp.drift_ok is None else sp.drift_ok,
        "" if sp.min_feasible_n is None else sp.min_feasible_n,
        overhead, stage2,
    ]]


# ---------------------------------------------------------------------------
# argument plumbing


def _env(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name, fallback)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError (exit 1), not through
    argparse's exit 2, the code of a red verify battery."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the life of
    the process: ``parse_args`` leaves it as it was."""
    parser = _Parser(
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
        sp.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect")
        sp.add_argument("--convention", choices=["full", "half"], default=None)
        sp.set_defaults(needs_seed=needs_seed)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config) if args.config else {}
        source = "--seed" if args.seed is not None else f"{ENV_PREFIX}SEED"
        seed = args.seed if args.seed is not None else _env("SEED")
        if seed is not None and not str(seed).isdecimal():
            raise ConfigError(f"{source} must be a whole number of at least 0, not {seed!r}")
        seed = int(seed) if seed is not None else None
        if args.needs_seed and seed is None:
            raise ConfigError(
                f"command {args.command!r} runs Monte Carlo and needs --seed "
                f"(or {ENV_PREFIX}SEED)"
            )
        convention = args.convention or _env("CONVENTION", "full")
        if convention not in ("full", "half"):
            raise ConfigError("convention must be 'full' or 'half'")
        # the half convention is a unit (one real dimension per complex
        # symbol): it halves every rate column, exactly in floating point
        scale = 0.5 if convention == "half" else 1.0
        out_path = args.out if args.out is not None else _env("OUT")

        with _one_blas_thread():
            if args.command == "rate":
                header, blocks = cmd_rate(cfg, scale)
            elif args.command == "region":
                header, blocks = cmd_region(cfg, scale)
            elif args.command == "simulate":
                header, blocks = cmd_simulate(cfg, seed)
            elif args.command == "verify":
                header, blocks = cmd_verify(cfg, seed)
            else:
                header, blocks = cmd_schedule(cfg)
    except ToyScaleError as exc:
        print(f"refusing oversized run: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # anything else is a bug, not a bad input: one line, no traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL

    metadata = {
        "command": args.command,
        "config_hash": _config_hash(cfg),
        "seed": "" if seed is None else seed,
        "version": __version__,
        "convention": convention,
    }
    if out_path:
        try:
            with open(out_path, "w") as fh:
                write_table(fh, metadata, header, blocks)
        except OSError as exc:
            print(f"config error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        write_table(sys.stdout, metadata, header, blocks)
    if args.command == "verify":
        (block,) = blocks
        failed = [passed for passed in block[header.index("passed")] if not passed]
        if failed:
            print(f"{len(failed)} verification check(s) failed", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
