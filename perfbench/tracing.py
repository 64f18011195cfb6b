"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function of ``avwiretap``
with a timing wrapper in every module that binds it (modules import names
with ``from .x import y``, so one function can have several bindings), and
``Tracer.uninstall`` puts the originals back.  A span's self time is its
duration minus the time of the spans it caused.  ``layer_metrics`` turns
the totals into per-invocation metrics; a metric whose functions no longer
exist is reported as missing (``None``) rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("channel", "codebook", "leakage", "quantization", "rates", "checks", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Hooks run after a call returns: hook(counts, args, kwargs, result, seconds).
def _count_state(c, a, k, r, dt):
    c["channel.states"] += 1


def _count_drawn(c, a, k, r, dt):
    c["codebook.drawn"] += _arg(a, k, 1, "shape")[0]


def _count_kept(c, a, k, r, dt):
    c["codebook.kept"] += r.size


def _count_main_pairs(c, a, k, r, dt):
    c["codebook.decode_main_pairs"] += _arg(a, k, 2, "cb").size


def _count_mixture_pairs(c, a, k, r, dt):
    c["leakage.mixture_pairs"] += (
        _arg(a, k, 0, "z_flat").shape[0] * _arg(a, k, 1, "centers_flat").shape[0]
    )


def _count_mi_pairs(c, a, k, r, dt):
    c["leakage.mixture_pairs"] += _arg(a, k, 2, "samples") * _arg(a, k, 0, "cb").size


def _count_saturated(c, a, k, r, dt):
    c["leakage.saturated"] += bool(r.saturated)


def _count_tail_draws(c, a, k, r, dt):
    c["leakage.tail_draws"] += _arg(a, k, 4, "trials") * len(r.n_values)


def _count_applicable(c, a, k, r, dt):
    c["quantization.applicable"] += bool(r.applicable)


def _time_check(c, a, k, r, dt):
    c[f"checks.{r.check_id}.wall_s"] += dt


# (span, defining module, function or Class.classmethod, hook)
TARGETS = (
    ("channel.trace", "channel", "EveTrace.random", None),
    ("channel.trace", "channel", "random_eve_state", None),
    ("channel.trace", "channel", "canonicalize_eve", _count_state),
    ("channel.draw", "channel", "complex_normal", None),
    ("channel.observe", "channel", "eve_observe", None),
    ("channel.observe", "channel", "main_observe", None),
    ("channel.observe", "channel", "transmit", None),
    ("codebook.sample", "codebook", "sample_codebook", _count_kept),
    ("codebook.decode_main", "codebook", "ml_decode_main", _count_main_pairs),
    ("codebook.decode_eve", "codebook", "eve_bin_decode", None),
    ("codebook.trial_loop", "codebook", "estimate_decode_error", None),
    ("leakage.mixture", "leakage", "mixture_logpdf", _count_mixture_pairs),
    ("leakage.mi", "leakage", "estimate_leakage_mi", _count_mi_pairs),
    ("leakage.distance", "leakage", "estimate_variational_distance", _count_saturated),
    ("leakage.tail", "leakage", "info_density_tail", _count_tail_draws),
    ("leakage.symmetry", "leakage", "eve_error_symmetry_check", None),
    ("quantization.quantize", "quantization", "quantize_eve", None),
    ("quantization.perturbation", "quantization", "check_loglik_perturbation", _count_applicable),
    ("quantization.schedule", "quantization", "schedule_params", None),
    ("rates.rate", "rates", "secrecy_rate", None),
    ("rates.rate", "rates", "main_mutual_info", None),
    ("rates.rate", "rates", "leakage_cap", None),
    ("rates.rate", "rates", "converse_rate_bound", None),
    ("rates.region", "rates", "mac_region", None),
    ("rates.region", "rates", "bc_region", None),
    ("checks.run", "checks", "default_verification_suite", None),
    ("cli.main", "cli", "main", None),
)

# The stock verify battery: check id -> the function in `checks` that runs it.
CHECK_FUNCTIONS = {
    "noise-whiteness": "noise_whiteness_check",
    "output-invariance": "output_invariance_check",
    "quantization-error": "quantization_error_check",
    "loglik-perturbation-m100": "perturbation_scan",
    "received-energy": "second_moment_check",
    "truncation-surrogate": "truncation_surrogate_check",
    "density-tail-trend": "tail_trend_check",
    "decoder-symmetry": "symmetry_check",
    "grid-shrinkage-trend": "shrinkage_trend_check",
    "resolvability": "resolvability_check",
}
TARGETS += tuple(("checks.run", "checks", fn, _time_check) for fn in CHECK_FUNCTIONS.values())

# Bindings that count something extra: codebook's own `complex_normal` is
# only used by the rejection sampler, so its draws are the candidates.
BINDING_HOOKS = {("codebook", "complex_normal"): _count_drawn}


class Tracer:
    """Span and counter totals over the traced invocations of one run."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.wall_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        # spans, and "module.function" names, of traced functions not found
        self.missing = set()
        self.invocations = 0
        # per-invocation values the run measures outside the spans
        self.run_values = {"checks.failed_rows": 0.0, "cli.rows": 0.0, "invocation_s": 0.0,
                           "trace_overhead": 0.0}
        self._stack = []
        self._patches = []

    def _wrap(self, span, fn, hooks):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.self_s[span] += dt - child
                self.wall_s[span] += dt
                self.calls[span] += 1
            for hook in hooks:
                hook(self.counts, args, kwargs, result, dt)
            return result

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"avwiretap.{name}") for name in MODULES}
        modules["avwiretap"] = importlib.import_module("avwiretap")
        for span, home, qualname, hook in TARGETS:
            hooks = (hook,) if hook else ()
            owner_name, _, attr = qualname.rpartition(".")
            owner = modules[home]
            if owner_name:
                owner = vars(owner).get(owner_name)
            orig = vars(owner).get(attr) if owner is not None else None
            if owner_name and isinstance(orig, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(span, orig.__func__, hooks)))
            elif not owner_name and callable(orig):
                shared = self._wrap(span, orig, hooks)
                for mod_name, mod in modules.items():
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            extra = BINDING_HOOKS.get((mod_name, name))
                            wrapper = shared if extra is None else self._wrap(span, orig, (*hooks, extra))
                            self._patch(mod, name, wrapper)
            else:
                self.missing.update((span, f"{home}.{qualname}"))
        patched = {(mod.__name__.rpartition(".")[2], name) for mod, name, _ in self._patches}
        self.missing.update(".".join(key) for key in BINDING_HOOKS if key not in patched)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, better, spans or functions it needs, value(tracer, 1 / invocations))
def _spec():
    def self_time(span):
        return lambda t, per: t.self_s[span] * per

    def calls(span):
        return lambda t, per: t.calls[span] * per

    def count(key):
        return lambda t, per: t.counts[key] * per

    def run_value(key):
        return lambda t, per: t.run_values[key]

    def mixture_rate(t, per):
        return _ratio(t.counts["leakage.mixture_pairs"],
                      t.self_s["leakage.mixture"] + t.self_s["leakage.mi"])

    def attributed(t, per):
        below_cli = sum(v for span, v in t.self_s.items() if span != "cli.main")
        return _ratio(below_cli, t.wall_s["cli.main"])

    spec = {
        "channel.trace_s": ("s", "lower", ("channel.trace",), self_time("channel.trace")),
        "channel.states": ("count", "lower", ("channel.trace",), count("channel.states")),
        "channel.draw_s": ("s", "lower", ("channel.draw",), self_time("channel.draw")),
        "channel.draw_calls": ("count", "lower", ("channel.draw",), calls("channel.draw")),
        "channel.observe_s": ("s", "lower", ("channel.observe",), self_time("channel.observe")),
        "codebook.sample_s": ("s", "lower", ("codebook.sample",), self_time("codebook.sample")),
        "codebook.accept_ratio": (
            "ratio", "higher", ("codebook.sample", "codebook.complex_normal"),
            lambda t, per: _ratio(t.counts["codebook.kept"], t.counts["codebook.drawn"]),
        ),
        "codebook.decode_main_s": ("s", "lower", ("codebook.decode_main",), self_time("codebook.decode_main")),
        "codebook.decode_main_calls": ("count", "lower", ("codebook.decode_main",), calls("codebook.decode_main")),
        "codebook.decode_main_pairs": ("count", "lower", ("codebook.decode_main",), count("codebook.decode_main_pairs")),
        "codebook.decode_eve_s": ("s", "lower", ("codebook.decode_eve",), self_time("codebook.decode_eve")),
        "codebook.decode_eve_calls": ("count", "lower", ("codebook.decode_eve",), calls("codebook.decode_eve")),
        "codebook.trial_loop_s": ("s", "lower", ("codebook.trial_loop",), self_time("codebook.trial_loop")),
        "leakage.mixture_s": ("s", "lower", ("leakage.mixture",), self_time("leakage.mixture")),
        "leakage.mi_s": ("s", "lower", ("leakage.mi",), self_time("leakage.mi")),
        "leakage.distance_s": ("s", "lower", ("leakage.distance",), self_time("leakage.distance")),
        "leakage.mixture_pairs": ("count", "lower", ("leakage.mixture", "leakage.mi"), count("leakage.mixture_pairs")),
        "leakage.mixture_pairs_per_s": ("pairs/s", "higher", ("leakage.mixture", "leakage.mi"), mixture_rate),
        "leakage.saturated": ("count", "lower", ("leakage.distance",), count("leakage.saturated")),
        "leakage.tail_s": ("s", "lower", ("leakage.tail",), self_time("leakage.tail")),
        "leakage.tail_draws": ("count", "lower", ("leakage.tail",), count("leakage.tail_draws")),
        # wall, not self: the symmetry test's work is all in the decoders it calls
        "leakage.symmetry_s": ("s", "lower", ("leakage.symmetry",),
                               lambda t, per: t.wall_s["leakage.symmetry"] * per),
        "quantization.quantize_s": ("s", "lower", ("quantization.quantize",), self_time("quantization.quantize")),
        "quantization.quantize_calls": ("count", "lower", ("quantization.quantize",), calls("quantization.quantize")),
        "quantization.perturbation_s": ("s", "lower", ("quantization.perturbation",), self_time("quantization.perturbation")),
        "quantization.perturbation_applicable_ratio": (
            "ratio", "higher", ("quantization.perturbation",),
            lambda t, per: _ratio(t.counts["quantization.applicable"], t.calls["quantization.perturbation"]),
        ),
        "quantization.schedule_s": ("s", "lower", ("quantization.schedule",), self_time("quantization.schedule")),
        "rates.rate_s": ("s", "lower", ("rates.rate",), self_time("rates.rate")),
        "rates.region_s": ("s", "lower", ("rates.region",), self_time("rates.region")),
        "rates.calls": ("count", "lower", ("rates.rate", "rates.region"),
                        lambda t, per: (t.calls["rates.rate"] + t.calls["rates.region"]) * per),
        "checks.self_s": ("s", "lower", ("checks.run",), self_time("checks.run")),
    }
    for check_id, fn in CHECK_FUNCTIONS.items():
        spec[f"checks.{check_id}.wall_s"] = ("s", "lower", (f"checks.{fn}",), count(f"checks.{check_id}.wall_s"))
    spec.update({
        "checks.failed_rows": ("count", "lower", (), run_value("checks.failed_rows")),
        "cli.self_s": ("s", "lower", ("cli.main",), self_time("cli.main")),
        "cli.rows": ("count", "higher", (), run_value("cli.rows")),
        "trace.attributed_share": ("ratio", "higher", ("cli.main",), attributed),
        "invocation_s": ("s", "lower", (), run_value("invocation_s")),
        "trace_overhead": ("ratio", "lower", (), run_value("trace_overhead")),
    })
    return spec


LAYER_METRICS = _spec()


def layer_metrics(tracer: Tracer) -> dict:
    """Per-invocation means of the traced totals; ``None`` marks a metric
    whose functions were not found."""
    per = 1.0 / max(tracer.invocations, 1)
    out = {}
    for name, (unit, _, spans, value) in LAYER_METRICS.items():
        missing = any(span in tracer.missing for span in spans)
        out[name] = (None if missing else float(value(tracer, per)), unit)
    return out
