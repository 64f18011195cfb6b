"""Run the stock ``verify`` battery over a range of seeds and print how often
each row goes red and how long it takes.

    PYTHONPATH=src python scripts/verify_sweep.py --budget standard --first 1 --last 100

Each seed runs exactly what ``avwiretap verify --seed SEED`` runs, in this
process, with every loaded OpenBLAS on one thread as the command runs it.
The output is one line per row: check id, red count, seeds run, red rate,
the row's median wall seconds per seed, then the seeds on which the row
went red.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import statistics
from collections import defaultdict
from time import perf_counter

from avwiretap import checks
from avwiretap.cli import _one_blas_thread, cmd_verify


@contextlib.contextmanager
def timed_rows(seconds: dict):
    """Append each check's wall seconds to ``seconds[check_id]`` while the
    block runs, by wrapping every function of ``checks`` that returns one
    row (a ``CheckResult``)."""
    originals = {
        name: fn for name, fn in vars(checks).items()
        if inspect.isfunction(fn) and fn.__module__ == checks.__name__
        and inspect.signature(fn).return_annotation == "CheckResult"
    }

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            res = fn(*args, **kwargs)
            seconds[res.check_id].append(perf_counter() - t0)
            return res
        return wrapper

    try:
        for name, fn in originals.items():
            setattr(checks, name, timed(fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(checks, name, fn)


def sweep(budget: str, seeds) -> tuple[list, dict, dict]:
    """Check ids in battery order, the seeds on which each went red, and
    each row's wall seconds per seed."""
    order, red, seconds = [], defaultdict(list), defaultdict(list)
    with _one_blas_thread(), timed_rows(seconds):
        for seed in seeds:
            header, (block,) = cmd_verify({"budget": budget}, seed)
            for check_id, passed in zip(block[0], block[header.index("passed")]):
                if check_id not in order:
                    order.append(check_id)
                if not passed:
                    red[check_id].append(seed)
    return order, red, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="red rate and wall time of each verify row over seeds")
    parser.add_argument("--budget", choices=["light", "standard"], default="standard")
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--last", type=int, default=100)
    args = parser.parse_args(argv)
    seeds = range(args.first, args.last + 1)
    order, red, seconds = sweep(args.budget, seeds)
    print(f"# verify {args.budget}, seeds {args.first}-{args.last}; median_s is wall seconds per seed")
    for check_id in order:
        hits = red[check_id]
        median = statistics.median(seconds[check_id])
        print(f"{check_id:28s} {len(hits):4d}/{len(seeds)}  {len(hits) / len(seeds):.3f}  "
              f"median_s {median:.4f}  {' '.join(map(str, hits))}".rstrip())
    any_red = sorted({s for hits in red.values() for s in hits})
    print(f"{'(any row)':28s} {len(any_red):4d}/{len(seeds)}  {len(any_red) / len(seeds):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
