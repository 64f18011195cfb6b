"""Run the stock ``verify`` battery over a range of seeds and print how often
each row goes red.

    PYTHONPATH=src python scripts/verify_sweep.py --budget standard --first 1 --last 100

Each seed runs exactly what ``avwiretap verify --seed SEED`` runs, in this
process.  The output is one line per row: check id, red count, seeds run and
red rate, then the seeds on which the row went red.
"""

from __future__ import annotations

import argparse
from collections import defaultdict

from avwiretap.cli import cmd_verify


def sweep(budget: str, seeds) -> tuple[list, dict]:
    """Check ids in battery order, and the seeds on which each went red."""
    order, red = [], defaultdict(list)
    for seed in seeds:
        table = cmd_verify({"budget": budget}, seed)
        for check_id, *_, passed in table.rows:
            if check_id not in order:
                order.append(check_id)
            if not passed:
                red[check_id].append(seed)
    return order, red


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="red rate of each verify row over seeds")
    parser.add_argument("--budget", choices=["light", "standard"], default="standard")
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--last", type=int, default=100)
    args = parser.parse_args(argv)
    seeds = range(args.first, args.last + 1)
    order, red = sweep(args.budget, seeds)
    print(f"# verify {args.budget}, seeds {args.first}-{args.last}")
    for check_id in order:
        hits = red[check_id]
        print(f"{check_id:28s} {len(hits):4d}/{len(seeds)}  {len(hits) / len(seeds):.3f}  "
              f"{' '.join(map(str, hits))}".rstrip())
    any_red = sorted({s for hits in red.values() for s in hits})
    print(f"{'(any row)':28s} {len(any_red):4d}/{len(seeds)}  {len(any_red) / len(seeds):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
