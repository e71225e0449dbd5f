"""Sweep the mutually-exclusive case and tabulate both closed forms.

For every (n, m, k) with 1 <= k <= min(n, m) <= max_count, prints the
exact conditional k/n, the complexity-framework conditional (m/s)(k/n),
their gap, and the enumerated exact conditional from the world model as a
cross-check. The gap closes only when k = n, i.e. when the antecedent's
properties are all shared.

Usage: python scripts/exclusive_sweep.py [max_count]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from intension.closed_forms import (
    ExclusiveCaseParams,
    exclusive_algorithmic,
    exclusive_shannon,
    framework_discrepancy,
)
from intension.model import build_exclusive_world
from intension.shannon import shannon_inheritance


def main():
    max_count = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    print(f"{'n':>3} {'m':>3} {'k':>3} {'exact k/n':>10} {'(m/s)(k/n)':>11} {'gap':>8} {'enumerated':>11}")
    worst = 0.0
    for n in range(1, max_count + 1):
        for m in range(1, max_count + 1):
            for k in range(1, min(n, m) + 1):
                params = ExclusiveCaseParams(n, m, k)
                shannon = exclusive_shannon(params)
                _, algorithmic = exclusive_algorithmic(params)
                gap = framework_discrepancy(params)
                world, f, w = build_exclusive_world(n, m, k)
                enumerated = shannon_inheritance(f, w, world).exact_conditional
                worst = max(worst, abs(enumerated - shannon))
                print(
                    f"{n:>3} {m:>3} {k:>3} {shannon:>10.6f} {algorithmic:>11.6f}"
                    f" {gap:>8.4f} {enumerated:>11.6f}"
                )
    print(f"\nworst |enumerated - closed form| = {worst:.3e}")


if __name__ == "__main__":
    main()
