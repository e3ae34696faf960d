"""Print how far each frozen acceptance line sits from its bound on held-out seeds.

``tests/test_acceptance.py`` reads its lines on seeds 0-4, which stay frozen.
This runs the same grid (its ``run_grid``, built from ``suite_config``,
``noise_frac_plan`` and ``run_all``) on the seed groups 5-9, 10-14, 15-19
and 20-24, and prints each line's statistic per group next to its bound, as
a markdown table; a value past its bound is in bold.  It takes no options,
reports and gates nothing, and must not be used to pick seeds.  A change
that moves a golden digest pastes the table before and after into
CHANGES.md, so that a red line can be told from a re-roll:

    python3 tools/acceptance_margins.py
"""

import operator
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from tests.test_acceptance import CHANCE, final_acc, run_grid  # noqa: E402

GROUPS = [range(first, first + 5) for first in (5, 10, 15, 20)]
_OPS = {"≤": operator.le, "<": operator.lt, "≥": operator.ge, ">": operator.gt}


def lines(grid) -> list[tuple[str, str, float, float]]:
    """(frozen line, comparison, bound, statistic) for every line the
    acceptance tests read from the grid, the most fragile first."""
    acc = {key: final_acc(suite) for key, suite in grid.items()}
    base = acc[("dos", "no_attack")]
    weights = np.mean([np.array([r.weights for r in recs[10:]]).mean(axis=0)
                       for recs in grid[("dos", "noise_40")]], axis=0)
    return [
        ("noise 40%: FedAvg collapses", "≤", CHANCE + 0.10, acc[("fedavg", "noise_40")]),
        ("crafted 40%: \\|Krum − chance\\|", "≤", 0.10, abs(acc[("krum", "crafted_40")] - CHANCE)),
        ("noise+scaled: trimmed mean / base", "<", 0.8,
         acc[("trimmed_mean", "noise_scaled_40")] / base),
        ("noise+scaled: FedAvg / base", "<", 0.8, acc[("fedavg", "noise_scaled_40")] / base),
        ("crafted 40%: DOS − Krum", "≥", 0.10,
         acc[("dos", "crafted_40")] - acc[("krum", "crafted_40")]),
        ("noise fraction 0.5: DOS / base", "≥", 0.9, acc[("dos", "noise_frac_0.5")] / base),
        ("noise fraction 0.6: DOS / base", "<", 0.75, acc[("dos", "noise_frac_0.6")] / base),
        ("noise 40%: DOS / base", "≥", 0.9, acc[("dos", "noise_40")] / base),
        ("noise+scaled: DOS / base", "≥", 0.9, acc[("dos", "noise_scaled_40")] / base),
        *[(f"noise fraction {frac}: DOS / base", "≥", 0.9,
           acc[("dos", f"noise_frac_{frac}")] / base) for frac in (0.1, 0.2, 0.3)],
        ("no attack: \\|DOS − FedAvg\\|", "≤", 0.03, abs(base - acc[("fedavg", "no_attack")])),
        ("noise 40%: max malicious mean weight", "<", 0.02, weights[6:].max()),
        ("noise 40%: min honest − max malicious weight", ">", 0.0,
         weights[:6].min() - weights[6:].max()),
    ]


def main() -> None:
    start = time.perf_counter()
    per_group = [lines(run_grid(seeds)) for seeds in GROUPS]
    print("| frozen line | bound | " + " | ".join(f"seeds {g[0]}–{g[-1]}" for g in GROUPS) + " |")
    print("|---|---|" + "---|" * len(GROUPS))
    for row in zip(*per_group):
        label, op, bound, _ = row[0]
        cells = [f"{stat:.3f}" if _OPS[op](stat, bound) else f"**{stat:.3f}**"
                 for *_, stat in row]
        print(f"| {label} | {op} {bound:g} | " + " | ".join(cells) + " |")
    print(f"\n{len(GROUPS)} groups of 5 seeds in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":  # run_all's forkserver workers import this module
    main()
