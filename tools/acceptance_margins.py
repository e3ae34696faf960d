"""Print each frozen acceptance line on held-out seeds, to show how far it sits from its bound.

Runs ``tests/test_acceptance.py``'s grid on seeds 5-9, 10-14, 15-19 and 20-24 and prints
its ``frozen_lines`` as a markdown table: per group, each line as the tests print it (the
statistic over the reference, against the factor), in bold where it fails.  Tier-1's
seeds 0-4 stay frozen; this gates nothing and must not be used to pick seeds.  A change
that moves a golden digest pastes the table before and after into CHANGES.md:

    python3 tools/acceptance_margins.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests.test_acceptance import frozen_lines, run_grid  # noqa: E402

GROUPS = [range(first, first + 5) for first in (5, 10, 15, 20)]


def main() -> None:
    start = time.perf_counter()
    per_group = [frozen_lines(run_grid(seeds)) for seeds in GROUPS]
    print("| frozen line | " + " | ".join(f"seeds {g[0]}–{g[-1]}" for g in GROUPS) + " |")
    print("|---|" + "---|" * len(GROUPS))
    for label in per_group[0]:
        cells = [str(line) if line.holds() else f"**{line}**"
                 for line in (group[label] for group in per_group)]
        escaped = label.replace("|", "\\|")
        print(f"| {escaped} | " + " | ".join(cells) + " |")
    print(f"\n{len(GROUPS)} groups of 5 seeds in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":  # run_all's forkserver workers import this module
    main()
