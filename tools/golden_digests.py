"""Regenerate ``tests/golden_digests.json`` from the current tree.

Runs the acceptance grid and the short runs of ``tests/golden.py`` and writes
one digest per run, with the numpy, scipy and BLAS versions that made them.
A change that moves bits on purpose reruns this and commits the new file:

    python3 tools/golden_digests.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests import golden  # noqa: E402
from tests.test_acceptance import run_grid  # noqa: E402

if __name__ == "__main__":
    golden.write(run_grid())
    print(f"wrote {golden.GOLDEN_PATH}")
