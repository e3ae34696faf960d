"""Regenerate ``tests/golden_digests.json`` from the current tree.

Runs the acceptance grid and the short runs of ``tests/golden.py`` twice: in
this process, and in a child process on numpy's AVX2 and OpenBLAS's Haswell
kernels (``golden.EMULATED``).  Each run gives one pair of maps, a record
digest and a theta digest per run, under the platform that made it; the file
holds both pairs, with the numpy, scipy and BLAS versions that made them.
Before it writes, it prints the runs whose digests differ from the committed
file's, per platform and map.  A change that moves bits on purpose reruns
this, lists those runs in CHANGES.md and commits the new file:

    python3 tools/golden_digests.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests import golden  # noqa: E402
from tests.test_acceptance import run_grid  # noqa: E402


def print_moved(committed: dict, pairs: list[dict]) -> None:
    """Name the runs of each pair whose digests differ from the committed
    pair of its platform."""
    for made in pairs:
        before = golden.pair(committed, made["platform"])
        for key in golden.MAPS:
            if before is None:
                print(f"{made['platform']} {key}: not in the committed file")
                continue
            moved = sorted(name for name in made[key].keys() | before[key].keys()
                           if made[key].get(name) != before[key].get(name))
            print(f"{made['platform']} {key}: moved: {', '.join(moved) or 'none'}")
    for before in committed["platforms"]:
        if all(made["platform"] != before["platform"] for made in pairs):
            print(f"{before['platform']}: not made here, dropped")


if __name__ == "__main__":  # run_all's forkserver workers import this module
    pairs = [golden.made_here(run_grid())]
    emulated = golden.made_in_child("made_here(run_grid())", golden.EMULATED)
    if emulated["platform"] != pairs[0]["platform"]:
        pairs.append(emulated)
    print_moved(golden.load(), pairs)
    golden.write(pairs)
    print(f"wrote {golden.GOLDEN_PATH}")
