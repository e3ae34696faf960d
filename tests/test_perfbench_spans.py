"""The benchmark's traced run must see every span it expects.

``perfbench`` reports a wrapped function that stopped being called only as
an absent span, which does not fail its correctness gate.  This test runs one
round of every kind of every workload under the benchmark's ``Tracer`` and
fails on the first expected span that did not fire.  It only reads
``perfbench``.
"""

import itertools
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from dosfl.harness import run_experiment  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_expected_span_fires(name):
    workload = WORKLOADS[name]
    tracer = Tracer()
    tracer.install()
    try:
        for _, setup in itertools.islice(workload.schedule(1), len(workload.kinds)):
            run_experiment(replace(setup, train=replace(setup.train, rounds=1)))
        fired = {span[0] for span in tracer.spans}
    finally:
        tracer.uninstall()
    assert sorted(workload.expected_spans() - fired) == []
