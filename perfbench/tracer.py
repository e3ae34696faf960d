"""Round clock and span tracer that wrap dosfl's public functions from outside.

Nothing here edits the package: a wrapper replaces a function object in
every ``dosfl`` module namespace that holds it, so callers that look the name
up at call time (``run_experiment`` calling ``local_train``, ``local_train``
calling ``loss_and_grad``, ...) go through the wrapper.  ``uninstall``
restores the original objects.

``RoundClock`` records one ``perf_counter`` stamp per round boundary and
nothing else; it is what the untraced measurement uses.  ``Tracer`` records a
span (name, start, end, parent) around each wrapped call and is only
installed in the traced run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import dosfl.aggregators
import dosfl.attacks
import dosfl.copod
import dosfl.harness
import dosfl.models
import dosfl.params

# (owner module, function, span name).  ``run_rule`` is named per call after
# the rule it dispatches, as ``aggregators.<kind>``.
WRAPPED = (
    (dosfl.harness, "prepare_shards", "data.prepare"),
    (dosfl.harness, "local_train", "harness.local_train"),
    (dosfl.models, "loss_and_grad", "models.loss_and_grad"),
    (dosfl.harness, "evaluate", "harness.evaluate"),
    (dosfl.attacks, "apply_attack_plan", "attacks.apply_plan"),
    (dosfl.attacks, "local_krum_oracle", "attacks.krum_oracle"),
    (dosfl.aggregators, "run_rule", None),
    (dosfl.params, "pairwise_distances", "params.pairwise_distances"),
    (dosfl.copod, "copod_scores", "copod.copod_scores"),
    (dosfl.params, "stack_updates", "params.stack_updates"),
    (dosfl.params, "softmax_weights", "params.softmax_weights"),
    (dosfl.params, "weighted_average", "params.weighted_average"),
)

ORACLE = "attacks.krum_oracle"


class _Patches:
    """Replace function objects across the dosfl namespaces; undo on demand."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dosfl" or name.startswith("dosfl.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def set(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)


class RoundClock:
    """One timestamp when the initial model exists and one per finished round.

    ``run_experiment`` builds a ``RoundRecord`` as the last step of every
    round, so stamping that constructor marks the round boundaries.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self._patches = _Patches()

    def install(self) -> None:
        init_params = dosfl.harness.init_params
        round_record = dosfl.harness.RoundRecord
        stamps = self.stamps

        def stamped_init(*args, **kwargs):
            out = init_params(*args, **kwargs)
            stamps.append(time.perf_counter())
            return out

        def stamped_record(*args, **kwargs):
            stamps.append(time.perf_counter())
            return round_record(*args, **kwargs)

        self._patches.replace(init_params, stamped_init)
        # Only the harness builds records; the class stays a class elsewhere.
        self._patches.set(dosfl.harness, "RoundRecord", stamped_record)

    def uninstall(self) -> None:
        self._patches.restore()

    def take(self) -> list[float]:
        """Boundaries of the experiment just run: start of round 0, then each end."""
        out = list(self.stamps)
        self.stamps.clear()
        return out


@dataclass
class SpanStats:
    calls: int = 0
    ms: float = 0.0
    self_ms: float = 0.0


@dataclass
class LayerTotals:
    """Span totals summed over the traced experiments of one run."""

    rounds: int = 0
    unattributed_ms: float = 0.0
    oracle_accepted: int = 0
    spans: dict[str, SpanStats] = field(default_factory=dict)

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())


class Tracer:
    """Spans kept in memory for one experiment, folded into totals after it."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.oracle_accepted = 0
        self._stack: list[int] = []
        self._patches = _Patches()

    def install(self) -> None:
        for module, fn_name, span_name in WRAPPED:
            original = getattr(module, fn_name)
            self._patches.replace(original, self._wrap(original, span_name))

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, fn, span_name):
        spans, stack = self.spans, self._stack
        counts_acceptance = span_name == ORACLE

        def wrapper(*args, **kwargs):
            name = span_name or f"aggregators.{args[0].kind}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counts_acceptance and out == 0:  # the crafted point won the vote
                self.oracle_accepted += 1
            return out

        return wrapper

    def fold_into(self, totals: LayerTotals, bounds: list[float]) -> None:
        """Add this experiment's spans to ``totals`` and clear them.

        ``bounds`` are the RoundClock stamps.  Time inside the rounds that no
        top-level span covers is the harness's own (unattributed) time; data
        preparation runs before the first stamp and is not part of it.
        """
        spans = self.spans
        child_ms = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        first, last = bounds[0], bounds[-1]
        top_level_ms = 0.0
        for index, (name, start, end, parent) in enumerate(spans):
            ms = (end - start) * 1e3
            stats = totals.spans.setdefault(name, SpanStats())
            stats.calls += 1
            stats.ms += ms
            stats.self_ms += ms - child_ms[index]
            if parent < 0 and first <= start <= last:
                top_level_ms += ms
        totals.rounds += len(bounds) - 1
        totals.unattributed_ms += (last - first) * 1e3 - top_level_ms
        totals.oracle_accepted += self.oracle_accepted
        self.discard()

    def discard(self) -> None:
        """Drop the spans of an experiment that is not folded (it failed)."""
        self.spans.clear()
        self._stack.clear()
        self.oracle_accepted = 0


def round_latencies_ms(bounds: list[float]) -> list[float]:
    return [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]

