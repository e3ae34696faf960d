"""The run description: ``ExperimentConfig``, its config files and presets.

An ``ExperimentConfig`` is the one frozen description of a run, and it is
what ``harness.run_experiment`` and ``harness.prepare_shards`` take.  It is
validated when it is constructed, and it derives its attack plan then, once,
from ``attack`` and ``custom_plan``; so ``dataclasses.replace`` on one
validates the result and derives its plan again.  ``parse_config_text``
builds each one once, an absent key keeping its dataclass default, and
``flat_dict`` reads the keys back off it.

The config language is line oriented: ``section.key = value`` with ``#``
comments.  Attack scenarios are bundled data fragments in the same kind-spec
grammar used for custom per-client plans, expanded against the client count.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import cache, reduce
from typing import get_args, get_type_hints

from .aggregators import AggregatorSpec, krum_neighbors, trim_count
from .attacks import ATTACK_KINDS, AttackKind, AttackPlan
from .errors import ConfigError
from .models import ModelSpec

# Per-scenario groups of (kind spec, fraction of clients), matching the
# benchmark catalog: the suffix is the malicious percentage at n = 10.
# Clients are assigned from the highest id downward, group by group.
SCENARIOS: dict[str, tuple[tuple[str, float], ...]] = {
    "no_attack": (),
    # one client trains with class 0 relabeled as 1
    "label_flip_10": (("label_flip(source=0,target=1,fraction=1.0)", 0.1),),
    # two noise senders plus two label-flipping clients
    "mix_40": (("noise(sigma=1.0)", 0.2),
               ("label_flip(source=0,target=1,fraction=1.0)", 0.2)),
    # four clients transmit pure Gaussian noise
    "noise_40": (("noise(sigma=1.0)", 0.4),),
    # three louder noise senders plus one directionally-opposite scaler;
    # sigma 3 puts the surviving order statistics past what a 0.2 trim absorbs
    "noise_scaled_40": (("noise(sigma=3.0)", 0.3),
                        ("scale(factor=-0.5)", 0.1)),
    # four colluders running the directed-deviation attack; deep halving lets
    # the search bottom out when no candidate wins the local vote
    "crafted_40": (("crafted(lambda_init=10,halving_steps=20)", 0.4),),
    # three noise senders
    "noise_30": (("noise(sigma=1.0)", 0.3),),
    # benchmark mix on the non-iid side: two noise, one 100x, one -0.5x
    "mix_ham_40": (("noise(sigma=1.0)", 0.2),
                   ("scale(factor=100)", 0.1),
                   ("scale(factor=-0.5)", 0.1)),
}

_KIND_RE = re.compile(r"^([a-z_]+)\s*(?:\((.*)\))?$")
# Field annotations of a dataclass, evaluated once per class.
_field_types = cache(get_type_hints)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def parse_attack_kind(text: str) -> AttackKind | None:
    """Parse a kind spec like ``noise(sigma=1.0)`` or ``none``."""
    m = _KIND_RE.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse attack kind {text!r}")
    name, argstr = m.group(1), m.group(2) or ""
    parts = [p.strip() for p in argstr.split(",") if p.strip()]
    if name == "none":
        if parts:
            raise ConfigError("'none' takes no arguments")
        return None
    if name not in ATTACK_KINDS:
        raise ConfigError(f"unknown attack kind {name!r}; valid: none, {', '.join(ATTACK_KINDS)}")
    # argument types and defaults come from the kind dataclass
    arg_types = _field_types(ATTACK_KINDS[name])
    kwargs: dict[str, object] = {}
    for part in parts:
        if "=" not in part:
            raise ConfigError(f"attack argument {part!r} is not key=value in {text!r}")
        key, val = (s.strip() for s in part.split("=", 1))
        if key not in arg_types:
            raise ConfigError(f"unknown attack argument {key!r} in {text!r}")
        convert, needs = _PARSERS[arg_types[key]]
        try:
            kwargs[key] = convert(val)
        except ValueError:
            raise ConfigError(f"attack argument {part!r} needs {needs} in {text!r}") from None
    try:
        return ATTACK_KINDS[name](**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad arguments in {text!r}: {exc}") from exc


def expand_groups(groups, n: int) -> dict[int, object]:
    """Assign round(fraction * n) clients to each (kind, fraction) group in
    turn, from the highest client id downward; a kind may be a parsed
    :data:`AttackKind` or its spec text, and is handed out as given."""
    assignments: dict[int, object] = {}
    next_id = n - 1
    for kind, fraction in groups:
        if not 0.0 <= fraction < 1.0:
            raise ConfigError(f"malicious fraction must be in [0, 1), got {fraction}")
        for _ in range(int(fraction * n + 0.5)):
            if next_id < 0:
                raise ConfigError(f"attack groups need more clients than n={n}")
            assignments[next_id] = kind
            next_id -= 1
    return assignments


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    local_steps: int = 1  # epochs over the client's shard per round
    batch_size: int = 12
    rounds: int = 100

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.local_steps < 1 or self.batch_size < 1 or self.rounds < 0:
            raise ConfigError("need local_steps >= 1, batch_size >= 1, rounds >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full declarative description of one run (defaults match the desk-scale
    benchmark: 10 clients, 4-class synthetic data, logistic model, 100 rounds).

    Construction raises ``ConfigError`` for a config that describes no valid
    run, and derives ``plan``, the attack plan that ``attack`` and
    ``custom_plan`` describe.
    """

    seed: int = 0
    clients: int = 10
    model: ModelSpec = ModelSpec()
    samples_per_class: int = 200
    test_per_class: int = 50
    class_separation: float = 6.0
    partition: str = "iid"  # "iid" or "label_skew"
    skew_alpha: float = 0.5
    train: TrainConfig = TrainConfig()
    aggregator: AggregatorSpec = AggregatorSpec()
    attack: str = "no_attack"
    custom_plan: tuple[tuple[int, str], ...] = ()
    output_dir: str = "out"
    plan: AttackPlan = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.attack == "custom":
            kinds = {cid: kind for cid, spec_text in self.custom_plan
                     if (kind := parse_attack_kind(spec_text)) is not None}
        elif self.custom_plan:
            raise ConfigError("attack.client.* entries require attack = custom")
        elif self.attack in SCENARIOS:
            # each group's spec is parsed once, however many clients it covers
            kinds = expand_groups([(parse_attack_kind(spec), frac)
                                   for spec, frac in SCENARIOS[self.attack]], self.clients)
        else:
            raise ConfigError(f"unknown attack scenario {self.attack!r}; valid: "
                              f"{', '.join(sorted(SCENARIOS))}, custom")
        plan = AttackPlan(assignments=kinds)
        object.__setattr__(self, "plan", plan)
        if self.clients < 2:
            raise ConfigError(f"need at least 2 clients, got {self.clients}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.partition not in ("iid", "label_skew"):
            raise ConfigError(f"unknown partition {self.partition!r}")
        if self.samples_per_class < 1 or self.test_per_class < 1:
            raise ConfigError("need samples_per_class >= 1 and test_per_class >= 1")
        samples = self.samples_per_class * self.model.class_count
        if self.clients > samples:
            raise ConfigError(f"cannot split {samples} samples across {self.clients} clients")
        if not math.isfinite(self.class_separation):
            raise ConfigError(f"class_separation must be finite, got {self.class_separation}")
        # whatever the partition, as trim_fraction is checked whatever the rule
        if not 0 < self.skew_alpha < math.inf:
            raise ConfigError(f"skew_alpha must be finite and > 0, got {self.skew_alpha}")
        bad = [i for i in plan.assignments if not 0 <= i < self.clients]
        if bad:
            raise ConfigError(f"attack plan names unknown clients: {bad}")
        for cid, flip in plan.label_flip_items():
            for cls in (flip.source, flip.target):
                if not 0 <= cls < self.model.class_count:
                    raise ConfigError(f"client {cid} flips class {cls}, outside the "
                                      f"label alphabet [0, {self.model.class_count})")
        if len(plan.assignments) >= self.clients:
            raise ConfigError("attack plan must leave at least one honest client")
        if self.aggregator.kind == "krum":
            krum_neighbors(self.clients, self.aggregator.resolve_krum_f(self.clients))
        if self.aggregator.kind == "trimmed_mean":
            trim_count(self.aggregator.trim_fraction, self.clients)

    def to_setup(self):  # perfbench/ still calls this: a config is its own run setup
        return self

    def flat_dict(self) -> dict[str, str]:
        """Effective configuration after defaults, as config-file keys; ``str``
        round-trips every float, so the text re-parses to the same run."""
        out = {key: str(reduce(getattr, path, self)) for key, path in KEYS.items()}
        out["aggregator.krum_f"] = str(self.aggregator.resolve_krum_f(self.clients))
        for cid, spec_text in self.custom_plan:
            out[f"attack.client.{cid}"] = spec_text
        return out


# Config-file key -> field path in ExperimentConfig.  Each key's type comes
# from the dataclass annotation and its default from the dataclass.
KEYS: dict[str, tuple[str, ...]] = {
    "seed": ("seed",),
    "clients": ("clients",),
    "model.kind": ("model", "kind"),
    "model.input_dim": ("model", "input_dim"),
    "model.hidden_dim": ("model", "hidden_dim"),
    "model.classes": ("model", "class_count"),
    "data.samples_per_class": ("samples_per_class",),
    "data.test_per_class": ("test_per_class",),
    "data.class_separation": ("class_separation",),
    "data.partition": ("partition",),
    "data.alpha": ("skew_alpha",),
    "train.learning_rate": ("train", "learning_rate"),
    "train.local_steps": ("train", "local_steps"),
    "train.batch_size": ("train", "batch_size"),
    "train.rounds": ("train", "rounds"),
    "aggregator": ("aggregator", "kind"),
    "aggregator.trim_fraction": ("aggregator", "trim_fraction"),
    "aggregator.krum_f": ("aggregator", "krum_f"),
    "attack": ("attack",),
    "output_dir": ("output_dir",),
}
_CLIENT_KEY_RE = re.compile(r"^attack\.client\.(\d+)$")
# Converter and description per annotated type, for config keys and attack arguments alike.
_PARSERS = {int: (int, "an integer"), float: (_finite_float, "a finite number"), str: (str, "")}


def _key_parser(key: str):
    """Converter and its description for the annotated type of ``key``'s
    field; an optional field (``int | None``) takes its non-None type."""
    hint = ExperimentConfig
    for name in KEYS[key]:
        hint = _field_types(hint)[name]
    return _PARSERS[next((t for t in get_args(hint) if t is not type(None)), hint)]


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse and validate config text; errors carry ``source:line`` anchors."""
    top: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    custom: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            if "=" not in stripped:
                raise ConfigError(f"expected 'key = value', got {line.strip()!r}")
            key, value = (s.strip() for s in stripped.split("=", 1))
            m = _CLIENT_KEY_RE.match(key)
            if m:
                parse_attack_kind(value)  # a bad spec fails on its own line
                custom[int(m.group(1))] = value
            elif key in KEYS:
                convert, needs = _key_parser(key)
                try:
                    parsed = convert(value)
                except ValueError:
                    raise ConfigError(f"{key} needs {needs}, got {value!r}") from None
                *outer, name = KEYS[key]
                (nested.setdefault(outer[0], {}) if outer else top)[name] = parsed
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None

    try:
        for name, changes in nested.items():  # from the class default, e.g. ModelSpec()
            top[name] = replace(getattr(ExperimentConfig, name), **changes)
        return ExperimentConfig(custom_plan=tuple(sorted(custom.items())), **top)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config_file(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))

