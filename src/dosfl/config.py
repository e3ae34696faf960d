"""Experiment configuration: flat key = value files, presets, validation.

The config language is line oriented: ``section.key = value`` with ``#``
comments.  Attack scenarios are bundled data fragments in the same kind-spec
grammar used for custom per-client plans, expanded against the client count
at validation time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .aggregators import AGGREGATOR_KINDS, AggregatorSpec
from .attacks import AttackKind, AttackPlan, Crafted, GaussianNoise, LabelFlip, Scale
from .errors import ConfigError
from .harness import SimulationSetup, TrainConfig
from .models import MODEL_KINDS, ModelSpec

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


def parse_attack_kind(text: str) -> AttackKind | None:
    """Parse a kind spec like ``noise(sigma=1.0)`` or ``none``."""
    m = _KIND_RE.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse attack kind {text!r}")
    name, argstr = m.group(1), m.group(2) or ""
    kwargs: dict[str, float] = {}
    for part in filter(None, (p.strip() for p in argstr.split(","))):
        if "=" not in part:
            raise ConfigError(f"attack argument {part!r} is not key=value in {text!r}")
        key, val = (s.strip() for s in part.split("=", 1))
        try:
            kwargs[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"non-numeric attack argument {part!r} in {text!r}") from exc
    try:
        if name == "none":
            if kwargs:
                raise ConfigError("'none' takes no arguments")
            return None
        if name == "noise":
            return GaussianNoise(sigma=kwargs.pop("sigma", 1.0), **_no_extra(kwargs, text))
        if name == "scale":
            if "factor" not in kwargs:
                raise ConfigError(f"scale needs a factor in {text!r}")
            return Scale(factor=kwargs.pop("factor"), **_no_extra(kwargs, text))
        if name == "label_flip":
            return LabelFlip(source=int(kwargs.pop("source", 0)),
                             target=int(kwargs.pop("target", 1)),
                             fraction=kwargs.pop("fraction", 1.0), **_no_extra(kwargs, text))
        if name == "crafted":
            return Crafted(lambda_init=kwargs.pop("lambda_init", 10.0),
                           halving_steps=int(kwargs.pop("halving_steps", 10)),
                           **_no_extra(kwargs, text))
    except TypeError as exc:
        raise ConfigError(f"bad arguments in {text!r}: {exc}") from exc
    raise ConfigError(f"unknown attack kind {name!r}; valid: none, noise, scale, "
                      f"label_flip, crafted")


def _no_extra(kwargs: dict, text: str) -> dict:
    if kwargs:
        raise ConfigError(f"unknown attack arguments {sorted(kwargs)} in {text!r}")
    return {}


def expand_scenario(name: str, n: int) -> AttackPlan:
    """Instantiate a preset at client count n; counts are round(fraction * n)."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown attack scenario {name!r}; valid: "
                          f"{', '.join(sorted(SCENARIOS))}, custom")
    assignments: dict[int, AttackKind] = {}
    next_id = n - 1
    for spec_text, fraction in SCENARIOS[name]:
        kind = parse_attack_kind(spec_text)
        count = int(fraction * n + 0.5)
        for _ in range(count):
            if next_id < 0:
                raise ConfigError(f"scenario {name!r} needs more clients than n={n}")
            assignments[next_id] = kind
            next_id -= 1
    return AttackPlan(assignments=assignments)


def make_noise_plan(n: int, fraction: float, sigma: float = 1.0) -> AttackPlan:
    """Noise-replacement plan on round(fraction * n) top-id clients (sweeps)."""
    count = int(fraction * n + 0.5)
    return AttackPlan(assignments={n - 1 - k: GaussianNoise(sigma=sigma) for k in range(count)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Full declarative description of one run (defaults match the desk-scale
    benchmark: 10 clients, 4-class synthetic data, logistic model, 100 rounds)."""

    seed: int = 0
    clients: int = 10
    model: ModelSpec = ModelSpec()
    samples_per_class: int = 200
    test_per_class: int = 50
    class_separation: float = 6.0
    partition: str = "iid"
    skew_alpha: float = 0.5
    train: TrainConfig = TrainConfig()
    aggregator: AggregatorSpec = AggregatorSpec()
    attack: str = "no_attack"
    custom_plan: tuple[tuple[int, str], ...] = ()
    output_dir: str = "out"

    def build_plan(self) -> AttackPlan:
        if self.attack == "custom":
            assignments: dict[int, AttackKind] = {}
            for cid, spec_text in self.custom_plan:
                kind = parse_attack_kind(spec_text)
                if kind is not None:
                    assignments[cid] = kind
            return AttackPlan(assignments=assignments)
        return expand_scenario(self.attack, self.clients)

    def to_setup(self, plan: AttackPlan | None = None) -> SimulationSetup:
        return SimulationSetup(
            seed=self.seed,
            clients=self.clients,
            model=self.model,
            train=self.train,
            aggregator=self.aggregator,
            plan=self.build_plan() if plan is None else plan,
            samples_per_class=self.samples_per_class,
            test_per_class=self.test_per_class,
            class_separation=self.class_separation,
            partition=self.partition,
            skew_alpha=self.skew_alpha,
        )

    def validate(self) -> "ExperimentConfig":
        self.to_setup()  # SimulationSetup owns the cross-field checks
        return self

    def flat_dict(self) -> dict[str, str]:
        """Effective configuration after defaults, as config-file keys."""
        out = {
            "seed": str(self.seed),
            "clients": str(self.clients),
            "model.kind": self.model.kind,
            "model.input_dim": str(self.model.input_dim),
            "model.hidden_dim": str(self.model.hidden_dim),
            "model.classes": str(self.model.class_count),
            "data.samples_per_class": str(self.samples_per_class),
            "data.test_per_class": str(self.test_per_class),
            "data.class_separation": _fmt(self.class_separation),
            "data.partition": self.partition,
            "data.alpha": _fmt(self.skew_alpha),
            "train.learning_rate": _fmt(self.train.learning_rate),
            "train.local_steps": str(self.train.local_steps),
            "train.batch_size": str(self.train.batch_size),
            "train.rounds": str(self.train.rounds),
            "aggregator": self.aggregator.kind,
            "aggregator.trim_fraction": _fmt(self.aggregator.trim_fraction),
            "aggregator.krum_f": str(self.aggregator.resolve_krum_f(self.clients)),
            "attack": self.attack,
            "output_dir": self.output_dir,
        }
        for cid, spec_text in self.custom_plan:
            out[f"attack.client.{cid}"] = spec_text
        return out


def _fmt(x: float) -> str:
    return f"{x:.10g}"


_INT_KEYS = {
    "seed", "clients", "model.input_dim", "model.hidden_dim", "model.classes",
    "data.samples_per_class", "data.test_per_class", "train.local_steps",
    "train.batch_size", "train.rounds", "aggregator.krum_f",
}
_FLOAT_KEYS = {
    "data.class_separation", "data.alpha", "train.learning_rate",
    "aggregator.trim_fraction",
}
_STR_KEYS = {"model.kind", "data.partition", "aggregator", "attack", "output_dir"}
_CLIENT_KEY_RE = re.compile(r"^attack\.client\.(\d+)$")


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse and validate config text; errors carry ``source:line`` anchors."""
    raw: dict[str, str] = {}
    custom: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (s.strip() for s in stripped.split("=", 1))
        m = _CLIENT_KEY_RE.match(key)
        if m:
            custom[int(m.group(1))] = value
            continue
        if key not in _INT_KEYS | _FLOAT_KEYS | _STR_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in _INT_KEYS:
            try:
                int(value)
            except ValueError:
                raise ConfigError(f"{source}:{lineno}: {key} needs an integer, got {value!r}")
        if key in _FLOAT_KEYS:
            try:
                float(value)
            except ValueError:
                raise ConfigError(f"{source}:{lineno}: {key} needs a number, got {value!r}")
        raw[key] = value

    try:
        cfg = _build_config(raw, tuple(sorted(custom.items())))
        cfg.validate()
    except ConfigError as exc:
        msg = str(exc)
        raise ConfigError(msg if msg.startswith(source) else f"{source}: {msg}") from None
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _build_config(raw: dict[str, str], custom: tuple[tuple[int, str], ...]) -> ExperimentConfig:
    """Build the config from the parsed keys; every absent key takes the
    default of ``ExperimentConfig`` and its nested dataclasses."""
    base = ExperimentConfig()
    geti = lambda k, d: int(raw[k]) if k in raw else d
    getf = lambda k, d: float(raw[k]) if k in raw else d
    gets = lambda k, d: raw.get(k, d)

    kind = gets("model.kind", base.model.kind)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind must be one of {', '.join(MODEL_KINDS)}, got {kind!r}")
    model = ModelSpec(kind=kind,
                      input_dim=geti("model.input_dim", base.model.input_dim),
                      class_count=geti("model.classes", base.model.class_count),
                      hidden_dim=geti("model.hidden_dim", base.model.hidden_dim))
    train = TrainConfig(learning_rate=getf("train.learning_rate", base.train.learning_rate),
                        local_steps=geti("train.local_steps", base.train.local_steps),
                        batch_size=geti("train.batch_size", base.train.batch_size),
                        rounds=geti("train.rounds", base.train.rounds))
    agg_kind = gets("aggregator", base.aggregator.kind)
    if agg_kind not in AGGREGATOR_KINDS:
        raise ConfigError(f"aggregator must be one of {', '.join(AGGREGATOR_KINDS)}, "
                          f"got {agg_kind!r}")
    aggregator = AggregatorSpec(
        kind=agg_kind,
        trim_fraction=getf("aggregator.trim_fraction", base.aggregator.trim_fraction),
        krum_f=geti("aggregator.krum_f", base.aggregator.krum_f))
    attack = gets("attack", base.attack)
    if attack != "custom" and custom:
        raise ConfigError("attack.client.* entries require attack = custom")
    if attack != "custom" and attack not in SCENARIOS:
        raise ConfigError(f"unknown attack scenario {attack!r}; valid: "
                          f"{', '.join(sorted(SCENARIOS))}, custom")
    partition = gets("data.partition", base.partition)
    if partition not in ("iid", "label_skew"):
        raise ConfigError(f"data.partition must be iid or label_skew, got {partition!r}")

    return ExperimentConfig(
        seed=geti("seed", base.seed),
        clients=geti("clients", base.clients),
        model=model,
        samples_per_class=geti("data.samples_per_class", base.samples_per_class),
        test_per_class=geti("data.test_per_class", base.test_per_class),
        class_separation=getf("data.class_separation", base.class_separation),
        partition=partition,
        skew_alpha=getf("data.alpha", base.skew_alpha),
        train=train,
        aggregator=aggregator,
        attack=attack,
        custom_plan=custom,
        output_dir=gets("output_dir", base.output_dir),
    )


def with_overrides(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """dataclasses.replace plus re-validation."""
    return replace(cfg, **changes).validate()
