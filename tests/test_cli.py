import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dosfl import cli
from dosfl.aggregators import AggregatorSpec
from dosfl.attacks import Crafted, GaussianNoise, LabelFlip, Scale
from dosfl.cli import main
from dosfl.config import (
    SCENARIOS,
    ExperimentConfig,
    TrainConfig,
    expand_groups,
    parse_attack_kind,
    parse_config_text,
)
from dosfl.errors import ConfigError
from dosfl.harness import run_experiment
from dosfl.models import ModelSpec

from .oracles import copod_scores_oracle

FAST = """
seed = 7
clients = 4
model.input_dim = 5
model.classes = 3
data.samples_per_class = 30
data.test_per_class = 15
train.rounds = 3
train.batch_size = 8
attack = no_attack
"""


def write_cfg(tmp_path, text, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(text + extra + f"\noutput_dir = {tmp_path / 'out'}\n")
    return path


# ---------------------------------------------------------------------------
# config language


def test_parse_defaults_and_overrides():
    cfg = parse_config_text("seed = 3\ntrain.learning_rate = 0.05\n")
    assert cfg.seed == 3
    assert cfg.train.learning_rate == 0.05
    assert cfg.clients == 10
    assert cfg.aggregator.kind == "dos"
    assert cfg.attack == "no_attack"


def test_parse_empty_text_gives_library_defaults():
    assert parse_config_text("") == ExperimentConfig()


def test_parse_comments_and_blank_lines():
    cfg = parse_config_text("# full line\nseed = 1  # trailing\n\nclients = 5\n")
    assert cfg.seed == 1 and cfg.clients == 5


def test_parse_unknown_key_is_line_anchored():
    with pytest.raises(ConfigError, match=r"<config>:2"):
        parse_config_text("seed = 1\nbogus.key = 2\n")


def test_parse_bad_int_is_line_anchored():
    with pytest.raises(ConfigError, match=r"<config>:1"):
        parse_config_text("clients = ten\n")


def test_parse_last_value_wins():
    cfg = parse_config_text("seed = 1\nseed = 2\n")
    assert cfg.seed == 2


def test_parse_rejects_invalid_cross_field():
    with pytest.raises(ConfigError):
        parse_config_text("clients = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("seed = -4\n")
    with pytest.raises(ConfigError):
        parse_config_text("aggregator = krum\naggregator.krum_f = 9\n")


def test_parse_attack_kinds():
    assert parse_attack_kind("none") is None
    assert parse_attack_kind("noise(sigma=2.5)") == GaussianNoise(sigma=2.5)
    assert parse_attack_kind("noise") == GaussianNoise(sigma=1.0)
    assert parse_attack_kind("scale(factor=-0.5)") == Scale(factor=-0.5)
    assert parse_attack_kind("label_flip(source=0,target=2,fraction=0.5)") == \
        LabelFlip(source=0, target=2, fraction=0.5)
    assert parse_attack_kind("crafted(lambda_init=4,halving_steps=6)") == \
        Crafted(lambda_init=4.0, halving_steps=6)
    with pytest.raises(ConfigError):
        parse_attack_kind("scale")  # factor required
    with pytest.raises(ConfigError):
        parse_attack_kind("noise(sigma=2,oops=1)")
    with pytest.raises(ConfigError):
        parse_attack_kind("meteor()")
    # integer fields take integer text: no silent truncation of 1.9 or 2.5
    assert parse_attack_kind("label_flip(source=1,target=0)") == LabelFlip(source=1, target=0)
    for spec in ("label_flip(source=1.9,target=0)", "label_flip(source=1,target=0.0)",
                 "crafted(halving_steps=2.5)", "crafted(halving_steps=nan)"):
        with pytest.raises(ConfigError, match="needs an integer"):
            parse_attack_kind(spec)
    with pytest.raises(ConfigError, match="needs a finite number"):
        parse_attack_kind("noise(sigma=inf)")
    with pytest.raises(ConfigError, match=r"<config>:2: .*needs an integer"):
        parse_config_text("attack = custom\nattack.client.3 = crafted(halving_steps=2.5)\n")


@pytest.mark.parametrize("steps", ["1000000000", "9" * 400], ids=["1e9", "400_digits"])
def test_crafted_halving_steps_stop_before_lambda_reaches_zero(steps):
    # 10**9 candidates would be built in the first round; 400 digits would
    # overflow 2.0 ** -k; every candidate from 2**-1075 on is 0.0
    with pytest.raises(ConfigError, match=r"^<config>:2: halving_steps=\d+ halves lambda_init"):
        parse_config_text(f"attack = custom\nattack.client.9 = crafted(halving_steps={steps})\n")


def test_crafted_halving_steps_bound_reads_the_last_candidate():
    last = Crafted(lambda_init=10, halving_steps=1074)
    assert last.lambda_init * 2.0 ** -last.halving_steps > 0.0  # 10 * 2**-1074 is subnormal
    for lam, steps in ((10, 1075), (0.1, 1074), (1e-300, 100)):
        assert lam * 2.0 ** -steps == 0.0
        with pytest.raises(ConfigError, match="halves lambda_init to 0"):
            Crafted(lambda_init=lam, halving_steps=steps)
    Crafted(lambda_init=1e300, halving_steps=1074)


def test_scenario_expansion_counts_at_ten():
    for name, groups in SCENARIOS.items():
        plan = ExperimentConfig(attack=name).plan
        expected = sum(int(frac * 10 + 0.5) for _, frac in groups)
        assert len(plan.assignments) == expected
    noise = ExperimentConfig(attack="noise_40").plan
    assert sorted(noise.assignments) == [6, 7, 8, 9]
    assert all(isinstance(k, GaussianNoise) for k in noise.assignments.values())


def test_scenario_expansion_scales_with_n():
    assert len(ExperimentConfig(clients=5, attack="noise_40").plan.assignments) == 2
    assert len(ExperimentConfig(clients=20, attack="noise_40").plan.assignments) == 8
    assert ExperimentConfig(attack="no_attack").plan.assignments == {}


def test_replace_derives_the_plan_again():
    # a plan copied from the 10-client config would keep its 4 noise clients
    cfg = replace(ExperimentConfig(attack="noise_40"), clients=20)
    assert sorted(cfg.plan.assignments) == list(range(12, 20))
    assert all(isinstance(k, GaussianNoise) for k in cfg.plan.assignments.values())


def test_unknown_scenario_lists_valid_names():
    with pytest.raises(ConfigError, match="noise_40"):
        ExperimentConfig(attack="noise_41")


def test_custom_plan_round_trip():
    cfg = parse_config_text(
        "clients = 4\nattack = custom\n"
        "attack.client.3 = scale(factor=100)\n"
        "attack.client.2 = noise(sigma=2)\n")
    plan = cfg.plan
    assert plan.assignments[3] == Scale(factor=100.0)
    assert plan.assignments[2] == GaussianNoise(sigma=2.0)
    assert cfg.flat_dict()["attack.client.3"] == "scale(factor=100)"


def test_each_custom_entry_is_parsed_once():
    # the plan reads the parse that checked the entry's own line
    parse_attack_kind.cache_clear()
    parse_config_text("clients = 4\nattack = custom\n"
                      "attack.client.3 = scale(factor=100)\n"
                      "attack.client.2 = noise(sigma=2)\n")
    assert parse_attack_kind.cache_info().misses == 2


def test_custom_entries_require_custom_mode():
    with pytest.raises(ConfigError):
        parse_config_text("attack = noise_40\nattack.client.1 = none\n")


@pytest.mark.parametrize("build", [
    lambda: ExperimentConfig(clients=1),
    lambda: ExperimentConfig(attack="bogus"),
    lambda: ExperimentConfig(custom_plan=((1, "noise()"),)),
    lambda: replace(ExperimentConfig(), seed=-1),
    lambda: TrainConfig(learning_rate=float("nan")),
    lambda: TrainConfig(learning_rate=float("inf")),
    lambda: ExperimentConfig(class_separation=float("inf")),
    lambda: ExperimentConfig(skew_alpha=float("nan")),
    lambda: ExperimentConfig(partition="label_skew", skew_alpha=0.0),
    lambda: ExperimentConfig(clients=900),
    lambda: ExperimentConfig(attack="custom",
                             custom_plan=((1, "label_flip(source=0,target=7)"),)),
    lambda: ExperimentConfig(attack="custom", custom_plan=((1, "noise(sigma=1"),)),
    lambda: ExperimentConfig(attack="custom", custom_plan=((1, "none(sigma=1)"),)),
    lambda: ExperimentConfig(attack="custom", custom_plan=((1, "noise(1.0)"),)),
    lambda: expand_groups([("noise", 0.75), ("noise", 0.75)], 2),
    lambda: TrainConfig(local_steps=0),
    lambda: TrainConfig(batch_size=0),
    lambda: TrainConfig(rounds=-1),
    lambda: ExperimentConfig(samples_per_class=0),
    lambda: ExperimentConfig(test_per_class=0),
    lambda: ExperimentConfig(clients=2, attack="custom",
                             custom_plan=((0, "noise"), (1, "noise"))),
    lambda: parse_config_text("clients 4\n"),
    lambda: ModelSpec(kind="cnn"),
    lambda: ModelSpec(input_dim=0),
    lambda: ModelSpec(class_count=1),
    lambda: ModelSpec(kind="mlp1", hidden_dim=0),
    lambda: AggregatorSpec(kind="krum", krum_f=-1),
], ids=["clients", "attack", "custom_plan", "replace_seed", "learning_rate_nan",
        "learning_rate_inf", "class_separation_inf", "skew_alpha_nan", "skew_alpha_zero",
        "clients_over_samples", "label_flip_class", "kind_unparsed", "none_with_arguments",
        "kind_argument_not_key_value", "groups_over_clients", "local_steps", "batch_size",
        "rounds", "samples_per_class", "test_per_class", "no_honest_client",
        "line_not_key_value", "model_kind", "input_dim", "class_count", "hidden_dim",
        "krum_f"])
def test_invalid_config_raises_at_construction(build):
    with pytest.raises(ConfigError):
        build()


def test_expand_groups_noise_counts():
    assert len(expand_groups([(GaussianNoise(), 0.6)], 10)) == 6
    assert expand_groups([("noise", 0.2)], 10) == {9: "noise", 8: "noise"}


@pytest.mark.parametrize("line", [
    "train.learning_rate = nan",
    "train.learning_rate = inf",
    "data.class_separation = nan",
    "data.alpha = inf",
    "aggregator.trim_fraction = -inf",
    "attack = custom\nattack.client.3 = noise(sigma=nan)",
    "attack = custom\nattack.client.3 = crafted(lambda_init=inf)",
])
def test_parse_rejects_non_finite_numbers(line):
    lineno = line.count("\n") + 1
    with pytest.raises(ConfigError, match=rf"<config>:{lineno}: .*finite"):
        parse_config_text(line + "\n")


def render(flat: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in flat.items())


@pytest.mark.parametrize("text", [
    "",
    "train.learning_rate = 0.123456789012\ndata.class_separation = 6.000000000001\n"
    "data.alpha = 1e-300\naggregator.trim_fraction = 0.1000000000000001\n",
    "clients = 7\naggregator = krum\naggregator.krum_f = 2\nattack = custom\n"
    "attack.client.6 = scale(factor=-0.123456789012345)\n"
    "attack.client.2 = crafted(lambda_init=3.3333333333333,halving_steps=4)\n",
])
def test_flat_dict_round_trips_through_config_text(text):
    cfg = parse_config_text(text)
    flat = cfg.flat_dict()
    again = parse_config_text(render(flat))
    assert again.flat_dict() == flat
    # the same run: only krum_f is written resolved against the client count
    krum_f = cfg.aggregator.resolve_krum_f(cfg.clients)
    assert again == replace(cfg, aggregator=replace(cfg.aggregator, krum_f=krum_f))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_key_block_matches_defaults():
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"All keys with their defaults:\n\n```ini\n(.*?)```", readme, re.S).group(1)
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if line.strip()]
    assert sorted(keys) == sorted(ExperimentConfig().flat_dict())
    assert parse_config_text(block).flat_dict() == ExperimentConfig().flat_dict()


def test_readme_library_example_runs():
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["records"]) == namespace["cfg"].train.rounds


# ---------------------------------------------------------------------------
# run command


def test_cmd_run_writes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "round,macro_auc,pairwise_auc,accuracy"
    assert len(metrics) == 1 + 3
    weights = (out / "weights.csv").read_text().splitlines()
    assert weights[0] == "round,client_id,weight_or_marker,attack_kind"
    assert len(weights) == 1 + 4 * 3  # n * T rows
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds"] == 3
    assert summary["config"]["clients"] == "4"
    assert summary["config"]["seed"] == "7"
    assert 0 <= summary["final"]["accuracy"] <= 1


def test_cmd_run_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg)])
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    main(["run", "--config", str(cfg)])
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first["metrics.csv"] == second["metrics.csv"]
    assert first["weights.csv"] == second["weights.csv"]
    a = json.loads(first["summary.json"])
    b = json.loads(second["summary.json"])
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    assert a == b


def test_cmd_run_median_marker(tmp_path):
    cfg = write_cfg(tmp_path, FAST, "aggregator = median\n")
    main(["run", "--config", str(cfg)])
    rows = (tmp_path / "out" / "weights.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "NA" for row in rows)


def test_cmd_run_invalid_config_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "clients = 1\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_cmd_run_unrunnable_config_exits_2_before_output(tmp_path, capsys):
    # alpha 0 fails at construction; alpha 0.01 constructs, then leaves a
    # label-skew shard empty when the run prepares its data
    for command in (["run"], ["compare", "--aggregators", "fedavg"]):
        for alpha in ("0", "0.01"):
            cfg = write_cfg(tmp_path, f"data.partition = label_skew\ndata.alpha = {alpha}\n")
            assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
            assert str(cfg) in capsys.readouterr().err, (command, alpha)
            assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,output_dir", [
    (["run"], "blocker"),  # an existing file
    (["compare", "--aggregators", "fedavg"], "blocker/sub"),  # below a file
], ids=["run", "compare"])
def test_output_dir_that_cannot_be_made_exits_2(tmp_path, command, output_dir):
    (tmp_path / "blocker").write_text("")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST + f"output_dir = {tmp_path / output_dir}\n")
    # a child process, so that a traceback would reach its stderr
    proc = subprocess.run([sys.executable, "-m", "dosfl.cli", command[0], "--config", str(cfg),
                           *command[1:]], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 2
    assert str(tmp_path / output_dir) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,output_dir", [
    (["run"], "blocker"),  # an existing file
    (["compare", "--aggregators", "fedavg,median", "--scenarios", "no_attack,noise_40"],
     "blocker/sub"),  # below a file
], ids=["run", "compare"])
def test_output_dir_that_cannot_be_made_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                              command, output_dir):
    (tmp_path / "blocker").write_text("")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST + f"output_dir = {tmp_path / output_dir}\n")
    runs = []
    monkeypatch.setattr(cli, "run_experiment", lambda setup: runs.append(setup) or [])
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
    assert str(tmp_path / output_dir) in capsys.readouterr().err
    assert runs == []


def test_cmd_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cmd_run_runtime_failure_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST,
                    "attack = custom\nattack.client.3 = scale(factor=1e300)\n")
    assert main(["run", "--config", str(cfg)]) == 3
    assert "round" in capsys.readouterr().err


def test_seed_precedence(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, FAST)
    out = tmp_path / "out"

    monkeypatch.setenv("DOSFL_SEED", "99")
    main(["run", "--config", str(cfg)])
    assert json.loads((out / "summary.json").read_text())["config"]["seed"] == "99"

    main(["run", "--config", str(cfg), "--seed", "123"])
    assert json.loads((out / "summary.json").read_text())["config"]["seed"] == "123"

    monkeypatch.setenv("DOSFL_SEED", "not-a-number")
    assert main(["run", "--config", str(cfg)]) == 2

    capsys.readouterr()
    monkeypatch.setenv("DOSFL_SEED", "-4")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "64-bit unsigned integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare and sweep


def test_cmd_compare_grid(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    assert main(["compare", "--config", str(cfg),
                 "--aggregators", "fedavg,median",
                 "--scenarios", "no_attack,noise_40"]) == 0
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert rows[0] == "aggregator,scenario,avg_metric,final_metric"
    assert len(rows) == 1 + 4
    assert rows[1].startswith("fedavg,no_attack,")


def test_cmd_compare_default_scenario(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    main(["compare", "--config", str(cfg), "--aggregators", "dos"])
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert len(rows) == 2 and ",no_attack," in rows[1]


def test_cmd_compare_unknown_aggregator(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST)
    assert main(["compare", "--config", str(cfg), "--aggregators", "dos,winsor"]) == 2
    err = capsys.readouterr().err
    assert "winsor" in err and "trimmed_mean" in err


def test_cmd_sweep_malicious_fraction(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    assert main(["sweep", "--config", str(cfg), "--param", "malicious_fraction",
                 "--values", "0.25,0.5"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "sweep_param,value,avg_metric,final_metric"
    assert len(rows) == 3
    assert rows[1].startswith("malicious_fraction,0.25,")


def test_cmd_sweep_default_fractions(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    main(["sweep", "--config", str(cfg), "--param", "malicious_fraction"])
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6"]


def test_cmd_sweep_client_count_defaults(tmp_path):
    cfg = write_cfg(tmp_path, FAST, "attack = noise_40\ndata.samples_per_class = 40\n")
    assert main(["sweep", "--config", str(cfg), "--param", "client_count"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["5", "10", "20", "40"]


def test_compare_and_sweep_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    args_cmp = ["compare", "--config", str(cfg), "--aggregators", "dos,median"]
    args_swp = ["sweep", "--config", str(cfg), "--param", "malicious_fraction",
                "--values", "0.25,0.5"]
    main(args_cmp)
    main(args_swp)
    first = ((tmp_path / "out" / "compare.csv").read_bytes(),
             (tmp_path / "out" / "sweep.csv").read_bytes())
    main(args_cmp)
    main(args_swp)
    second = ((tmp_path / "out" / "compare.csv").read_bytes(),
              (tmp_path / "out" / "sweep.csv").read_bytes())
    assert first == second


def test_cmd_compare_unknown_scenario_writes_nothing(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    assert main(["compare", "--config", str(cfg), "--aggregators", "dos",
                 "--scenarios", "no_attack,bogus"]) == 2
    assert not (tmp_path / "out" / "compare.csv").exists()


def test_cmd_compare_named_scenarios_drop_custom_entries(tmp_path, monkeypatch):
    ran = []  # the config of every compare run

    def recording(cfg):
        ran.append(cfg)
        return run_experiment(cfg)

    monkeypatch.setattr(cli, "run_experiment", recording)
    cfg = write_cfg(tmp_path, FAST, "attack = custom\nattack.client.3 = scale(factor=100)\n")
    assert main(["compare", "--config", str(cfg), "--aggregators", "dos",
                 "--scenarios", "noise_40,custom"]) == 0
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == [["dos", "noise_40"], ["dos", "custom"]]
    noise, custom = ran
    assert noise.custom_plan == () and sorted(noise.plan.assignments) == [2, 3]
    assert custom.plan.assignments == {3: Scale(factor=100.0)}


@pytest.mark.parametrize("param,values", [("malicious_fraction", "0.25,0.5,0.75"),
                                          ("client_count", "5,6")])
def test_sweep_configs_name_their_noise_clients(tmp_path, monkeypatch, param, values):
    ran = []  # (config, records) of every sweep run

    def recording(cfg):
        ran.append((cfg, run_experiment(cfg)))
        return ran[-1][1]

    monkeypatch.setattr(cli, "run_experiment", recording)
    cfg = write_cfg(tmp_path, FAST)
    assert main(["sweep", "--config", str(cfg), "--param", param, "--values", values]) == 0
    assert len(ran) == len(values.split(","))
    for cfg, records in ran:
        named = [int(key.rsplit(".", 1)[1]) for key, spec in cfg.flat_dict().items()
                 if key.startswith("attack.client.") and spec == "noise"]
        for r in records:
            assert [cid for cid, kind in enumerate(r.attack_kinds) if kind == "noise"] == named
    if param == "malicious_fraction":
        assert [len(c.plan.assignments) for c, _ in ran] == [1, 2, 3]


@pytest.mark.parametrize("param,value", [("malicious_fraction", "-0.1"),
                                         ("malicious_fraction", "0.99"),  # no honest client
                                         ("client_count", "1"),
                                         ("malicious_fraction", "abc"),
                                         ("client_count", "2.5")])
def test_cmd_sweep_rejects_bad_value(tmp_path, param, value):
    cfg = write_cfg(tmp_path, FAST)
    assert main(["sweep", "--config", str(cfg), "--param", param, "--values", value]) == 2
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_cmd_sweep_empty_values(tmp_path):
    cfg = write_cfg(tmp_path, FAST)
    assert main(["sweep", "--config", str(cfg), "--param", "malicious_fraction",
                 "--values", " , "]) == 2


# ---------------------------------------------------------------------------
# copod score command


def test_copod_score_output(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("0\n0\n0\n10\n")
    assert main(["copod", "score", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    scores = [float(x) for x in lines]
    assert len(scores) == 4
    assert scores[3] == max(scores)
    np.testing.assert_allclose(scores, copod_scores_oracle([[0.0], [0.0], [0.0], [10.0]]),
                               atol=1e-8)


def test_copod_score_identical_rows(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n1,2\n1,2\n")
    main(["copod", "score", "--input", str(path)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(set(lines)) == 1


def test_copod_score_single_row_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n")
    assert main(["copod", "score", "--input", str(path)]) == 2


@pytest.mark.parametrize("text,message", [(None, "cannot read"), ("", "empty matrix"),
                                          ("\n\n", "empty matrix")],
                         ids=["missing", "empty", "blank_lines"])
def test_copod_score_rejects_unreadable_or_empty_input(tmp_path, capsys, text, message):
    path = tmp_path / "m.csv"
    if text is not None:
        path.write_text(text)
    assert main(["copod", "score", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_copod_score_skips_blank_lines(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("0\n0\n0\n10\n")
    main(["copod", "score", "--input", str(path)])
    plain = capsys.readouterr().out
    path.write_text("0\n\n0\n0\n\n10\n")
    assert main(["copod", "score", "--input", str(path)]) == 0
    assert capsys.readouterr().out == plain


def test_copod_score_ragged_named_location(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    assert main(["copod", "score", "--input", str(path)]) == 2
    assert "row 2" in capsys.readouterr().err


def test_copod_score_non_numeric_location(tmp_path, capsys):
    # a non-finite cell is a configuration error at its cell, like a non-numeric one
    path = tmp_path / "m.csv"
    for cell in ("frog", "nan", "inf", "-inf"):
        path.write_text(f"1,2\n3,{cell}\n")
        assert main(["copod", "score", "--input", str(path)]) == 2, cell
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err, cell
