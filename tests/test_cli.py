import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dosfl.attacks import Crafted, GaussianNoise, LabelFlip, Scale
from dosfl.cli import main
from dosfl.config import (
    SCENARIOS,
    ExperimentConfig,
    expand_groups,
    expand_scenario,
    parse_attack_kind,
    parse_config_text,
)
from dosfl.errors import ConfigError

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


def test_scenario_expansion_counts_at_ten():
    for name, groups in SCENARIOS.items():
        plan = expand_scenario(name, 10)
        expected = sum(int(frac * 10 + 0.5) for _, frac in groups)
        assert len(plan.assignments) == expected
    noise = expand_scenario("noise_40", 10)
    assert sorted(noise.assignments) == [6, 7, 8, 9]
    assert all(isinstance(k, GaussianNoise) for k in noise.assignments.values())


def test_scenario_expansion_scales_with_n():
    assert len(expand_scenario("noise_40", 5).assignments) == 2
    assert len(expand_scenario("noise_40", 20).assignments) == 8
    assert expand_scenario("no_attack", 10).assignments == {}


def test_unknown_scenario_lists_valid_names():
    with pytest.raises(ConfigError, match="noise_40"):
        expand_scenario("noise_41", 10)


def test_custom_plan_round_trip():
    cfg = parse_config_text(
        "clients = 4\nattack = custom\n"
        "attack.client.3 = scale(factor=100)\n"
        "attack.client.2 = noise(sigma=2)\n")
    plan = cfg.build_plan()
    assert plan.assignments[3] == Scale(factor=100.0)
    assert plan.assignments[2] == GaussianNoise(sigma=2.0)
    assert cfg.flat_dict()["attack.client.3"] == "scale(factor=100)"


def test_custom_entries_require_custom_mode():
    with pytest.raises(ConfigError):
        parse_config_text("attack = noise_40\nattack.client.1 = none\n")


def test_expand_groups_noise_counts():
    assert len(expand_groups([(GaussianNoise(), 0.6)], 10).assignments) == 6
    assert sorted(expand_groups([(GaussianNoise(), 0.2)], 10).assignments) == [8, 9]


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


def test_readme_key_block_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"All keys with their defaults:\n\n```ini\n(.*?)```", readme, re.S).group(1)
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if line.strip()]
    assert sorted(keys) == sorted(ExperimentConfig().flat_dict())
    assert parse_config_text(block).flat_dict() == ExperimentConfig().flat_dict()


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


def test_cmd_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cmd_run_runtime_failure_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST,
                    "attack = custom\nattack.client.3 = scale(factor=1e300)\n")
    assert main(["run", "--config", str(cfg)]) == 3
    assert "round" in capsys.readouterr().err


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, FAST)
    out = tmp_path / "out"

    monkeypatch.setenv("DOSFL_SEED", "99")
    main(["run", "--config", str(cfg)])
    assert json.loads((out / "summary.json").read_text())["config"]["seed"] == "99"

    main(["run", "--config", str(cfg), "--seed", "123"])
    assert json.loads((out / "summary.json").read_text())["config"]["seed"] == "123"

    monkeypatch.setenv("DOSFL_SEED", "not-a-number")
    assert main(["run", "--config", str(cfg)]) == 2


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


@pytest.mark.parametrize("param,value", [("malicious_fraction", "-0.1"),
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
