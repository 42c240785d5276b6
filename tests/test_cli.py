"""Config loading, flag overrides, and end-to-end command behaviour."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

import orthopet.cli as cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE = {
    "paradigm": "adapter",
    "model": {"dim": 16, "depth": 2, "heads": 2, "mlp_ratio": 2.0, "seq_len": 4,
              "num_classes": 4, "prompt_len": 4, "prefix_len": 4, "rank": 4},
    "data": {"scenario": "cil", "tasks": 2, "classes_per_task": 2,
             "samples_per_class": 20, "feature_dim": 64, "noise": 0.1,
             "separation": 4.0},
    "train": {"epochs": 1, "batch_size": 8, "lr": 0.05, "optimizer": "adam",
              "seed": 0, "backbone_seed": 0},
    "projection": {"epsilon": 0.02, "sample_count": 8},
}


def _write(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _base(**changes):
    doc = json.loads(json.dumps(BASE))
    for dotted, value in changes.items():
        section, _, key = dotted.partition(".")
        if key:
            doc[section][key] = value
        else:
            doc[section] = value
    return doc


# -- config loading -----------------------------------------------------------

def test_readme_config_block_names_every_enforced_key():
    """The README's config block lists exactly the keys load_config accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```", 2)[1]
    for section, cls in cli._SECTIONS.items():
        listed = re.search(rf'"{section}":\s*\{{([^}}]*)\}}', block)
        assert listed is not None, section
        keys = {k.strip() for k in listed.group(1).split(",")}
        skip = cli._TRAIN_SKIP if section == "train" else set()
        assert keys == {f.name for f in fields(cls)} - skip, section


def test_load_config_happy_path(tmp_path):
    cfg = cli.load_config(_write(tmp_path, BASE))
    assert cfg.paradigm == "adapter"
    assert cfg.model_cfg.dim == 16
    assert cfg.spec.tasks == 2
    assert cfg.train_cfg.epochs == 1
    assert cfg.train_cfg.proj.epsilon == 0.02
    assert cfg.train_cfg.scenario == "cil"
    assert cfg.data_seed == 0
    assert cfg.sweep_seeds == [0]
    assert str(cfg.out) == "runs/run"


def test_unknown_keys_are_named(tmp_path):
    with pytest.raises(cli.ConfigError, match="wat: unknown key"):
        cli.load_config(_write(tmp_path, {**BASE, "wat": 1}))
    with pytest.raises(cli.ConfigError, match="model.wdith: unknown key"):
        cli.load_config(_write(tmp_path, _base(**{"model.wdith": 32})))


def test_malformed_files_are_config_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(cli.ConfigError, match="not valid JSON"):
        cli.load_config(str(path))
    with pytest.raises(cli.ConfigError, match="cannot read config"):
        cli.load_config(str(tmp_path / "missing.json"))
    with pytest.raises(cli.ConfigError, match="top level"):
        cli.load_config(_write(tmp_path, [1, 2], name="list.json"))


def test_cross_field_checks(tmp_path):
    with pytest.raises(cli.ConfigError, match="feature_dim"):
        cli.load_config(_write(tmp_path, _base(**{"data.feature_dim": 66})))
    with pytest.raises(cli.ConfigError, match="num_classes"):
        cli.load_config(_write(tmp_path, _base(**{"model.num_classes": 2})))
    doc = _base(**{"model.prompt_len": 0})
    doc["paradigm"] = "prompt"
    with pytest.raises(cli.ConfigError, match="prompt_len"):
        cli.load_config(_write(tmp_path, doc))
    doc = _base(**{"model.prefix_len": 0})
    doc["paradigm"] = "prefix"
    with pytest.raises(cli.ConfigError, match="prefix_len"):
        cli.load_config(_write(tmp_path, doc))


def test_section_value_errors_become_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError, match="lr"):
        cli.load_config(_write(tmp_path, _base(**{"train.lr": -1.0})))
    with pytest.raises(cli.ConfigError, match="paradigm"):
        cli.load_config(_write(tmp_path, {**BASE, "paradigm": "soft"}))


def test_top_level_seed_fields_are_validated(tmp_path):
    with pytest.raises(cli.ConfigError, match="data_seed"):
        cli.load_config(_write(tmp_path, {**BASE, "data_seed": -1}))
    with pytest.raises(cli.ConfigError, match="data_seed"):
        cli.load_config(_write(tmp_path, {**BASE, "data_seed": "zero"}))
    for bad in ([], [0, -1], "0,1"):
        with pytest.raises(cli.ConfigError, match="sweep_seeds"):
            cli.load_config(_write(tmp_path, {**BASE, "sweep_seeds": bad}))


def test_flag_overrides(tmp_path):
    path = _write(tmp_path, BASE)
    cfg = cli.load_config(path, {"seed": 7, "projection": False,
                                 "paradigm": "lora", "scenario": "til",
                                 "out": "elsewhere"})
    assert cfg.train_cfg.seed == 7
    assert cfg.train_cfg.projection is False
    assert cfg.paradigm == "lora"
    assert cfg.spec.scenario == "til"
    assert cfg.train_cfg.scenario == "til"
    assert str(cfg.out) == "elsewhere"
    # untouched fields keep their file values
    assert cfg.train_cfg.lr == 0.05
    assert cfg.model_cfg.rank == 4


def test_config_hash_tracks_semantics_not_location(tmp_path):
    path = _write(tmp_path, BASE)
    base_hash = cli.load_config(path).config_hash()
    assert cli.load_config(path).config_hash() == base_hash
    assert cli.load_config(path, {"out": "b"}).config_hash() == base_hash
    assert cli.load_config(path, {"seed": 1}).config_hash() != base_hash
    assert cli.load_config(path, {"projection": False}).config_hash() != base_hash


# -- sweep flag parsing -------------------------------------------------------

def test_parse_sweep():
    assert cli._parse_sweep("epsilon=0.1,0.2") == ("epsilon", [0.1, 0.2])
    assert cli._parse_sweep("beta=0.5,0.7,0.9") == ("beta", [0.5, 0.7, 0.9])
    for bad in ("gamma=1,2", "epsilon=0.1", "epsilon=a,b", "epsilon", "=1,2"):
        with pytest.raises(cli.ConfigError):
            cli._parse_sweep(bad)


# -- commands end to end ------------------------------------------------------

@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_train_writes_report_and_checkpoints(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
    assert (out / "report.jsonl").exists()
    assert (out / "report.txt").exists()
    assert (out / "checkpoints" / "task_0.json").exists()
    assert (out / "checkpoints" / "task_1.json").exists()
    shown = capsys.readouterr().out
    assert "avg_acc=" in shown and "report:" in shown


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_train_reruns_are_byte_identical(tmp_path):
    path = _write(tmp_path, BASE)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", path, "--out", str(out_a)]) == 0
    assert cli.main(["train", "--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "report.jsonl").read_bytes() == (out_b / "report.jsonl").read_bytes()


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_ablate_writes_one_record_per_value(tmp_path, capsys):
    doc = _base(**{"data.scenario": "oil", "train.optimizer": "adam"})
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    rc = cli.main(["ablate", "--config", path, "--out", str(out),
                   "--sweep", "epsilon=0.0001,0.5"])
    assert rc == 0
    lines = (out / "ablation.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["record"] for r in records] == ["run", "run", "summary"]
    assert [r["value"] for r in records[:2]] == [0.0001, 0.5]
    assert "epsilon=0.0001" in capsys.readouterr().out


def test_ablate_rejects_bad_sweep(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    assert cli.main(["ablate", "--config", path, "--sweep", "gamma=1,2"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_report_round_trip(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    out = tmp_path / "out"
    cli.main(["train", "--config", path, "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["report", str(out / "report.jsonl")]) == 0
    shown = capsys.readouterr().out
    assert "avg_acc" in shown and "forgetting" in shown


def test_report_missing_file_is_a_runtime_error(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "nope.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a typo, and the three keys that were deleted from the schema
    for key in ("model.wdith", "model.lora_scale", "train.first_task_lr", "projection.buffer_cap"):
        path = _write(tmp_path, _base(**{key: 1}))
        assert cli.main(["train", "--config", path]) == 2
        assert f"config error: {key}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_load(config):
    assert isinstance(cli.load_config(CONFIGS / config), cli.RunConfig)


def test_verify_exit_codes(monkeypatch, capsys):
    rows = [{"name": "svd", "ok": True, "detail": "fine"}]
    monkeypatch.setattr(cli.ev, "verify_all", lambda: rows)
    assert cli.main(["verify"]) == 0
    assert "PASS svd: fine" in capsys.readouterr().out

    rows = [{"name": "svd", "ok": True, "detail": "fine"},
            {"name": "metrics", "ok": False, "detail": "off by 1"}]
    monkeypatch.setattr(cli.ev, "verify_all", lambda: rows)
    assert cli.main(["verify"]) == 1
    shown = capsys.readouterr().out
    assert "FAIL metrics: off by 1" in shown
    assert "1 properties failed: metrics" in shown


def test_argparse_rejects_missing_config():
    with pytest.raises(SystemExit):
        cli.main(["train"])
    with pytest.raises(SystemExit):
        cli.main(["ablate", "--config", "x.json"])
