"""Config loading, flag overrides, and end-to-end command behaviour."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import orthopet.cli as cli
import orthopet.trainer as tr
from orthopet.projection import EmptyBasisWarning

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

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
    readme = (ROOT / "README.md").read_text()
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


@pytest.mark.parametrize("key,value", [
    ("data.noise", float("nan")),
    ("data.separation", float("nan")),
    ("data.shift", float("nan")),
    ("projection.epsilon", float("nan")),
    ("projection.epsilon", float("inf")),
    ("train.lr", float("nan")),
])
def test_non_finite_float_values_exit_2(tmp_path, capsys, key, value):
    """Python's json reads the NaN and Infinity literals; a config that
    uses them is refused by name instead of running on a poisoned value."""
    path = _write(tmp_path, _base(**{key: value}))
    assert re.search(r"\b(NaN|Infinity)\b", Path(path).read_text())
    assert cli.main(["train", "--config", path]) == 2
    assert f"config error: {key.split('.')[1]} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("ratio", [1e308, -1e308])
def test_an_mlp_ratio_whose_hidden_size_overflows_exits_2(tmp_path, capsys, ratio):
    """A finite mlp_ratio can still make dim * mlp_ratio infinite."""
    assert cli.main(["train", "--config", _write(tmp_path, _base(**{"model.mlp_ratio": ratio}))]) == 2
    assert "config error: mlp_ratio must be finite, as must dim * mlp_ratio" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train"], ["ablate", "--sweep", "epsilon=0.1,0.2"]],
                         ids=["train", "ablate"])
def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "run.json"
    path.write_bytes(b'{"paradigm": "\xff\xfe"}')
    assert cli.main([*command, "--config", str(path)]) == 2
    assert f"config error: {path}: not valid JSON ('utf-8' codec can't decode" in capsys.readouterr().err


TOO_LARGE = [
    ("model.dim", 10**400, "model.dim: integer out of the 64-bit range"),
    ("data.feature_dim", 10**400, "data.feature_dim: integer out of the 64-bit range"),
    ("data.noise", 1e308, "noise must be finite and in [0, 1e+100], got 1e+308"),
    ("data.separation", 1e308, "separation must be finite and in (0, 1e+100], got 1e+308"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["train"], ["ablate", "--sweep", "epsilon=0.1,0.2"]],
                         ids=["train", "ablate"])
@pytest.mark.parametrize("key,value,message", TOO_LARGE, ids=[k for k, _, _ in TOO_LARGE])
def test_values_too_large_to_run_exit_2(tmp_path, capsys, command, key, value, message):
    """A size beyond int64 overflows `dim * mlp_ratio` or an array shape, and
    a noise or separation of 1e308 overflows the samples or the logits:
    each is refused by name before any data is generated."""
    path = _write(tmp_path, _base(**{key: value}))
    assert cli.main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_the_largest_noise_and_separation_train_cleanly(tmp_path):
    """At the bound, samples, logits and SVDs stay finite: no overflow warning."""
    doc = _base(**{"data.noise": cli.dm.MAX_SCALE, "data.separation": cli.dm.MAX_SCALE})
    assert cli.main(["train", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0


WRONG_TYPES = [
    ("train.projection", "off", 'train.projection: must be true or false, got "off"'),
    ("train.batch_size", True, "train.batch_size: must be an integer, got true"),
    ("model.mlp_ratio", float("inf"), "mlp_ratio must be finite"),
    ("model.dim", 32.0, "model.dim: must be an integer, got 32.0"),
    ("projection.sample_count", 2.5, "projection.sample_count: must be an integer, got 2.5"),
    ("train.seed", 0.5, "train.seed: must be an integer, got 0.5"),
    ("data.tasks", "2", 'data.tasks: must be an integer, got "2"'),
]


@pytest.mark.parametrize("key,value,message", WRONG_TYPES, ids=[k for k, _, _ in WRONG_TYPES])
def test_values_of_the_wrong_json_type_exit_2(tmp_path, capsys, key, value, message):
    """Each value must have the JSON type of its dataclass field; none is
    coerced, so a string "off" cannot run a projected stream."""
    path = _write(tmp_path, _base(**{key: value}))
    assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_type_check_keeps_json_numbers_and_null(tmp_path):
    """Float fields take JSON integers unconverted, so the config hash
    sees the file's own value; backbone_seed may be null."""
    cfg = cli.load_config(_write(tmp_path, _base(**{"model.mlp_ratio": 2, "data.noise": 0,
                                                    "train.backbone_seed": None})))
    assert type(cfg.model_cfg.mlp_ratio) is int and type(cfg.spec.noise) is int
    assert cfg.train_cfg.backbone_seed is None
    assert cfg.effective()["model"]["mlp_ratio"] == 2


def test_top_level_seed_fields_are_validated(tmp_path):
    for bad in (-1, "zero", True, 0.0):
        with pytest.raises(cli.ConfigError, match="data_seed"):
            cli.load_config(_write(tmp_path, {**BASE, "data_seed": bad}))
    for bad in ([], [0, -1], "0,1", [0, True], [False], [1.0]):
        with pytest.raises(cli.ConfigError, match="sweep_seeds"):
            cli.load_config(_write(tmp_path, {**BASE, "sweep_seeds": bad}))


def test_out_must_be_a_string(tmp_path, capsys):
    for bad in (5, None, ["runs"]):
        path = _write(tmp_path, {**BASE, "out": bad})
        assert cli.main(["train", "--config", path]) == 2
        assert "config error: out: must be a string" in capsys.readouterr().err


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
    assert cli._parse_sweep("projection=on,off") == ("projection", [True, False])
    for bad in ("gamma=1,2", "epsilon=0.1", "epsilon=a,b", "epsilon", "=1,2",
                "epsilon=nan,0.1", "epsilon=0.1,inf", "epsilon=-1,0.1", "beta=nan,0.5",
                "projection=on,maybe", "projection=on", "projection=1,0"):
        with pytest.raises(cli.ConfigError):
            cli._parse_sweep(bad)
    with pytest.raises(cli.ConfigError, match="epsilon, beta, projection"):
        cli._parse_sweep("gamma=1,2")


# -- commands end to end ------------------------------------------------------

@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_train_writes_report_and_checkpoints(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
    assert (out / "report.jsonl").exists()
    assert (out / "report.txt").exists()
    assert (out / "checkpoints" / "task_0.npz").exists()
    assert (out / "checkpoints" / "task_1.npz").exists()
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
    shown = capsys.readouterr().out
    assert "epsilon=0.0001" in shown
    # each value's seed means come with the per-seed lowest and highest
    seed = records[0]["per_seed"][0]
    assert (f"forgetting {records[0]['forgetting']:.4f} "
            f"(seeds {seed['forgetting']:.4f}-{seed['forgetting']:.4f})") in shown
    assert f"(seeds {seed['new_acc']:.4f}-{seed['new_acc']:.4f})" in shown


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_ablate_sweeps_the_projection_arm(tmp_path, capsys):
    path = _write(tmp_path, _base(**{"data.scenario": "oil"}))
    out = tmp_path / "out"
    rc = cli.main(["ablate", "--config", path, "--out", str(out),
                   "--sweep", "projection=on,off"])
    assert rc == 0
    text = (out / "ablation.jsonl").read_text()
    records = [json.loads(line) for line in text.splitlines()]
    assert [r["record"] for r in records] == ["run", "run", "summary"]
    assert [r["value"] for r in records[:2]] == [True, False]
    assert all(r["sweep"] == "projection" for r in records[:2])
    assert '"value": true' in text and '"value": false' in text
    shown = capsys.readouterr().out
    assert "projection=on: columns" in shown and "projection=off: columns" in shown


def test_ablate_rejects_bad_sweep(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    for bad in ("gamma=1,2", "projection=on,maybe", "projection=on", "projection=1,0"):
        assert cli.main(["ablate", "--config", path, "--sweep", bad]) == 2
        assert "config error: --sweep" in capsys.readouterr().err
    assert cli.main(["ablate", "--config", path, "--projection", "off",
                     "--sweep", "projection=on,off"]) == 2
    assert "config error: --projection" in capsys.readouterr().err
    assert cli.main(["ablate", "--config", path, "--sweep", "epsilon=nan,0.1"]) == 2
    assert "config error: --sweep: epsilon must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("paradigm", ["prompt", "prefix", "adapter", "lora"])
def test_ablate_sweeps_beta_only_over_a_merging_tensor(tmp_path, capsys, monkeypatch, paradigm):
    """Only a merging tensor's basis reads beta, so a beta sweep of any
    other paradigm would train identical rows: it exits 2 before training."""
    monkeypatch.setattr(cli, "cmd_ablate", lambda cfg, key, values: 0)
    path = _write(tmp_path, BASE)
    rc = cli.main(["ablate", "--config", path, "--paradigm", paradigm, "--sweep", "beta=0.3,0.9"])
    if paradigm == "prompt":
        assert rc == 0
    else:
        assert rc == 2
        assert (f"config error: --sweep: beta only acts on a merging tensor, and {paradigm} has none"
                in capsys.readouterr().err)


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


# Reports and checkpoints carry these; validation must not move them.
SHIPPED_CONFIG_HASHES = {
    "ablation_lora.json": "4e5d429e06d7d923792c6e45ef427be7d85e2591901893290f6b6d209e6c1393",
    "cil_prompt.json": "f3fcdbefcd0dad169cad0b9638adaed6f0a0722ca9d0ebcef4f9856238a382b8",
    "oil_lora.json": "fcd5167f75e88421b5073c981288079b8958809404b00899d85caebf7de5b2a8",
}


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_load(config):
    cfg = cli.load_config(CONFIGS / config)
    assert isinstance(cfg, cli.RunConfig)
    assert cfg.config_hash() == SHIPPED_CONFIG_HASHES[config]


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


def test_verify_runs_every_property(verify_stdout):
    """The real suite, checks unstubbed: one PASS row per entry of
    `eval.PROPERTIES`, in table order.  `test_golden` hashes the same
    stdout."""
    code, out = verify_stdout
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"PASS {p[0]}" for p in cli.ev.PROPERTIES]
    assert lines[-1] == "all 15 properties hold"


def _fresh(code, *args, timeout=60, environ=os.environ):
    """Run `code` in a fresh interpreter that imports orthopet from this
    checkout, with `args` as its `sys.argv[1:]` and `environ` as its
    environment."""
    env = {**environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_the_commands_do_not_import_scipy():
    """scipy is a test dependency only: a fresh interpreter that imports the
    CLI, the verify suite and the trainer and prints `orthopet --help` has
    not loaded it."""
    code = ("import sys\n"
            "import orthopet.cli, orthopet.eval, orthopet.trainer\n"
            "try:\n"
            "    orthopet.cli.main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = _fresh(code)
    assert done.returncode == 0, done.stderr
    assert "usage: orthopet" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"


def test_a_pool_map_imports_no_executor_machinery():
    """A fresh interpreter that forks a two-worker pool and maps over it
    has loaded none of the modules a process-pool executor brings."""
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from orthopet import workers\n"
            "with workers.pool(2) as run:\n"
            "    assert run is not workers.inline\n"
            "    assert run(abs, [-1, -2]) == [1, 2]\n"
            "names = ('concurrent.futures', 'multiprocessing', 'logging', 'socket', 'subprocess')\n"
            "print(sorted(m for m in sys.modules if m in names))\n")
    done = _fresh(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]"]


def _every_process(tmp_path, loaded, then=""):
    """A fresh interpreter trains a tiny prompt and a tiny LoRA config and
    runs a data-generating `verify` check, each on a two-worker pool, then
    runs `then`.  `loaded` is an expression that is true in a process
    holding what no orthopet process may hold: every rebuild job asserts
    it false after its SVD, and the output ends with `workers [...]`, its
    value in each check's worker, and `parent ...`, its value in the
    parent, before what `then` prints."""
    paths = [_write(tmp_path, _base(paradigm=p), name=f"{p}.json") for p in ("prompt", "lora")]
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "import orthopet.cli as cli, orthopet.eval as ev, orthopet.projection as pj\n"
            "from orthopet import workers\n"
            "def loaded():\n"
            f"    return {loaded}\n"
            "factor = pj.svd_factors\n"
            "def checked(rows):\n"
            "    out = factor(rows)\n"
            f"    assert not loaded(), 'a rebuild worker: ' + {loaded!r}\n"
            "    return out\n"
            "def check(paradigm):\n"
            "    ev.orthogonality_check(paradigm)\n"
            "    return loaded()\n"
            "pj.svd_factors = checked\n"
            "for path in sys.argv[1:]:\n"
            "    assert cli.main(['train', '--config', path, '--out', path + '.out']) == 0\n"
            "with workers.pool(2) as run:\n"
            "    assert run is not workers.inline\n"
            "    print('workers', run(check, ['prefix', 'lora']))\n"
            "print('parent', loaded())\n"
            + then)
    return _fresh(code, *paths, timeout=120)


def test_no_process_loads_numpy_ma(tmp_path):
    """No process loads `numpy.ma` (numpy's `unique` would, at its first
    call): not the parent, a rebuild worker or a `verify` check's worker."""
    done = _every_process(tmp_path, "'numpy.ma' in sys.modules")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["workers [False, False]", "parent False"]


SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_no_process_maps_libcrypto(tmp_path):
    """numpy.random imports secrets, hmac and `_hashlib`, which maps
    OpenSSL's libcrypto; importing `orthopet.cli` first keeps it out of the
    parent, every rebuild worker and every `verify` check's worker, and
    `hashlib` still gives sha256's bits."""
    held = ("sys.modules.get('_hashlib') is not None "
            "or any('libcrypto' in line for line in open('/proc/self/maps'))")
    done = _every_process(tmp_path, held, then="import hashlib\nprint(hashlib.sha256(b'abc').hexdigest())\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-3:] == ["workers [False, False]", "parent False", SHA256_ABC]


def test_the_hashlib_guard_leaves_a_loaded_hashlib_alone():
    """A host that loaded OpenSSL's `_hashlib` keeps it, with the functions
    only OpenSSL gives, after it imports `orthopet.cli`."""
    code = ("import hashlib, sys\n"
            "import orthopet.cli\n"
            "assert sys.modules['_hashlib'].__name__ == '_hashlib'\n"
            "assert hashlib.pbkdf2_hmac.__module__ == '_hashlib' and hasattr(hashlib, 'scrypt')\n")
    done = _fresh(code)
    assert done.returncode == 0, done.stderr


def test_config_hashes_do_not_depend_on_the_hashlib_guard():
    """Every shipped config hashes the same with the builtin sha256, where
    the guard took effect, as with OpenSSL's, where `hashlib` came first."""
    code = ("import json, sys\n"
            "from pathlib import Path\n"
            "if sys.argv[1] == 'openssl':\n"
            "    import hashlib\n"
            "import orthopet.cli as cli\n"
            "assert (sys.modules['_hashlib'] is None) == (sys.argv[1] == 'builtin')\n"
            "print(json.dumps({p.name: cli.load_config(p).config_hash()\n"
            "                  for p in sorted(Path(sys.argv[2]).glob('*.json'))}))\n")
    for side in ("builtin", "openssl"):
        done = _fresh(code, side, str(CONFIGS))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == SHIPPED_CONFIG_HASHES, side


@pytest.mark.parametrize("setting", [None, "2"])
def test_the_cli_forks_without_openblas_threads(setting, tmp_path):
    """Importing `orthopet.cli` before numpy sets `OPENBLAS_NUM_THREADS=1`
    unless the environment already sets it, so a train's process has one
    thread at every fork of its two-worker pool; an explicit setting is
    kept, and OpenBLAS starts that many threads.  (OpenBLAS stops its
    threads before a fork, so a later fork can see fewer.)"""
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "import orthopet.cli as cli\n"
            "threads, fork = [], os.fork\n"
            "def counted():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        threads.append(next(int(line.split()[1]) for line in fh if line.startswith('Threads:')))\n"
            "    return fork()\n"
            "os.fork = counted\n"
            "assert cli.main(['train', '--config', sys.argv[1], '--out', sys.argv[1] + '.out']) == 0\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], *threads)\n")
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        environ["OPENBLAS_NUM_THREADS"] = setting
    done = _fresh(code, _write(tmp_path, _base(paradigm="lora")), environ=environ, timeout=120)
    assert done.returncode == 0, done.stderr
    kept, *threads = done.stdout.splitlines()[-1].split()
    if setting is None:
        assert (kept, threads) == ("1", ["1", "1"])
    else:
        assert kept == setting and len(threads) == 2
        if len(os.sched_getaffinity(0)) >= 2:
            assert max(map(int, threads)) == 2


def test_readme_commands_parse():
    """Every `orthopet ...` line in a README code block parses, its
    `--sweep` is valid and the configs it names exist."""
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    lines = [line.strip() for block in blocks for line in block.splitlines()
             if line.strip().startswith("orthopet ")]
    assert any("--sweep projection=on,off" in line for line in lines)
    for line in lines:
        args = cli._build_parser().parse_args(shlex.split(line)[1:])
        if getattr(args, "sweep", None) is not None:
            cli._parse_sweep(args.sweep)
        for name in re.findall(r"configs/\S+\.json", line):
            assert (ROOT / name).is_file(), line


def test_argparse_rejects_missing_config():
    with pytest.raises(SystemExit):
        cli.main(["train"])
    with pytest.raises(SystemExit):
        cli.main(["ablate", "--config", "x.json"])


# -- train --resume -----------------------------------------------------------

RESUME_TASKS = 4


def _resume_config(tmp_path, paradigm):
    doc = _base(**{"data.tasks": RESUME_TASKS, "model.num_classes": 2 * RESUME_TASKS})
    doc["paradigm"] = paradigm
    return _write(tmp_path, doc, name=f"resume_{paradigm}.json")


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """One full run per paradigm: its config path and output directory."""
    runs = {}
    for paradigm in ("lora", "prompt"):
        root = tmp_path_factory.mktemp(f"full_{paradigm}")
        path = _resume_config(root, paradigm)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyBasisWarning)
            assert cli.main(["train", "--config", path, "--out", str(root / "out")]) == 0
        runs[paradigm] = (path, root / "out")
    return runs


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
@pytest.mark.parametrize("paradigm", ["lora", "prompt"])
@pytest.mark.parametrize("k", range(RESUME_TASKS - 1))
def test_resume_after_every_task_reproduces_the_run(uninterrupted, tmp_path, monkeypatch, paradigm, k):
    """Stop after task k, resume: the report and every later checkpoint
    match the run that was never interrupted.  Every prompt task after
    the first is frozen (its merged basis has no column), so the prompt
    runs resume through the head-only path; no LoRA task is frozen."""
    path, full = uninterrupted[paradigm]
    out = tmp_path / "out"
    (out / "checkpoints").mkdir(parents=True)
    for t in range(k + 1):
        shutil.copy(full / "checkpoints" / f"task_{t}.npz", out / "checkpoints")
    frozen, seen = tr.frozen, []
    monkeypatch.setattr(tr, "frozen", lambda *args: seen.append(frozen(*args)) or seen[-1])
    assert cli.main(["train", "--config", path, "--out", str(out), "--resume"]) == 0
    assert seen == [paradigm == "prompt"] * (RESUME_TASKS - 1 - k)
    assert (out / "report.jsonl").read_bytes() == (full / "report.jsonl").read_bytes()
    for t in range(k + 1, RESUME_TASKS):
        name = f"task_{t}.npz"
        assert (out / "checkpoints" / name).read_bytes() == (full / "checkpoints" / name).read_bytes()


def test_resume_refuses_another_config(uninterrupted, tmp_path, capsys):
    path, full = uninterrupted["lora"]
    out = tmp_path / "out"
    (out / "checkpoints").mkdir(parents=True)
    shutil.copy(full / "checkpoints" / "task_0.npz", out / "checkpoints")
    rc = cli.main(["train", "--config", path, "--out", str(out), "--resume", "--seed", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--resume:" in err and "task_0.npz was written by config" in err
    assert not (out / "report.jsonl").exists()


def test_resume_refuses_a_state_without_a_site_buffer(uninterrupted, tmp_path, capsys):
    path, full = uninterrupted["prompt"]
    out = tmp_path / "out"
    (out / "checkpoints").mkdir(parents=True)
    with np.load(full / "checkpoints" / "task_0.npz") as data:
        members = {name: data[name] for name in data.files if name != "buffer/embed"}
    np.savez(out / "checkpoints" / "task_0.npz", **members)
    assert cli.main(["train", "--config", path, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert "--resume:" in err
    assert "its buffers do not fit a prompt model of depth 2: missing ['embed'], extra []" in err
    assert not (out / "report.jsonl").exists()


@pytest.mark.parametrize("member, shape, message", [
    ("pet/lora_q_up.0", (16, 16), "its tensor lora_q_up.0 has shape (16, 16), not (4, 16)"),
    ("buffer/attn_in.0", (5, 8), "its buffer attn_in.0 has shape (5, 8), not (5, 16)"),
], ids=["tensor", "buffer"])
def test_resume_refuses_a_state_whose_shapes_do_not_fit(uninterrupted, tmp_path, capsys,
                                                         member, shape, message):
    """An array under the right key but of the wrong shape exits 2 through
    the `--resume:` path, naming the key and both shapes."""
    path, full = uninterrupted["lora"]
    out = tmp_path / "out"
    (out / "checkpoints").mkdir(parents=True)
    with np.load(full / "checkpoints" / "task_0.npz") as data:
        members = {name: data[name] for name in data.files}
    members[member] = np.zeros(shape)
    np.savez(out / "checkpoints" / "task_0.npz", **members)
    assert cli.main(["train", "--config", path, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert "--resume:" in err
    assert message in err
    assert not (out / "report.jsonl").exists()


def _members(change):
    """An edit that rewrites the saved checkpoint's members through `change`."""
    def edit(src, dest):
        with np.load(src) as data:
            members = {name: data[name] for name in data.files}
        change(members)
        np.savez(dest, **members)
    return edit


def _meta(key, value=None):
    """Set meta `key` to `value`, or drop it when `value` is None."""
    def change(members):
        meta = json.loads(str(members["meta"]))
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        members["meta"] = np.array(json.dumps(meta, sort_keys=True))
    return _members(change)


def _member(name, value=None):
    """Set member `name` to `value`, or drop it when `value` is None."""
    def change(members):
        if value is None:
            del members[name]
        else:
            members[name] = value
    return _members(change)


def _junk(name):
    """An edit that replaces the bytes of member `name` with bytes that are
    no `.npy` array, which `np.load` hands back as they are."""
    def edit(src, dest):
        with zipfile.ZipFile(src) as old, zipfile.ZipFile(dest, "w") as new:
            for info in old.infolist():
                new.writestr(info, b"junk" if info.filename == f"{name}.npy" else old.read(info))
    return edit


def _cut(keep):
    """An edit that keeps the first `keep` bytes of the saved file."""
    def edit(src, dest):
        dest.write_bytes(src.read_bytes()[:keep])
    return edit


def _replace(write):
    """An edit that puts what `write(dest)` makes in place of the saved file."""
    return lambda src, dest: write(dest)


def _bare_head(src, dest):
    """The saved head's `.npy` member on its own, outside any zip."""
    with zipfile.ZipFile(src) as zf:
        dest.write_bytes(zf.read("head.npy"))


def _flip_zip_version(src, dest):
    """Flip every bit of the version the first central directory entry
    needs to extract."""
    data = bytearray(src.read_bytes())
    with zipfile.ZipFile(src) as zf:
        data[zf.start_dir + 6] ^= 0xFF
    dest.write_bytes(bytes(data))


def _refuse_edited(uninterrupted, tmp_path, capsys, edit, message):
    """Resume from an edited copy of the lora run's first checkpoint: it
    exits 2 through `--resume:`, naming the file and `message`."""
    path, full = uninterrupted["lora"]
    out = tmp_path / "out"
    (out / "checkpoints").mkdir(parents=True)
    edit(full / "checkpoints" / "task_0.npz", out / "checkpoints" / "task_0.npz")
    assert cli.main(["train", "--config", path, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert f"--resume: {out / 'checkpoints' / 'task_0.npz'}: " in err
    assert message in err
    assert not (out / "report.jsonl").exists()


@pytest.mark.parametrize("edit, message", [
    (_meta("version", 5), "unsupported checkpoint version 5"),
    (_member("head", np.array([{"not": "an array"}], dtype=object)), "allow_pickle"),
    (_member("buffer/attn_in.0", np.array(1.0)), "its buffer attn_in.0 has shape (), not (rows, width)"),
    (_member("buffer/attn_in.0", np.zeros(5)), "its buffer attn_in.0 has shape (5,), not (rows, width)"),
    (_cut(0), "it is not a readable .npz file"),
    (_cut(1000), "it is not a readable .npz file"),
    (_meta("task_index"), "its meta has no key task_index"),
    (_member("head"), "it has no member head"),
    (_meta("rng_states", {"shuffle": {}}), "its meta rng_states has no state for sampling"),
    (_meta("accuracy_rows", "[[0.5]]"), 'its meta accuracy_rows is "[[0.5]]", not of type list'),
    (_meta("accuracy_rows", [[0.5, 0.5]]), "its meta accuracy_rows is [[0.5, 0.5]], not task_index + 1 rows"),
    (_meta("config_hash", 5), "its meta config_hash is 5, not of type str"),
    (_member("meta", np.array("not json")), "its meta is not JSON (Expecting value"),
    (_junk("head"), "its head is not an array"),
    (_junk("pet/lora_q_up.0"), "its tensor lora_q_up.0 is not an array"),
    (_junk("buffer/attn_in.0"), "its buffer attn_in.0 is not an array"),
    (_bare_head, "it is not a readable .npz file (File is not a zip file)"),
    (_replace(Path.mkdir), "it is not a readable .npz file ([Errno 21] Is a directory"),
    (_flip_zip_version, "it is not a readable .npz file (zip file version 21.0)"),
    (_replace(lambda dest: dest.write_text("plain text\n")), "it is not a readable .npz file"),
    (_replace(lambda dest: dest.write_text("{garbage")), "it is not a readable .npz file"),
], ids=["version", "pickled", "0-d-buffer", "1-d-buffer", "empty-file", "truncated-file",
        "no-task-index", "no-head", "no-sampling-state", "string-accuracy-rows",
        "ragged-accuracy-rows", "int-config-hash", "meta-not-json", "junk-head",
        "junk-tensor", "junk-buffer", "bare-npy", "directory", "zip-version", "plain-text",
        "brace-garbage"])
def test_resume_refuses_an_unreadable_checkpoint(uninterrupted, tmp_path, capsys, edit, message):
    """A checkpoint `load_checkpoint` refuses exits 2 through `--resume:`,
    naming the file and what is wrong with it."""
    _refuse_edited(uninterrupted, tmp_path, capsys, edit, message)


@pytest.mark.parametrize("edit, message", [
    (_member("buffer/attn_in.0", np.zeros((0, 16))), "its buffer attn_in.0 has no rows"),
    (_member("buffer/attn_in.0", np.full((5, 16), np.nan)),
     "its buffer attn_in.0 holds a value that is not finite"),
    (_member("pet/lora_v_up.1", np.full((4, 16), np.inf)),
     "its tensor lora_v_up.1 holds a value that is not finite"),
    (_member("head", np.zeros((16, 8), dtype=np.int64)), "its head is int64, not float64"),
    (_meta("rng_states", {"sampling": {"bit_generator": "MT19937"}, "shuffle": {}}),
     "its rng state sampling does not load into PCG64"),
], ids=["empty-buffer", "nan-buffer", "inf-tensor", "int-head", "bad-rng-state"])
def test_resume_refuses_a_state_the_run_cannot_use(uninterrupted, tmp_path, capsys, edit, message):
    """A state that would fail inside `continual_run` is refused by
    `load_checkpoint` before the run starts, naming the key."""
    _refuse_edited(uninterrupted, tmp_path, capsys, edit, message)


def test_resume_refuses_an_empty_directory(tmp_path, capsys):
    path = _resume_config(tmp_path, "lora")
    out = tmp_path / "out"
    (out / "checkpoints").mkdir(parents=True)
    # a version-3 checkpoint is not a candidate, nor a name a run never writes
    (out / "checkpoints" / "task_0.json").write_text("{}")
    (out / "checkpoints" / "task_01.npz").write_bytes(b"")
    assert cli.main(["train", "--config", path, "--out", str(out), "--resume"]) == 2
    assert "--resume: no task_<t>.npz checkpoint under" in capsys.readouterr().err


def test_resume_refuses_a_finished_run(uninterrupted, capsys):
    path, full = uninterrupted["lora"]
    before = (full / "report.jsonl").read_bytes()
    assert cli.main(["train", "--config", path, "--out", str(full), "--resume"]) == 2
    err = capsys.readouterr().err
    last = RESUME_TASKS - 1
    assert f"task_{last}.npz: task {last} is the last of {RESUME_TASKS} tasks" in err
    assert "every task is already done" in err
    assert (full / "report.jsonl").read_bytes() == before
