"""Tests of the benchmark's own code: the span tracer, the output checks and
the agreement between run.py and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from orthopet import cli, linalg  # noqa: E402
from orthopet.projection import FeatureBuffer  # noqa: E402

# Two short tasks: enough for projection, buffers, SVDs and checkpoints.
SMALL_CONFIG = {
    "paradigm": "prompt",
    "model": {"dim": 8, "depth": 1, "heads": 2, "mlp_ratio": 2.0, "seq_len": 2,
              "num_classes": 4, "prompt_len": 3},
    "data": {"scenario": "cil", "tasks": 2, "classes_per_task": 2,
             "samples_per_class": 10, "feature_dim": 8, "noise": 0.1, "separation": 8.0},
    "train": {"epochs": 1, "batch_size": 4, "lr": 0.03, "optimizer": "sgd",
              "seed": 0, "backbone_seed": 0},
    "projection": {"epsilon": 0.02, "sample_count": 4},
    "data_seed": 0,
}


def _originals():
    return [getattr(*tracer.resolve(module, attr)) for module, attr, _ in tracer.TARGETS]


def test_svd_recursion_counts_once():
    rng = np.random.default_rng(0)
    with tracer.Tracer() as t:
        linalg.svd(rng.normal(size=(8, 32)))  # wide: svd recurses on the transpose
        linalg.svd(rng.normal(size=(6, 4)))
    table = t.spans()
    svd_spans = [ix for ix in table["name_ix"] if table["names"][ix] == "linalg.svd"]
    assert len(svd_spans) == 3
    layers = tracer.layer_metrics(table)
    assert layers["linalg.svd_calls"] == 2
    assert layers["linalg.svd_input_elems"] == 8 * 32 + 6 * 4
    assert layers["linalg.svd_s"] > 0.0


def test_tracer_is_transparent(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    before = _originals()
    add = FeatureBuffer.add

    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "plain")]) == 0
    t0 = time.monotonic_ns()
    with tracer.Tracer() as t:
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "traced")]) == 0
    wall_ns = time.monotonic_ns() - t0

    plain = (tmp_path / "plain" / "report.jsonl").read_bytes()
    assert (tmp_path / "traced" / "report.jsonl").read_bytes() == plain
    assert all(a is b for a, b in zip(_originals(), before))
    assert FeatureBuffer.add is add

    table = t.spans()
    own = tracer.self_ns(table)
    assert (own >= 0).all()
    assert own.sum() <= wall_ns
    layers = tracer.layer_metrics(table)
    assert layers["backbone.forward_calls"] > layers["backbone.backward_calls"] > 0
    assert layers["checkpoint.save_calls"] == 2
    assert layers["checkpoint.bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "traced" / "checkpoints").iterdir()
    )
    assert layers["projection.buffer_add_s"] > 0.0


def test_benchmark_json_matches_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.layer_unit(name) for name in [*run.TRACE_METRICS, *tracer.LAYER_METRICS]
    }


def _rep(tmp_path, mode="run", rc=0, stdout=""):
    rep_dir = tmp_path / "rep"
    rep_dir.mkdir()
    (rep_dir / "stdout.txt").write_text(stdout)
    return {"mode": mode, "rc": rc, "dir": str(rep_dir), "orthopet": None,
            "setup_s": 0.1, "run_s": 1.0}


def test_verify_output_is_checked(tmp_path):
    good = _rep(tmp_path, stdout="PASS svd: ...\nall 15 properties hold\n")
    assert run.check_rep("verify", good, None) == []
    shutil.rmtree(tmp_path / "rep")
    bad = _rep(tmp_path, stdout="PASS svd: ...\nall 14 properties hold\n")
    assert run.check_rep("verify", bad, None) == ["verify ended with 'all 14 properties hold'"]
    shutil.rmtree(tmp_path / "rep")
    failed = _rep(tmp_path, rc=1, stdout="FAIL svd: ...\n1 properties failed: svd\n")
    assert run.check_rep("verify", failed, None) == ["exit code 1"]


def test_train_report_is_checked(tmp_path):
    rep = _rep(tmp_path)
    report = tmp_path / "rep" / "out" / "report.jsonl"
    report.parent.mkdir()
    report.write_text('{"avg_acc": NaN, "config_hash": "h", "forgetting": 0.1, '
                      '"new_acc": 1.0, "record": "run"}\n')
    errors = run.check_rep("oil_lora", rep, "h")
    assert errors == ["report.jsonl lacks its run or summary record"]
    report.write_text(report.read_text() + '{"mean_avg_acc": NaN, "mean_forgetting": 0.1, '
                      '"mean_new_acc": 1.0, "record": "summary", "runs": 1}\n')
    assert run.check_rep("oil_lora", rep, "other") == [
        "report.jsonl has a non-finite metric", "report.jsonl names another config hash",
    ]
    assert rep["report_sha256"] == hashlib.sha256(report.read_bytes()).hexdigest()


def test_report_bytes_must_repeat(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    reps = [{"report_sha256": sha, "errors": []} for sha in ("a" * 64, "a" * 64, "b" * 64)]
    run.check_determinism("oil_lora", 3, reps, "src")
    assert [bool(r["errors"]) for r in reps] == [False, False, True]
    later = [{"report_sha256": "b" * 64, "errors": []}]
    run.check_determinism("oil_lora", 3, later, "src")
    assert later[0]["errors"]
    other_tree = [{"report_sha256": "b" * 64, "errors": []}]
    run.check_determinism("oil_lora", 3, other_tree, "changed-src")
    assert other_tree[0]["errors"] == []


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
