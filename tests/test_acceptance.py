"""Acceptance gate: every shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
the gate takes several minutes because criteria 5-7 train real benchmark
grids.  Each check prints its CRITERION line before asserting, so the
verdict is visible either way.

The step-size criterion (4) judges each paradigm by the guarantee its
projected step carries, with the same predicate `orthopet verify` uses
(`eval.eta_scaling_ok`).  Adapter and LoRA factors must show second-order
projected drift (halving ratio 3.2-4.8).  Prompt and prefix rows keep a
first-order path through the attention key and value slots (see the eval
module notes), so their projected ratio sits near 2 by construction; they
must instead show projected drift strictly below unprojected drift at the
same step.  Every paradigm's unprojected ratio must sit in 1.6-2.4.
"""

import json
import time
from pathlib import Path

import pytest

import orthopet.cli as cli
import orthopet.eval as ev
import orthopet.metrics as mt
import orthopet.pet as pm

pytestmark = pytest.mark.filterwarnings(
    "ignore::orthopet.projection.EmptyBasisWarning")

SEEDS = [0, 1, 2, 3, 4]

# The benchmark settings of criteria 5-7 are the shipped configs.
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config(name, **overrides) -> cli.RunConfig:
    return cli.load_config(CONFIGS / name, overrides)


def _verdict(num, name, ok, detail) -> bool:
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    return ok


def _sweep(run, key, values):
    """`ev.ablation_sweep` over SEEDS on one config's benchmark."""
    return ev.ablation_sweep(run.stream(), run.model_cfg, run.paradigm, run.train_cfg,
                             key, values, SEEDS)


def _seed_ranges(rows, key, sep) -> str:
    """Each row's per-seed lowest-highest `key`, joined by `sep`."""
    return sep.join("{:.4f}-{:.4f}".format(*ev.seed_range(r, key)) for r in rows)


def _on_off(rows, key) -> str:
    """Seed means of `key`, projection on vs off, with each arm's seed range."""
    on, off = rows
    return f"{on[key]:.4f} vs {off[key]:.4f} (seeds {_seed_ranges(rows, key, ' vs ')})"


def test_criterion_1_svd_suite():
    t0 = time.perf_counter()
    res = ev.svd_suite(seeds_per_class=100)
    elapsed = time.perf_counter() - t0
    ok = (res["reconstruction"] <= 1e-10 and res["orthogonality"] <= 1e-10
          and res["projector"] <= 1e-9 and elapsed < 30.0)
    assert _verdict(1, "svd suite", ok, (
        f"recon {res['reconstruction']:.2e}, factors {res['orthogonality']:.2e}, "
        f"projector-vs-lapack {res['projector']:.2e}, {elapsed:.1f}s (budget 30s)"
    ))


def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    errs = {p: ev.gradient_check(p) for p in pm.PARADIGMS}
    elapsed = time.perf_counter() - t0
    ok = max(errs.values()) <= 1e-4 and elapsed < 120.0
    assert _verdict(2, "gradient checks", ok, (
        ", ".join(f"{p} {e:.2e}" for p, e in errs.items())
        + f", {elapsed:.1f}s (budget 120s)"
    ))


def test_criterion_3_projected_gradient_orthogonality():
    res = {p: ev.orthogonality_check(p, epsilon=1e-10) for p in pm.PARADIGMS}
    overlap = max(r["max_overlap"] for r in res.values())
    idem = max(r["idempotence"] for r in res.values())
    ok = overlap <= 1e-9 and idem <= 1e-12
    assert _verdict(3, "feature orthogonality", ok, (
        f"max relative overlap {overlap:.2e} (budget 1e-9), "
        f"projector idempotence {idem:.2e} (budget 1e-12)"
    ))


def test_criterion_4_step_size_scaling():
    res = {p: ev.eta_scaling_probe(p) for p in pm.PARADIGMS}
    verdicts = {p: ev.eta_scaling_ok(p, r) for p, r in res.items()}
    parts = []
    for p, r in res.items():
        second_order = p in ev.SECOND_ORDER_PARADIGMS
        guarantee = ("second order: ratios in 3.2-4.8/1.6-2.4" if second_order else
                     "drift reduction: projected < unprojected drift, unprojected ratio in 1.6-2.4")
        part = (f"{p} {'ok' if verdicts[p] else 'FAILS'} [{guarantee}]: "
                f"ratios {r['proj_ratio']:.2f}/{r['unproj_ratio']:.2f}")
        if not second_order:
            part += f", drift {r['proj_drift']:.3g} vs {r['unproj_drift_matched']:.3g}"
        parts.append(part)
    assert _verdict(4, "step-size scaling", all(verdicts.values()), (
        "; ".join(parts)
        + " (projected/unprojected halving ratios; drifts projected vs "
        "unprojected at the projected step)"
    ))


def test_criterion_5_cil_forgetting_reduction():
    t0 = time.perf_counter()
    rows = _sweep(_config("cil_prompt.json"), "projection", [True, False])
    elapsed = time.perf_counter() - t0
    on, off = rows
    reduction = 1.0 - on["forgetting"] / off["forgetting"]
    ok = reduction >= 0.30 and on["avg_acc"] >= off["avg_acc"] - 0.01 and elapsed < 600.0
    assert _verdict(5, "cil forgetting reduction", ok, (
        f"forgetting {_on_off(rows, 'forgetting')}, reduction {reduction:+.1%}, "
        f"avg_acc {_on_off(rows, 'avg_acc')}, grid {elapsed:.0f}s (budget 600s)"
    ))


def test_criterion_6_oil_single_epoch():
    details, ok = [], True
    for paradigm in ("adapter", "lora"):
        rows = _sweep(_config("oil_lora.json", paradigm=paradigm), "projection", [True, False])
        on, off = rows
        ok = ok and on["forgetting"] < off["forgetting"]
        details.append(f"{paradigm} forgetting {_on_off(rows, 'forgetting')}, "
                       f"avg_acc {_on_off(rows, 'avg_acc')}")
    assert _verdict(6, "oil forgetting", ok,
                    "; ".join(details) + " (projection on vs off, seed means)")


def test_criterion_7_basis_size_sweep(ablation_report):
    rows, _ = mt.load_report(ablation_report)
    assert [r["value"] for r in rows] == [0.6, 0.15, 1e-4]
    cols = [r["basis_columns"] for r in rows]
    fgt = [r["forgetting"] for r in rows]
    new = [r["new_acc"] for r in rows]
    shrinking = cols[0] > cols[1] > cols[2]
    fgt_ok = fgt[0] >= fgt[1] >= fgt[2]
    new_ok = new[0] <= new[1] <= new[2]
    ties = sum(a == b for a, b in zip(fgt, fgt[1:]))
    ties += sum(a == b for a, b in zip(new, new[1:]))
    ok = shrinking and fgt_ok and new_ok and ties <= 1
    assert _verdict(7, "basis-size sweep", ok, (
        f"columns {cols[0]:.1f}/{cols[1]:.1f}/{cols[2]:.1f}, "
        f"forgetting {fgt[0]:.4f}/{fgt[1]:.4f}/{fgt[2]:.4f} "
        f"(seeds {_seed_ranges(rows, 'forgetting', '/')}), "
        f"new_acc {new[0]:.4f}/{new[1]:.4f}/{new[2]:.4f} "
        f"(seeds {_seed_ranges(rows, 'new_acc', '/')}), {ties} ties"
    ))


def test_criterion_8_metrics_oracle():
    res = ev.metrics_oracle_check(trials=1000)
    ok = res["max_error"] <= 1e-15 and res["hand_case_ok"]
    assert _verdict(8, "metrics oracle", ok, (
        f"max formula error {res['max_error']:.2e} over 1000 matrices, "
        f"hand case {'ok' if res['hand_case_ok'] else 'wrong'}"
    ))


def test_criterion_9_deterministic_reports(tmp_path):
    doc = {
        "paradigm": "adapter",
        "model": {"dim": 16, "depth": 2, "heads": 2, "mlp_ratio": 2.0,
                  "seq_len": 4, "num_classes": 4, "prompt_len": 4,
                  "prefix_len": 4, "rank": 4},
        "data": {"scenario": "cil", "tasks": 2, "classes_per_task": 2,
                 "samples_per_class": 40, "feature_dim": 64, "noise": 0.1,
                 "separation": 4.0},
        "train": {"epochs": 2, "batch_size": 8, "lr": 0.05,
                  "optimizer": "adam", "seed": 0, "backbone_seed": 0},
        "projection": {"epsilon": 0.02, "sample_count": 8},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = cli.main(["train", "--config", str(path), "--out", str(out_a)])
    rc_b = cli.main(["train", "--config", str(path), "--out", str(out_b)])
    bytes_a = (out_a / "report.jsonl").read_bytes()
    bytes_b = (out_b / "report.jsonl").read_bytes()
    text_same = (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()
    ok = rc_a == 0 and rc_b == 0 and bytes_a == bytes_b and text_same
    assert _verdict(9, "deterministic reports", ok, (
        f"report.jsonl {'byte-identical' if bytes_a == bytes_b else 'differs'} "
        f"across reruns ({len(bytes_a)} bytes)"
    ))
