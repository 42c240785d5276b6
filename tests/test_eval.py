"""Sweep runner contract and the runtime property-check suite."""

import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import orthopet.backbone as bb
import orthopet.data as dm
import orthopet.eval as ev
import orthopet.linalg as linalg
import orthopet.metrics as mt
import orthopet.pet as pm
import orthopet.projection as pj
import orthopet.rng as rng_mod
import orthopet.trainer as tr

MODEL = bb.TransformerConfig(dim=16, depth=2, heads=2, mlp_ratio=2.0, seq_len=4,
                             num_classes=4, prompt_len=4, prefix_len=4, rank=4)
DATA = dm.ScenarioSpec(scenario="oil", tasks=2, classes_per_task=2,
                       samples_per_class=20, feature_dim=64, noise=0.1,
                       separation=4.0)
CFG = tr.TrainConfig(epochs=1, batch_size=8, lr=0.05, optimizer="adam",
                     scenario="oil", seed=0, backbone_seed=0,
                     proj=pj.ProjectionConfig(sample_count=8))
STREAM = dm.gen_stream(DATA, dm.make_tokenizer(DATA.feature_dim, MODEL.seq_len, MODEL.dim, 0), 0)


# -- ablation sweeps ---------------------------------------------------------

def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError, match=re.escape(f"one of {ev.SWEEP_KEYS}")):
        ev.ablation_sweep(STREAM, MODEL, "adapter", CFG, "gamma", [0.1, 0.2], [0])
    with pytest.raises(ValueError, match="two values"):
        ev.ablation_sweep(STREAM, MODEL, "adapter", CFG, "epsilon", [0.1], [0])
    with pytest.raises(ValueError, match="one seed"):
        ev.ablation_sweep(STREAM, MODEL, "adapter", CFG, "epsilon", [0.1, 0.2], [])


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_sweep_identical_values_give_identical_rows():
    rows = ev.ablation_sweep(STREAM, MODEL, "adapter", CFG, "epsilon",
                             [0.25, 0.25], [0, 1])
    a, b = rows
    assert a == b


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_sweep_epsilon_widens_basis():
    rows = ev.ablation_sweep(STREAM, MODEL, "adapter", CFG, "epsilon",
                             [1e-4, 0.9], [0])
    assert rows[0]["epsilon"] == 1e-4 and rows[1]["epsilon"] == 0.9
    assert rows[0]["basis_columns"] <= rows[1]["basis_columns"]
    for row in rows:
        assert set(row) == {"epsilon", "avg_acc", "forgetting", "new_acc",
                            "basis_columns", "per_seed"}
        assert [r["seed"] for r in row["per_seed"]] == [0]


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_sweep_is_deterministic():
    first = ev.ablation_sweep(STREAM, MODEL, "lora", CFG, "beta", [0.3, 0.9], [0])
    second = ev.ablation_sweep(STREAM, MODEL, "lora", CFG, "beta", [0.3, 0.9], [0])
    assert first == second


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_projection_sweep_equals_direct_runs():
    """Each arm's per-seed summaries are those of direct continual runs."""
    rows = ev.ablation_sweep(STREAM, MODEL, "adapter", CFG, "projection", [True, False], [0, 1])
    assert [row["projection"] for row in rows] == [True, False]
    for row in rows:
        direct = []
        for seed in (0, 1):
            cfg = replace(CFG, seed=seed, projection=row["projection"])
            matrix, info = tr.continual_run(STREAM, MODEL, "adapter", cfg)
            summary = mt.summarize(matrix)
            direct.append({"seed": seed, "avg_acc": summary["avg_acc"],
                           "forgetting": summary["forgetting"], "new_acc": summary["new_acc"],
                           "basis_columns": ev.site_basis_total(info["basis_sizes"][-1], "adapter",
                                                                 MODEL.depth)})
        assert row["per_seed"] == direct
    assert rows[0]["per_seed"] != rows[1]["per_seed"]


def _sweep_and_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = ev.ablation_sweep(STREAM, MODEL, "lora", CFG, "epsilon", [1e-4, 0.9], [0, 1])
    return rows, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a pool starts only with two usable CPUs")
def test_pooled_and_inline_sweeps_are_equal(monkeypatch):
    """Every run of a pooled sweep runs in a worker, and the rows and the
    warnings raised here, in order, are those of the sweep run inline."""
    parent, run = os.getpid(), tr.continual_run

    def in_a_worker(*args, **kwargs):
        assert os.getpid() != parent
        return run(*args, **kwargs)

    monkeypatch.setattr(tr, "continual_run", in_a_worker)
    pooled = _sweep_and_warnings()
    monkeypatch.setattr(tr, "continual_run", run)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = _sweep_and_warnings()
    assert pooled == inline
    assert any(category is pj.EmptyBasisWarning for category, *_ in inline[1])


def test_site_basis_total_excludes_merged_prompt_key():
    assert ev.site_basis_total({"embed": 3, "prompt": 7}, "prompt", 2) == 3
    lora = {"attn_in.0": 2, "lora_q_mid.0": 4, "lora_v_mid.0": 1,
            "attn_in.1": 5, "lora_q_mid.1": 0, "lora_v_mid.1": 3}
    assert ev.site_basis_total(lora, "lora", 2) == 15


# -- property checks, run for real -------------------------------------------

def test_svd_suite_meets_tolerances():
    res = ev.svd_suite(seeds_per_class=20)
    assert res["reconstruction"] <= 1e-10
    assert res["orthogonality"] <= 1e-10
    assert res["projector"] <= 1e-9


def loop_svd_suite(seeds_per_class=100):
    """Oracle: the per-matrix loop `svd_suite` batches, one `linalg.svd`
    call per seeded matrix."""
    worst = {"reconstruction": 0.0, "orthogonality": 0.0, "projector": 0.0}
    for name, (m, n, rank) in sorted(ev.SHAPE_CLASSES.items()):
        k = min(m, n)
        for seed in range(seeds_per_class):
            rng = np.random.default_rng(1000 + seed)
            a = ev._random_matrix(rng, m, n, rank)
            res = linalg.svd(a)
            scale = max(float(np.linalg.norm(a)), 1e-30)
            recon = res.u @ np.diag(res.s) @ res.vt
            worst["reconstruction"] = max(
                worst["reconstruction"], float(np.linalg.norm(recon - a)) / scale
            )
            worst["orthogonality"] = max(
                worst["orthogonality"],
                float(np.linalg.norm(res.u.T @ res.u - np.eye(k))),
                float(np.linalg.norm(res.vt @ res.vt.T - np.eye(k))),
            )
            v1 = res.vt[res.s > 1e-10 * res.s[0]].T if res.s[0] > 0 else res.vt.T[:, :0]
            mine = np.eye(n) - v1 @ v1.T
            _, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
            top = s_ref[0] if s_ref.size else 0.0
            v1_ref = vt_ref[s_ref > 1e-10 * top].T if top > 0 else vt_ref.T[:, :0]
            ref = np.eye(n) - v1_ref @ v1_ref.T
            worst["projector"] = max(worst["projector"], float(np.linalg.norm(mine - ref)))
    return worst


def test_svd_suite_equals_the_per_matrix_loop():
    got = ev.svd_suite()
    assert all(type(v) is float for v in got.values())
    assert got == loop_svd_suite()


def test_svd_suite_factors_one_stack_per_shape_class(monkeypatch):
    """One outer `linalg.svd` call per shape class, on all of its seeded
    matrices (a wide stack's call on its transpose is nested, not counted)."""
    calls, depth = [], []
    svd = linalg.svd

    def counted(a):
        if not depth:
            calls.append(np.shape(a))
        depth.append(a)
        try:
            return svd(a)
        finally:
            depth.pop()

    monkeypatch.setattr(linalg, "svd", counted)
    ev.svd_suite(seeds_per_class=4)
    shapes = [(4, m, n) for _, (m, n, _) in sorted(ev.SHAPE_CLASSES.items())]
    assert calls == shapes and len(calls) == 5


def test_orthonormalize_suite_tolerance():
    assert ev.orthonormalize_suite(trials=20) <= 1e-9


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_gradient_check_beats_budget(paradigm):
    assert ev.gradient_check(paradigm) <= 1e-4


def loop_gradient_check(paradigm, h=1e-5):
    """Oracle: the per-coordinate loop `gradient_check` batches, one
    single-sample forward per coordinate and sign, moving the model's own
    tensor in place."""
    cfg = ev.GRADCHECK_MODEL
    w = bb.init_backbone(cfg, rng_mod.sub_seed(3, "backbone"))
    pet = pm.init_pet(cfg, paradigm, rng_mod.sub_seed(3, "pet"))
    head = w.classifier.copy()
    x = np.random.default_rng(3).normal(0.0, 1.0, size=(1, cfg.seq_len, cfg.dim))
    mask = np.ones(cfg.num_classes, dtype=bool)
    label = [1]

    def loss_at():
        logits, _ = bb.forward(w, pet, x, head=head, need_trace=False)
        return tr.masked_cross_entropy(logits, mask, label)[0][0]

    logits, trace = bb.forward(w, pet, x, head=head)
    _, dlogits = tr.masked_cross_entropy(logits, mask, label)
    grads, head_grad = bb.backward(trace, w, pet, dlogits, head=head)
    tensors = [(pet.params[name], grads[name]) for name in sorted(grads)] + [(head, head_grad)]
    worst = 0.0
    for arr, analytic in tensors:
        flat = arr.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            pet.bump()
            up = loss_at()
            flat[i] = keep - h
            pet.bump()
            down = loss_at()
            flat[i] = keep
            pet.bump()
            fd = (up - down) / (2.0 * h)
            an = float(analytic.reshape(-1)[i])
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    return worst


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_gradient_check_equals_the_per_coordinate_loop(paradigm):
    got = ev.gradient_check(paradigm)
    assert type(got) is float
    assert got == loop_gradient_check(paradigm)


def test_gradient_check_runs_two_forwards_per_tensor(monkeypatch):
    """One traced forward per paradigm, then one forward per tensor (the
    head included) and sign: 46 over the four paradigms, not one per
    coordinate."""
    calls = []
    forward = bb.forward
    monkeypatch.setattr(bb, "forward", lambda *a, **kw: calls.append(1) or forward(*a, **kw))
    depth = ev.GRADCHECK_MODEL.depth
    expected = 0
    for paradigm in pm.PARADIGMS:
        ev.gradient_check(paradigm)
        expected += 1 + 2 * (len(pm.routes(paradigm, depth)) + 1)
    assert len(calls) == expected == 46


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_orthogonality_check(paradigm):
    res = ev.orthogonality_check(paradigm)
    assert res["max_overlap"] <= 1e-9
    assert res["idempotence"] <= 1e-12


def test_eta_probe_reports_quadratic_window_for_adapter():
    res = ev.eta_scaling_probe("adapter")
    assert 3.2 <= res["proj_ratio"] <= 4.8
    assert 1.6 <= res["unproj_ratio"] <= 2.4


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_eta_verdicts_fail_for_token_rows_without_projection(monkeypatch):
    # identity projection: the projected arm is the unprojected step, so the
    # drift-reduction guarantee of prompt and prefix rows must not hold
    monkeypatch.setattr(tr, "project_grads", lambda pet, grads, bases, depth: grads)
    for paradigm in ("prompt", "prefix"):
        res = ev.eta_scaling_probe(paradigm)
        assert res["proj_drift"] == res["unproj_drift_matched"]
        assert not ev.eta_scaling_ok(paradigm, res)


def test_second_order_paradigms_are_the_bypass_ones():
    """Derived from the paradigm table: the paradigms that prepend no rows."""
    assert ev.SECOND_ORDER_PARADIGMS == ("adapter", "lora")


def test_eta_scaling_ok_rejects_nan_and_unknown_paradigm():
    nan = {"proj_ratio": float("nan"), "unproj_ratio": 2.0,
           "proj_drift": float("nan"), "unproj_drift_matched": 1.0}
    for paradigm in pm.PARADIGMS:
        assert not ev.eta_scaling_ok(paradigm, nan)
    with pytest.raises(ValueError):
        ev.eta_scaling_ok("bitfit", nan)


def test_metrics_oracle_check():
    res = ev.metrics_oracle_check(trials=100)
    assert res["max_error"] <= 1e-15
    assert res["hand_case_ok"]


# -- verify_all verdict logic -------------------------------------------------

GOOD_STUBS = {
    "svd_suite": lambda **kw: {"reconstruction": 1e-16, "orthogonality": 1e-16,
                               "projector": 1e-16},
    "orthonormalize_suite": lambda **kw: 1e-16,
    "gradient_check": lambda paradigm, h=1e-5: 1e-8,
    "orthogonality_check": lambda paradigm, epsilon=1e-10: {
        "max_overlap": 0.0, "idempotence": 0.0},
    "eta_scaling_probe": lambda paradigm: {
        "proj_eta": 1.0, "unproj_eta": 1.0, "proj_ratio": 4.0,
        "unproj_ratio": 2.0, "proj_drift": 0.1, "unproj_drift_matched": 1.0},
    "metrics_oracle_check": lambda **kw: {"max_error": 0.0, "hand_case_ok": True},
}


def _stubbed(monkeypatch, **overrides):
    for name, fn in {**GOOD_STUBS, **overrides}.items():
        monkeypatch.setattr(ev, name, fn)
    return ev.verify_all()


def test_verify_all_row_inventory(monkeypatch):
    rows = _stubbed(monkeypatch)
    names = [r["name"] for r in rows]
    assert len(names) == len(set(names))
    expected = (
        ["svd", "orthonormalize"]
        + [f"gradients-{p}" for p in pm.PARADIGMS]
        + [f"orthogonality-{p}" for p in pm.PARADIGMS]
        + [f"eta-scaling-{p}" for p in pm.PARADIGMS]
        + ["metrics"]
    )
    assert names == expected
    assert all(r["ok"] for r in rows)
    assert all(isinstance(r["detail"], str) and r["detail"] for r in rows)


def test_verify_all_flags_broken_svd(monkeypatch):
    rows = _stubbed(monkeypatch, svd_suite=lambda **kw: {
        "reconstruction": 1e-3, "orthogonality": 1e-16, "projector": 1e-16})
    verdicts = {r["name"]: r["ok"] for r in rows}
    assert not verdicts["svd"]
    assert all(ok for name, ok in verdicts.items() if name != "svd")


def test_verify_all_flags_one_broken_gradient(monkeypatch):
    rows = _stubbed(monkeypatch, gradient_check=lambda paradigm, h=1e-5: (
        1.0 if paradigm == "prefix" else 1e-8))
    verdicts = {r["name"]: r["ok"] for r in rows}
    assert not verdicts["gradients-prefix"]
    assert all(ok for name, ok in verdicts.items() if name != "gradients-prefix")


def test_verify_all_token_row_paradigms_need_drift_reduction(monkeypatch):
    # projected drift no smaller than unprojected: prompt/prefix rows fail
    rows = _stubbed(monkeypatch, eta_scaling_probe=lambda paradigm: {
        "proj_eta": 1.0, "unproj_eta": 1.0, "proj_ratio": 4.0,
        "unproj_ratio": 2.0, "proj_drift": 2.0, "unproj_drift_matched": 1.0})
    verdicts = {r["name"]: r["ok"] for r in rows}
    assert not verdicts["eta-scaling-prompt"]
    assert not verdicts["eta-scaling-prefix"]
    # factor paradigms are judged on the ratio windows alone
    assert verdicts["eta-scaling-adapter"]
    assert verdicts["eta-scaling-lora"]


def test_verify_all_factor_paradigms_need_second_order_ratio(monkeypatch):
    # first-order projected drift, even though it is reduced: adapter/lora fail
    rows = _stubbed(monkeypatch, eta_scaling_probe=lambda paradigm: {
        "proj_eta": 1.0, "unproj_eta": 1.0, "proj_ratio": 2.0,
        "unproj_ratio": 2.0, "proj_drift": 0.1, "unproj_drift_matched": 1.0})
    verdicts = {r["name"]: r["ok"] for r in rows}
    assert not verdicts["eta-scaling-adapter"]
    assert not verdicts["eta-scaling-lora"]
    # token-row paradigms are judged on drift reduction
    assert verdicts["eta-scaling-prompt"]
    assert verdicts["eta-scaling-prefix"]


def test_verify_all_eta_rows_use_shared_predicate(monkeypatch):
    rows = _stubbed(monkeypatch, eta_scaling_ok=lambda paradigm, res: paradigm != "lora")
    verdicts = {r["name"]: r["ok"] for r in rows}
    assert not verdicts["eta-scaling-lora"]
    assert all(ok for name, ok in verdicts.items() if name != "eta-scaling-lora")
