"""Tests for feature buffers, null-space bases, merging and projection.

Oracles here are numpy-only: classical Gram-Schmidt null spaces and an
explicit pairwise-sum construction for the merge, compared at the
projector level (span equality) so column order and sign never matter.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orthopet import backbone as bb
from orthopet import pet as pm
from orthopet import projection as pj
from orthopet import trainer as tr


def gs_columns(cols, tol=1e-10):
    kept = []
    for j in range(cols.shape[1]):
        v = cols[:, j].astype(np.float64).copy()
        for q in kept:
            v = v - (q @ v) * q
        for q in kept:
            v = v - (q @ v) * q
        n = np.linalg.norm(v)
        if n > tol:
            kept.append(v / n)
    if not kept:
        return np.zeros((cols.shape[0], 0))
    return np.stack(kept, axis=1)


def null_space_oracle(x):
    """Gram-Schmidt the feature rows, then complete against the identity;
    the leftover directions span the exact null space."""
    row_basis = gs_columns(x.T)
    comp = []
    for k in range(x.shape[1]):
        v = np.zeros(x.shape[1])
        v[k] = 1.0
        v = v - row_basis @ (row_basis.T @ v)
        for q in comp:
            v = v - (q @ v) * q
        n = np.linalg.norm(v)
        if n > 1e-8:
            comp.append(v / n)
    if not comp:
        return np.zeros((x.shape[1], 0))
    return np.stack(comp, axis=1)


def rank_deficient(rng, n, w, r):
    return rng.normal(size=(n, r)) @ rng.normal(size=(r, w))


def test_projection_config_validation():
    pj.ProjectionConfig()
    with pytest.raises(ValueError):
        pj.ProjectionConfig(epsilon=-1e-3)
    with pytest.raises(ValueError):
        pj.ProjectionConfig(beta=1.5)
    with pytest.raises(ValueError):
        pj.ProjectionConfig(sample_count=0)


def test_buffer_add_keeps_every_row_in_order():
    rows = np.random.default_rng(1).normal(size=(1500, 4))
    buf = pj.FeatureBuffer(site="s", width=4)
    assert buf.rows.shape == (0, 4)
    for start in range(0, 1500, 300):
        buf.add(rows[start:start + 300])
    buf.add(np.zeros((0, 4)))
    assert np.array_equal(buf.rows, rows)


def test_buffer_rejects_bad_rows():
    buf = pj.FeatureBuffer(site="s", width=3)
    buf.add(np.ones((2, 3)))
    for bad in (np.zeros((2, 5)), np.zeros(3), np.array([[1.0, np.nan, 0.0]]),
                np.array([[np.inf, 0.0, 0.0]])):
        with pytest.raises(ValueError, match="site s"):
            buf.add(bad)
    assert np.array_equal(buf.rows, np.ones((2, 3)))


def test_build_basis_empty_buffer_is_invalid_state():
    buf = pj.FeatureBuffer(site="s", width=3)
    with pytest.raises(RuntimeError, match="site s"):
        pj.build_basis(pj.svd_factors(buf.rows), 0.0, buf.site)


def test_build_basis_two_dim_subspace_of_r4():
    rng = np.random.default_rng(3)
    span = gs_columns(rng.normal(size=(4, 2)))
    x = rng.normal(size=(6, 2)) @ span.T
    basis = pj.build_basis(pj.svd_factors(x), 0.0, "probe")
    assert basis.shape[1] == 2
    assert np.abs(x @ basis).max() <= 1e-10
    assert np.abs(basis.T @ basis - np.eye(2)).max() <= 1e-10


def test_build_basis_full_rank_square_is_empty_and_warns():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    with pytest.warns(pj.EmptyBasisWarning):
        basis = pj.build_basis(pj.svd_factors(x), 0.0, "probe")
    assert basis.shape[1] == 0
    g = rng.normal(size=(2, 5))
    assert np.abs(pj.project(g, basis, 1)).max() == 0.0


def test_build_basis_rank3_in_r6_matches_null_space_oracle():
    rng = np.random.default_rng(5)
    x = rank_deficient(rng, 8, 6, 3)
    basis = pj.build_basis(pj.svd_factors(x), 1e-10, "probe")
    oracle = null_space_oracle(x)
    assert basis.shape[1] == 3 and oracle.shape[1] == 3
    diff = basis @ basis.T - oracle @ oracle.T
    assert np.abs(diff).max() <= 1e-9


def test_build_basis_appends_complement_when_rows_are_few():
    """Two independent rows in R^6 leave a 4-dim exact null space even
    though the reduced SVD only yields two singular directions."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 6))
    basis = pj.build_basis(pj.svd_factors(x), 1e-10, "probe")
    assert basis.shape[1] == 4
    assert np.abs(x @ basis).max() <= 1e-10
    oracle = null_space_oracle(x)
    assert np.abs(basis @ basis.T - oracle @ oracle.T).max() <= 1e-9


def test_basis_layouts_are_pinned():
    """Bases are plain arrays handed to `project` as they come: memory
    layout alone moves later last bits (the criterion-7 FOUND line in
    CHANGES.md), so each kind's layout is fixed here, as the SVD factor
    layouts are in `tests/test_linalg.py`.  A tall buffer's basis is a
    column slice of vt.T, F-ordered; a completed, a merged and an empty
    merged basis are built column by column, C-ordered."""
    rng = np.random.default_rng(9)
    tall = rank_deficient(rng, 40, 8, 5)
    site = pj.build_basis(pj.svd_factors(tall), 1e-10, "probe")
    assert site.shape == (8, 3)
    assert site.flags.f_contiguous and not site.flags.c_contiguous
    completed = pj.build_basis(pj.svd_factors(rng.normal(size=(3, 8))), 1e-10, "probe")
    assert completed.shape == (8, 5)
    assert completed.flags.c_contiguous and not completed.flags.f_contiguous
    merged = pj.merge_bases(site, site, 0.5)
    assert merged.shape == (8, 3)
    assert merged.flags.c_contiguous and not merged.flags.f_contiguous
    empty = pj.merge_bases(site, site, 1.0)
    assert empty.shape == (8, 0) and empty.flags.c_contiguous


def test_build_basis_zero_rows_select_everything():
    basis = pj.build_basis(pj.svd_factors(np.zeros((3, 5))), 0.0, "probe")
    assert basis.shape[1] == 5
    assert np.abs(basis @ basis.T - np.eye(5)).max() <= 1e-12


def test_build_basis_threshold_is_relative():
    rng = np.random.default_rng(7)
    u = gs_columns(rng.normal(size=(6, 4)))
    v = gs_columns(rng.normal(size=(4, 4)))
    sigmas = np.array([1.0, 0.5, 0.01, 1e-12])
    x = u @ np.diag(sigmas) @ v.T
    counts = {eps: pj.build_basis(pj.svd_factors(x), eps, "probe").shape[1] for eps in (1e-11, 0.02, 0.6)}
    assert counts[1e-11] == 1
    assert counts[0.02] == 2
    assert counts[0.6] == 3
    # scaling the whole buffer must not change any count
    scaled = pj.build_basis(pj.svd_factors(1e3 * x), 0.02, "probe")
    assert scaled.shape[1] == 2


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=30),
)
def test_build_basis_count_monotone_in_epsilon(eps_a, eps_b, seed):
    lo, hi = sorted((eps_a, eps_b))
    rng = np.random.default_rng(seed)
    x = rank_deficient(rng, 7, 5, 3)
    factors = pj.svd_factors(x)
    assert pj.build_basis(factors, lo, "probe").shape[1] <= pj.build_basis(factors, hi, "probe").shape[1]


def test_identity_basis_is_vacuous():
    basis = np.eye(4)
    g = np.random.default_rng(8).normal(size=(3, 4))
    assert np.allclose(pj.project(g, basis, 1), g, atol=1e-15)
    assert np.allclose(pj.project(g.T, basis, 0), g.T, atol=1e-15)


def test_merge_identical_single_columns():
    v = np.array([[3.0], [4.0]]) / 5.0
    merged = pj.merge_bases(v, v.copy(), 0.5)
    assert merged.shape[1] == 1
    assert np.allclose(merged, v, atol=1e-12)


def test_merge_orthogonal_single_columns_is_empty():
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    assert pj.merge_bases(a, b, 0.5).shape[1] == 0


def test_merge_sign_alignment():
    v = np.array([[1.0], [0.0], [0.0]])
    merged = pj.merge_bases(v, -v, 0.5)
    assert merged.shape[1] == 1
    assert np.abs(merged @ merged.T - v @ v.T).max() <= 1e-12


def test_merge_three_columns_matches_explicit_oracle():
    """Positions 0 and 2 pass the threshold, position 1 fails."""
    rng = np.random.default_rng(9)
    q = gs_columns(rng.normal(size=(6, 6)))
    vi = q[:, :3]
    tilt = lambda a, b, t: (np.cos(t) * a + np.sin(t) * b)
    vp = np.stack(
        [tilt(q[:, 0], q[:, 3], 0.2), q[:, 4], tilt(-q[:, 2], q[:, 5], 0.3)],
        axis=1,
    )
    beta = 0.7
    merged = pj.merge_bases(vi, vp, beta)
    cos = [float(vi[:, j] @ vp[:, j]) for j in range(3)]
    assert abs(cos[0]) > beta and abs(cos[1]) < beta and abs(cos[2]) > beta

    picked = [vi[:, 0] + vp[:, 0], vi[:, 2] - vp[:, 2]]
    oracle = gs_columns(np.stack(picked, axis=1))
    assert merged.shape[1] == 2
    assert np.abs(merged @ merged.T - oracle @ oracle.T).max() <= 1e-10


def test_merge_uses_shorter_column_count():
    rng = np.random.default_rng(10)
    q = gs_columns(rng.normal(size=(5, 4)))
    long = q[:, :3]
    short = q[:, :1].copy()
    merged = pj.merge_bases(long, short, 0.5)
    assert merged.shape[1] == 1
    assert np.abs(merged @ merged.T - q[:, :1] @ q[:, :1].T).max() <= 1e-12


def test_merge_validation():
    a = np.eye(3)[:, :1]
    b = np.eye(4)[:, :1]
    with pytest.raises(ValueError):
        pj.merge_bases(a, b, 0.5)
    with pytest.raises(ValueError):
        pj.merge_bases(a, a, 1.5)


def test_project_prompt_grad_fixed_point_and_annihilation():
    rng = np.random.default_rng(11)
    x = rank_deficient(rng, 8, 6, 3)
    basis = pj.build_basis(pj.svd_factors(x), 1e-10, "probe")
    inside = rng.normal(size=(2, basis.shape[1])) @ basis.T
    assert np.abs(pj.project(inside, basis, 1) - inside).max() <= 1e-12
    outside = rng.normal(size=(2, 8)) @ x  # rows inside the feature row space
    assert np.abs(pj.project(outside, basis, 1)).max() <= 1e-12 * np.abs(outside).max()


def test_project_prompt_grad_orthogonality_bound():
    rng = np.random.default_rng(12)
    x = rank_deficient(rng, 10, 6, 4)
    basis = pj.build_basis(pj.svd_factors(x), 1e-10, "probe")
    g = rng.normal(size=(3, 6))
    gp = pj.project(g, basis, 1)
    lhs = np.linalg.norm(x @ gp.T)
    assert lhs <= 1e-9 * np.linalg.norm(x) * max(np.linalg.norm(gp), 1e-300)


def test_projector_idempotence_and_contraction():
    for seed in range(20):
        r = np.random.default_rng(seed)
        x = rank_deficient(r, 9, 5, r.integers(1, 5))
        basis = pj.build_basis(pj.svd_factors(x), 1e-10, "probe")
        g = r.normal(size=(3, 5))
        once = pj.project(g, basis, 1)
        twice = pj.project(once, basis, 1)
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(g)
        assert np.linalg.norm(once) <= np.linalg.norm(g) * (1.0 + 1e-12)
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-10


def test_project_prefix_grads_both_outputs():
    rng = np.random.default_rng(14)
    x = rank_deficient(rng, 10, 6, 3)
    basis = pj.build_basis(pj.svd_factors(x), 1e-10, "probe")
    gk = rng.normal(size=(2, 6))
    gv = rng.normal(size=(2, 6))
    bases = {"attn_in.0": basis}
    pet = pm.PetState("prefix", {"prefix_k.0": gk, "prefix_v.0": gv})
    out = tr.project_grads(pet, {"prefix_k.0": gk, "prefix_v.0": gv}, bases, 1)
    assert sorted(out) == ["prefix_k.0", "prefix_v.0"]
    for g, gp in ((gk, out["prefix_k.0"]), (gv, out["prefix_v.0"])):
        assert np.array_equal(gp, pj.project(g, basis, 1))
        assert np.linalg.norm(x @ gp.T) <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(gp)
        assert np.linalg.norm(gp) <= np.linalg.norm(g) * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        pj.project(gk[:, :5], basis, 1)


def test_project_factor_grads_orthogonality():
    rng = np.random.default_rng(15)
    d, r = 8, 3
    x = rank_deficient(rng, 12, d, 4)
    y = rank_deficient(rng, 12, r, 1)
    bx = pj.build_basis(pj.svd_factors(x), 1e-10, "probe")
    by = pj.build_basis(pj.svd_factors(y), 1e-10, "probe")
    gd = rng.normal(size=(d, r))
    gu = rng.normal(size=(r, d))
    pd_, pu = pj.project(gd, bx, 0), pj.project(gu, by, 0)
    assert np.linalg.norm(x @ pd_) <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(pd_)
    assert np.linalg.norm(y @ pu) <= 1e-9 * np.linalg.norm(y) * np.linalg.norm(pu)
    # idempotence
    pd2, pu2 = pj.project(pd_, bx, 0), pj.project(pu, by, 0)
    assert np.linalg.norm(pd2 - pd_) <= 1e-12 * np.linalg.norm(gd)
    assert np.linalg.norm(pu2 - pu) <= 1e-12 * np.linalg.norm(gu)


def test_project_factor_grads_zero_and_vacuous():
    rng = np.random.default_rng(16)
    d, r = 6, 2
    bx = pj.build_basis(pj.svd_factors(rank_deficient(rng, 9, d, 2)), 1e-10, "probe")
    by = pj.build_basis(pj.svd_factors(np.zeros((4, r))), 1e-10, "probe")
    zd, zu = pj.project(np.zeros((d, r)), bx, 0), pj.project(np.zeros((r, d)), by, 0)
    assert not zd.any() and not zu.any()
    gu = rng.normal(size=(r, d))
    assert np.allclose(pj.project(gu, by, 0), gu, atol=1e-12)
    with pytest.raises(ValueError):
        pj.project(np.zeros((d + 1, r)), bx, 0)
    with pytest.raises(ValueError):
        pj.project(np.zeros(d), bx, 0)


CFG = bb.TransformerConfig(depth=2, dim=16, heads=4, seq_len=4, num_classes=3, prompt_len=2, prefix_len=2, rank=3)


def test_paradigm_sites_lists():
    """The sites a paradigm buffers, in the order of its routes; the buffers
    and the sampled features list them alike."""
    def sites(paradigm, depth):
        cfg = replace(CFG, depth=depth)
        pet = pm.init_pet(cfg, paradigm, 21)
        feats = pj.sample_features(bb.init_backbone(cfg, 20), pet, np.zeros((1, cfg.seq_len, cfg.dim)))
        assert list(feats) == list(tr.init_buffers(paradigm, cfg))
        return list(feats)

    assert sites("prompt", 2) == ["embed"]
    assert sites("prefix", 2) == ["attn_in.0", "attn_in.1"]
    assert sites("adapter", 2) == ["mlp_in.0", "adapter_mid.0", "mlp_in.1", "adapter_mid.1"]
    assert sites("lora", 1) == ["attn_in.0", "lora_q_mid.0", "lora_v_mid.0"]
    with pytest.raises(ValueError):
        tr.init_buffers("bitfit", CFG)


def _route(paradigm, site):
    return next(r for r in pm.routes(paradigm, CFG.depth) if r.site == site)


def test_site_width_and_validation():
    assert pj.site_width(_route("prompt", "embed"), CFG) == CFG.dim
    assert pj.site_width(_route("prefix", "attn_in.1"), CFG) == CFG.dim
    assert pj.site_width(_route("adapter", "adapter_mid.0"), CFG) == CFG.rank
    assert pj.site_width(_route("lora", "lora_v_mid.1"), CFG) == CFG.rank
    # every route's site width is the extent of the gradient axis it projects
    for paradigm in pm.PARADIGMS:
        pet = pm.init_pet(CFG, paradigm, 0)
        for r in pm.routes(paradigm, CFG.depth):
            assert pj.site_width(r, CFG) == pet.params[r.name].shape[r.spec.axis]


def test_sample_features_counts_and_widths():
    w = bb.init_backbone(CFG, 30)
    rng = np.random.default_rng(31)
    samples = rng.normal(size=(8, CFG.seq_len, CFG.dim))

    prompt = pm.init_pet(CFG, "prompt", 32)
    rows = pj.sample_features(w, prompt, samples)["embed"]
    assert rows.shape == (8 * CFG.seq_len, CFG.dim)

    adapter = pm.init_pet(CFG, "adapter", 33)
    mids = pj.sample_features(w, adapter, samples)["adapter_mid.1"]
    assert mids.shape == (8 * CFG.seq_len, CFG.rank)

    again = pj.sample_features(w, adapter, samples)["adapter_mid.1"]
    assert np.array_equal(mids, again)

    empty = pj.sample_features(w, adapter, [])
    assert empty["mlp_in.0"].shape == (0, CFG.dim)
    assert empty["adapter_mid.1"].shape == (0, CFG.rank)


def test_fixed_sites_lists():
    assert {p: pm.fixed_sites(p) for p in pm.PARADIGMS} == {
        "prompt": ["embed"], "prefix": ["attn_in.0"], "adapter": ["mlp_in.0"], "lora": ["attn_in.0"]}


@pytest.mark.parametrize("paradigm", pm.PARADIGMS)
def test_fixed_sites_are_those_no_tensor_reaches(paradigm):
    """Two pets whose every tensor differs give bit-identical rows on
    exactly the sites `pm.fixed_sites` names, so every other site of the
    paradigm differs (a prompt pet has the embed site alone)."""
    w = bb.init_backbone(CFG, 50)
    xs = np.random.default_rng(51).normal(size=(3, CFG.seq_len, CFG.dim))
    rng = np.random.default_rng(52)
    feats = []
    for _ in range(2):
        pet = pm.init_pet(CFG, paradigm, 53)
        pet.params = {k: rng.normal(size=v.shape) for k, v in pet.params.items()}
        feats.append(pj.sample_features(w, pet, xs))
    same = sorted(site for site in feats[0] if feats[0][site].tobytes() == feats[1][site].tobytes())
    assert same == pm.fixed_sites(paradigm)
    assert len(feats[0]) > len(same) or paradigm == "prompt"


def test_trimmed_site_rows_are_refused_by_name():
    """The last block of a prompt trace computes its query side only for
    the token rows, so its mlp_in site has fewer rows per sample than a
    buffer expects: reading it raises, naming the site."""
    w = bb.init_backbone(CFG, 40)
    xs = np.random.default_rng(41).normal(size=(3, CFG.seq_len, CFG.dim))
    last = CFG.depth - 1
    _, trace = bb.forward(w, pm.init_pet(CFG, "prompt", 42), xs, w.classifier)
    all_rows = CFG.prompt_len + CFG.seq_len
    assert trace.layers[last]["query_from"] == CFG.prompt_len
    assert trace.layers[0]["query_from"] == 0
    assert pj._site_rows(trace, _route("prompt", "embed")).shape == (3, CFG.seq_len, CFG.dim)
    assert pj._site_rows(trace, _route("prefix", f"attn_in.{last}")).shape == (3, all_rows, CFG.dim)
    assert pj._site_rows(trace, _route("adapter", "mlp_in.0")).shape == (3, all_rows, CFG.dim)
    # an adapter site read from a prompt trace: no route of the prompt
    # paradigm reaches these rows
    with pytest.raises(ValueError, match=f"'mlp_in.{last}' covers only rows {CFG.prompt_len}:"):
        pj._site_rows(trace, _route("adapter", f"mlp_in.{last}"))

    no_prompt = replace(CFG, prompt_len=0)
    _, trace = bb.forward(w, pm.init_pet(no_prompt, "prompt", 43), xs, w.classifier)
    assert pj._site_rows(trace, _route("adapter", f"mlp_in.{last}")).shape == (3, CFG.seq_len, CFG.dim)
