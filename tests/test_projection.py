"""Tests for feature buffers, null-space bases, merging and projection.

Oracles here are numpy-only: classical Gram-Schmidt null spaces and an
explicit pairwise-sum construction for the merge, compared at the
projector level (span equality) so column order and sign never matter.
"""

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
    with pytest.raises(ValueError):
        pj.ProjectionConfig(sample_count=64, buffer_cap=32)


def test_buffer_keeps_everything_under_cap():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(7, 4))
    buf = pj.FeatureBuffer(site="s", width=4, cap=100)
    buf.add(rows[:3], task_id=0, rng=rng)
    buf.add(rows[3:], task_id=1, rng=rng)
    assert buf.count == 7 and buf.seen == 7
    assert np.array_equal(buf.rows, rows)
    assert buf.tasks.tolist() == [0, 0, 0, 1, 1, 1, 1]


def test_buffer_reservoir_caps_and_is_deterministic():
    stream = np.random.default_rng(2).normal(size=(100, 3))

    def fill(seed):
        buf = pj.FeatureBuffer(site="s", width=3, cap=10)
        buf.add(stream, task_id=0, rng=np.random.default_rng(seed))
        return buf

    a, b, c = fill(5), fill(5), fill(6)
    assert a.count == 10 and a.seen == 100
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.tasks, b.tasks)
    assert not np.array_equal(a.rows, c.rows)
    # every survivor really came from the stream
    for row in a.rows:
        assert any(np.array_equal(row, s) for s in stream)


def test_buffer_rejects_bad_rows():
    buf = pj.FeatureBuffer(site="s", width=3, cap=4)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        buf.add(np.zeros((2, 5)), task_id=0, rng=rng)
    with pytest.raises(ValueError):
        buf.add(np.array([[1.0, np.nan, 0.0]]), task_id=0, rng=rng)


def test_build_basis_empty_buffer_is_invalid_state():
    buf = pj.FeatureBuffer(site="s", width=3, cap=4)
    with pytest.raises(RuntimeError, match="site s"):
        pj.build_basis(buf.rows, 0.0, buf.site)


def test_build_basis_two_dim_subspace_of_r4():
    rng = np.random.default_rng(3)
    span = gs_columns(rng.normal(size=(4, 2)))
    x = rng.normal(size=(6, 2)) @ span.T
    basis = pj.build_basis(x, 0.0, "probe")
    assert basis.ncols == 2
    assert np.abs(x @ basis.b).max() <= 1e-10
    assert np.abs(basis.b.T @ basis.b - np.eye(2)).max() <= 1e-10


def test_build_basis_full_rank_square_is_empty_and_warns():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    with pytest.warns(pj.EmptyBasisWarning):
        basis = pj.build_basis(x, 0.0, "probe")
    assert basis.ncols == 0
    g = rng.normal(size=(2, 5))
    assert np.abs(pj.project(g, basis, 1)).max() == 0.0


def test_build_basis_rank3_in_r6_matches_null_space_oracle():
    rng = np.random.default_rng(5)
    x = rank_deficient(rng, 8, 6, 3)
    basis = pj.build_basis(x, 1e-10, "probe")
    oracle = null_space_oracle(x)
    assert basis.ncols == 3 and oracle.shape[1] == 3
    diff = basis.projector() - oracle @ oracle.T
    assert np.abs(diff).max() <= 1e-9


def test_build_basis_appends_complement_when_rows_are_few():
    """Two independent rows in R^6 leave a 4-dim exact null space even
    though the reduced SVD only yields two singular directions."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 6))
    basis = pj.build_basis(x, 1e-10, "probe")
    assert basis.ncols == 4
    assert np.abs(x @ basis.b).max() <= 1e-10
    oracle = null_space_oracle(x)
    assert np.abs(basis.projector() - oracle @ oracle.T).max() <= 1e-9


def test_build_basis_zero_rows_select_everything():
    basis = pj.build_basis(np.zeros((3, 5)), 0.0, "probe")
    assert basis.ncols == 5
    assert np.abs(basis.projector() - np.eye(5)).max() <= 1e-12


def test_build_basis_threshold_is_relative():
    rng = np.random.default_rng(7)
    u = gs_columns(rng.normal(size=(6, 4)))
    v = gs_columns(rng.normal(size=(4, 4)))
    sigmas = np.array([1.0, 0.5, 0.01, 1e-12])
    x = u @ np.diag(sigmas) @ v.T
    counts = {eps: pj.build_basis(x, eps, "probe").ncols for eps in (1e-11, 0.02, 0.6)}
    assert counts[1e-11] == 1
    assert counts[0.02] == 2
    assert counts[0.6] == 3
    # scaling the whole buffer must not change any count
    scaled = pj.build_basis(1e3 * x, 0.02, "probe")
    assert scaled.ncols == 2


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=30),
)
def test_build_basis_count_monotone_in_epsilon(eps_a, eps_b, seed):
    lo, hi = sorted((eps_a, eps_b))
    rng = np.random.default_rng(seed)
    x = rank_deficient(rng, 7, 5, 3)
    assert pj.build_basis(x, lo, "probe").ncols <= pj.build_basis(x, hi, "probe").ncols


def test_identity_basis_is_vacuous():
    basis = pj.ProjectionBasis(np.eye(4))
    g = np.random.default_rng(8).normal(size=(3, 4))
    assert np.allclose(pj.project(g, basis, 1), g, atol=1e-15)
    assert np.allclose(pj.project(g.T, basis, 0), g.T, atol=1e-15)


def test_merge_identical_single_columns():
    v = np.array([[3.0], [4.0]]) / 5.0
    merged = pj.merge_bases(pj.ProjectionBasis(v), pj.ProjectionBasis(v.copy()), 0.5)
    assert merged.ncols == 1
    assert np.allclose(merged.b, v, atol=1e-12)


def test_merge_orthogonal_single_columns_is_empty():
    a = pj.ProjectionBasis(np.array([[1.0], [0.0]]))
    b = pj.ProjectionBasis(np.array([[0.0], [1.0]]))
    assert pj.merge_bases(a, b, 0.5).ncols == 0


def test_merge_sign_alignment():
    v = np.array([[1.0], [0.0], [0.0]])
    merged = pj.merge_bases(pj.ProjectionBasis(v), pj.ProjectionBasis(-v), 0.5)
    assert merged.ncols == 1
    assert np.abs(merged.projector() - v @ v.T).max() <= 1e-12


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
    merged = pj.merge_bases(pj.ProjectionBasis(vi), pj.ProjectionBasis(vp), beta)
    cos = [float(vi[:, j] @ vp[:, j]) for j in range(3)]
    assert abs(cos[0]) > beta and abs(cos[1]) < beta and abs(cos[2]) > beta

    picked = [vi[:, 0] + vp[:, 0], vi[:, 2] - vp[:, 2]]
    oracle = gs_columns(np.stack(picked, axis=1))
    assert merged.ncols == 2
    assert np.abs(merged.projector() - oracle @ oracle.T).max() <= 1e-10


def test_merge_uses_shorter_column_count():
    rng = np.random.default_rng(10)
    q = gs_columns(rng.normal(size=(5, 4)))
    long = pj.ProjectionBasis(q[:, :3])
    short = pj.ProjectionBasis(q[:, :1].copy())
    merged = pj.merge_bases(long, short, 0.5)
    assert merged.ncols == 1
    assert np.abs(merged.projector() - q[:, :1] @ q[:, :1].T).max() <= 1e-12


def test_merge_validation():
    a = pj.ProjectionBasis(np.eye(3)[:, :1])
    b = pj.ProjectionBasis(np.eye(4)[:, :1])
    with pytest.raises(ValueError):
        pj.merge_bases(a, b, 0.5)
    with pytest.raises(ValueError):
        pj.merge_bases(a, a, 1.5)


def test_project_prompt_grad_fixed_point_and_annihilation():
    rng = np.random.default_rng(11)
    x = rank_deficient(rng, 8, 6, 3)
    basis = pj.build_basis(x, 1e-10, "probe")
    inside = rng.normal(size=(2, basis.ncols)) @ basis.b.T
    assert np.abs(pj.project(inside, basis, 1) - inside).max() <= 1e-12
    outside = rng.normal(size=(2, 8)) @ x  # rows inside the feature row space
    assert np.abs(pj.project(outside, basis, 1)).max() <= 1e-12 * np.abs(outside).max()


def test_project_prompt_grad_orthogonality_bound():
    rng = np.random.default_rng(12)
    x = rank_deficient(rng, 10, 6, 4)
    basis = pj.build_basis(x, 1e-10, "probe")
    g = rng.normal(size=(3, 6))
    gp = pj.project(g, basis, 1)
    lhs = np.linalg.norm(x @ gp.T)
    assert lhs <= 1e-9 * np.linalg.norm(x) * max(np.linalg.norm(gp), 1e-300)


def test_projector_idempotence_and_contraction():
    for seed in range(20):
        r = np.random.default_rng(seed)
        x = rank_deficient(r, 9, 5, r.integers(1, 5))
        basis = pj.build_basis(x, 1e-10, "probe")
        g = r.normal(size=(3, 5))
        once = pj.project(g, basis, 1)
        twice = pj.project(once, basis, 1)
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(g)
        assert np.linalg.norm(once) <= np.linalg.norm(g) * (1.0 + 1e-12)
        assert np.abs(basis.b.T @ basis.b - np.eye(basis.ncols)).max() <= 1e-10


def test_project_prefix_grads_both_outputs():
    rng = np.random.default_rng(14)
    x = rank_deficient(rng, 10, 6, 3)
    basis = pj.build_basis(x, 1e-10, "probe")
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
    bx = pj.build_basis(x, 1e-10, "probe")
    by = pj.build_basis(y, 1e-10, "probe")
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
    bx = pj.build_basis(rank_deficient(rng, 9, d, 2), 1e-10, "probe")
    by = pj.build_basis(np.zeros((4, r)), 1e-10, "probe")
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
    assert pj.paradigm_sites("prompt", 2) == ["embed"]
    assert pj.paradigm_sites("prefix", 2) == ["attn_in.0", "attn_in.1"]
    assert pj.paradigm_sites("adapter", 2) == ["mlp_in.0", "adapter_mid.0", "mlp_in.1", "adapter_mid.1"]
    assert pj.paradigm_sites("lora", 1) == ["attn_in.0", "lora_q_mid.0", "lora_v_mid.0"]
    with pytest.raises(ValueError):
        pj.paradigm_sites("bitfit", 2)


def test_site_width_and_validation():
    assert pj.site_width("embed", CFG) == CFG.dim
    assert pj.site_width("attn_in.1", CFG) == CFG.dim
    assert pj.site_width("adapter_mid.0", CFG) == CFG.rank
    assert pj.site_width("lora_v_mid.1", CFG) == CFG.rank
    with pytest.raises(ValueError):
        pj.site_width("attn_in.2", CFG)
    for bad in ("banana", "embed.0", "attn_in", "attn_in.x"):
        with pytest.raises(ValueError, match="unknown site"):
            pj.site_width(bad, CFG)


def test_sample_features_counts_and_widths():
    w = bb.init_backbone(CFG, 30)
    rng = np.random.default_rng(31)
    samples = [rng.normal(size=(CFG.seq_len, CFG.dim)) for _ in range(8)]

    prompt = pm.init_pet(CFG, "prompt", 32)
    rows = pj.sample_features(w, prompt, samples, ["embed"])["embed"]
    assert rows.shape == (8 * CFG.seq_len, CFG.dim)

    adapter = pm.init_pet(CFG, "adapter", 33)
    mids = pj.sample_features(w, adapter, samples, ["adapter_mid.1"])["adapter_mid.1"]
    assert mids.shape == (8 * CFG.seq_len, CFG.rank)

    again = pj.sample_features(w, adapter, samples, ["adapter_mid.1"])["adapter_mid.1"]
    assert np.array_equal(mids, again)

    with pytest.raises(ValueError):
        pj.sample_features(w, adapter, samples, ["lora_q_mid.0"])
    with pytest.raises(ValueError):
        pj.sample_features(w, adapter, samples, ["mlp_in.9"])
    assert pj.sample_features(w, adapter, [], ["mlp_in.0"])["mlp_in.0"].shape == (0, CFG.dim)
