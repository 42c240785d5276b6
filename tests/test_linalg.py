import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthopet import checkpoint as ck
from orthopet import cli, linalg
from orthopet import trainer as tr

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------- oracles


def gram_schmidt_oracle(a):
    """Classical one-pass Gram-Schmidt, written independently of the
    production routine (which is modified GS with re-orthogonalization)."""
    kept = []
    for j in range(a.shape[1]):
        col = a[:, j].astype(float).copy()
        proj = sum((q @ a[:, j]) * q for q in kept)
        col = col - proj if kept else col
        if np.linalg.norm(col) <= 1e-10 * max(1.0, np.linalg.norm(a[:, j])):
            continue
        kept.append(col / np.linalg.norm(col))
    return np.stack(kept, axis=1) if kept else np.zeros((a.shape[0], 0))


def lapack_null_projector(a, rel_eps):
    """Null-space projector from the LAPACK SVD, the independent oracle the
    Jacobi implementation is checked against."""
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    top = s[0] if len(s) else 0.0
    keep = s <= rel_eps * top if top > 0 else np.ones_like(s, dtype=bool)
    v0 = vt[keep].T
    return v0 @ v0.T


def reference_jacobi(b):
    """The one-sided Jacobi loop as plain numpy, kept as the bit oracle for
    `linalg._jacobi_orthogonalize`: same pair order, dots and rotations,
    with numpy scalars, fresh temporaries and per-pair column slicing."""
    n = b.shape[1]
    v = np.eye(n)
    for _ in range(linalg.SVD_MAX_SWEEPS):
        sq = np.sum(b * b, axis=0)
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                alpha = sq[i]
                beta = sq[j]
                if alpha <= 0.0 or beta <= 0.0:
                    continue
                gamma = float(b[:, i] @ b[:, j])
                if gamma == 0.0 or abs(gamma) <= linalg.SVD_SWEEP_TOL * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                if zeta == 0.0:
                    t = 1.0
                elif abs(zeta) > 1e100:
                    t = 0.5 / zeta
                else:
                    t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                bi = b[:, i].copy()
                b[:, i] = c * bi - s * b[:, j]
                b[:, j] = s * bi + c * b[:, j]
                vi = v[:, i].copy()
                v[:, i] = c * vi - s * v[:, j]
                v[:, j] = s * vi + c * v[:, j]
                cs = c * s
                sq[i] = max(c * c * alpha - 2.0 * cs * gamma + s * s * beta, 0.0)
                sq[j] = max(s * s * alpha + 2.0 * cs * gamma + c * c * beta, 0.0)
        if not rotated:
            break
    return v


def random_matrix(rng, m, n, rank=None):
    if rank is None:
        return rng.normal(size=(m, n))
    left = rng.normal(size=(m, rank))
    right = rng.normal(size=(rank, n))
    return left @ right


# ---------------------------------------------------------------- fixed cases


def test_svd_identity():
    res = linalg.svd(np.eye(3))
    assert np.allclose(res.s, [1.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(res.u @ np.diag(res.s) @ res.vt, np.eye(3), atol=1e-12)


def test_svd_zero_matrix():
    res = linalg.svd(np.zeros((3, 3)))
    assert np.allclose(res.s, 0.0)
    assert np.allclose(res.u.T @ res.u, np.eye(3), atol=1e-12)
    assert np.allclose(res.vt @ res.vt.T, np.eye(3), atol=1e-12)


def test_svd_hand_case_diagonal():
    res = linalg.svd(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(res.s, [4.0, 3.0], atol=1e-12)
    assert np.allclose(res.u, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(res.vt, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_svd_rank_one():
    res = linalg.svd(np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(res.s, [2.0, 0.0], atol=1e-12)
    assert np.allclose(res.u.T @ res.u, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 0, 3), (2, 3, 0)])
def test_svd_of_empty_matrices(shape):
    """Zero rows or columns give empty factors of the reduced shapes."""
    res = linalg.svd(np.zeros(shape))
    *lead, m, n = shape
    k = min(m, n)
    assert res.u.shape == (*lead, m, k)
    assert res.s.shape == (*lead, k)
    assert res.vt.shape == (*lead, k, n)


def test_svd_rejects_nan():
    with pytest.raises(ValueError):
        linalg.svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_svd_deterministic_bits():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(9, 5))
    r1 = linalg.svd(a)
    r2 = linalg.svd(a)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.s, r2.s)
    assert np.array_equal(r1.vt, r2.vt)


# ---------------------------------------------------------------- seeded sweeps


SHAPE_CLASSES = {
    "square": (10, 10, None),
    "tall": (12, 8, None),
    "wide": (8, 12, None),
    "tall_rank_deficient": (12, 8, 4),
    "wide_rank_deficient": (8, 12, 5),
}


def _jacobi_inputs():
    rng = np.random.default_rng(2024)
    cases = {
        "tall_640x32": rng.normal(size=(640, 32)),
        "tall_200x24_scaled": rng.normal(size=(200, 24)) * np.logspace(-6, 6, 24),
        "tall_50x10": rng.normal(size=(50, 10)),
        "rank_deficient_640x32_r12": random_matrix(rng, 640, 32, rank=12),
        "rank_deficient_40x16_r3": random_matrix(rng, 40, 16, rank=3),
        "one_column": rng.normal(size=(7, 1)),
        "square_16": rng.normal(size=(16, 16)),
        "square_32_rank_5": random_matrix(rng, 32, 32, rank=5),
    }
    dup = rng.normal(size=(60, 12))
    dup[:, 7] = dup[:, 2]
    dup[:, 11] = -dup[:, 0]
    cases["duplicated_columns"] = dup
    zero = rng.normal(size=(60, 12))
    zero[:, [0, 5, 11]] = 0.0
    cases["zero_columns"] = zero
    cases["all_zero"] = np.zeros((9, 4))
    # The strided `ddot` kernel takes four products a step and finishes the
    # rest one by one: cover every row count mod 4, and fewer than four rows.
    for m, n in ((2, 2), (3, 3), (5, 4), (6, 5), (11, 8), (13, 8), (17, 16)):
        cases[f"rows_{m}x{n}"] = rng.normal(size=(m, n))
    # Exact rank 8 of 16: it takes twelve sweeps, and in the last six
    # nearly every rotation is between near-null columns, as in the rows a
    # LoRA mid site collects.
    cases["rank_deficient_128x16_r8"] = random_matrix(rng, 128, 16, rank=8)
    # The rarer roots of the scalar step.  Equal norms with dot 1.0 give
    # zeta == 0, and with dot -1.0 zeta == -0.0, where only that branch
    # keeps t = 1.  e1 against (3e79, 1e90) gives gamma 3e79, above the
    # 1e78 tolerance, and zeta about 1.7e100, past the asymptotic cut;
    # against (1e140, 1e150) it gives zeta 5e159, where only that cut
    # keeps t from the 0 that an overflowing zeta * zeta gives.
    cases["zeta_zero_2x2"] = np.array([[1.0, 0.5], [0.5, 1.0]])
    cases["zeta_negative_zero_2x2"] = np.array([[1.0, -0.5], [0.5, -1.0]])
    cases["zeta_huge_2x2"] = np.array([[1.0, 3e79], [0.0, 1e90]])
    cases["zeta_overflow_2x2"] = np.array([[1.0, 1e140], [0.0, 1e150]])
    return cases


JACOBI_INPUTS = _jacobi_inputs()
REAL_INPUT = "oil_lora_attn_in.0_2_tasks"


def _oil_lora_rows(site, tasks):
    """The feature rows `site` holds after `tasks` tasks of configs/oil_lora.json."""
    cfg = cli.load_config(CONFIGS / "oil_lora.json")
    cfg.spec = replace(cfg.spec, tasks=tasks)
    with tempfile.TemporaryDirectory() as out:
        tr.continual_run(cfg.stream(), cfg.model_cfg, cfg.paradigm, cfg.train_cfg, out_dir=out)
        return ck.load_checkpoint(ck.task_path(out, tasks - 1))["buffers"][site].rows


def _first_zeta(a):
    alpha, beta = np.sum(a * a, axis=0)
    return (beta - alpha) / (2.0 * float(a[:, 0] @ a[:, 1]))


def test_two_column_inputs_reach_the_rare_roots():
    for name, sign in (("zeta_zero_2x2", False), ("zeta_negative_zero_2x2", True)):
        zeta = _first_zeta(JACOBI_INPUTS[name])
        assert zeta == 0.0 and np.signbit(zeta) == sign, name
    for name in ("zeta_huge_2x2", "zeta_overflow_2x2"):
        a = JACOBI_INPUTS[name]
        gamma = float(a[:, 0] @ a[:, 1])
        assert gamma > linalg.SVD_SWEEP_TOL * np.sqrt(np.prod(np.sum(a * a, axis=0))), name
        assert _first_zeta(a) > 1e100, name
    zeta = float(_first_zeta(JACOBI_INPUTS["zeta_overflow_2x2"]))
    assert zeta * zeta == float("inf")


def _jacobi_input(name):
    if name == REAL_INPUT:
        return _oil_lora_rows("attn_in.0", 2)
    return JACOBI_INPUTS[name]


@pytest.mark.parametrize("name", [*sorted(JACOBI_INPUTS), REAL_INPUT])
def test_jacobi_matches_reference_bit_for_bit(name):
    """The rotated columns and the accumulated rotation equal the plain
    numpy loop's, bit for bit (`np.array_equal`, no tolerance); b is
    rotated in the caller's array and v comes back C-ordered."""
    a = _jacobi_input(name)
    b_ref, b_new = a.copy(), a.copy()
    v_ref = reference_jacobi(b_ref)
    v_new = linalg._jacobi_orthogonalize(b_new[None])
    assert v_new.shape == (1, *v_ref.shape)
    assert np.array_equal(b_new, b_ref)
    assert np.array_equal(v_new[0], v_ref)
    assert v_new.flags.c_contiguous


def test_jacobi_rotates_the_callers_array():
    """b is written back into the array passed in, whatever its layout."""
    a = JACOBI_INPUTS["tall_50x10"]
    b_ref = a.copy()
    reference_jacobi(b_ref)
    for b in (a.copy(order="C"), a.copy(order="F"), np.hstack([a, a])[:, :10]):
        flags = (b.flags.c_contiguous, b.flags.f_contiguous)
        linalg._jacobi_orthogonalize(b[None])
        assert np.array_equal(b, b_ref)
        assert (b.flags.c_contiguous, b.flags.f_contiguous) == flags


def _jacobi_stacks():
    """Stacks of equal-shape inputs whose matrices converge in different
    sweeps, or need no rotation at all."""
    rng = np.random.default_rng(77)
    stacks = {
        "mixed_60x12": [
            np.linalg.qr(rng.normal(size=(60, 12)))[0],
            JACOBI_INPUTS["zero_columns"],
            JACOBI_INPUTS["duplicated_columns"],
            np.zeros((60, 12)),
            rng.normal(size=(60, 12)),
        ],
    }
    # Every single input runs in a stack too, beside a copy that rounds
    # differently and one whose zero first column skips its pairs.
    for name, a in JACOBI_INPUTS.items():
        zeroed = a.copy()
        zeroed[:, 0] = 0.0
        stacks[name] = [a, 1e-3 * a, zeroed]
    return {name: np.stack(mats) for name, mats in stacks.items()}


JACOBI_STACKS = _jacobi_stacks()


@pytest.mark.parametrize("name", sorted(JACOBI_STACKS))
def test_jacobi_stack_matches_reference_per_matrix(name):
    """Each matrix of a lockstep stack comes out as the plain loop leaves it
    alone, bit for bit."""
    stack = JACOBI_STACKS[name]
    b_new = stack.copy()
    v_new = linalg._jacobi_orthogonalize(b_new)
    assert v_new.shape == (stack.shape[0], stack.shape[2], stack.shape[2])
    assert v_new.flags.c_contiguous
    for k, a in enumerate(stack):
        b_ref = a.copy()
        v_ref = reference_jacobi(b_ref)
        assert np.array_equal(b_new[k], b_ref), k
        assert np.array_equal(v_new[k], v_ref), k


@pytest.mark.parametrize("name", sorted(n for n in JACOBI_INPUTS if n.startswith("rows_")))
def test_stack_pair_dot_is_the_single_dot(name):
    """The stack's batched pair dot, `np.matmul` of (B, 1, m) by (B, m, 1)
    views at stride 2, gives per matrix the bits of `.dot` on those views
    and of the plain loop's column dot."""
    stack = JACOBI_STACKS[name]
    nb, m, n = stack.shape
    store = np.zeros((n, nb, m + n, 2))
    store[:, :, :m, 0] = stack.transpose(2, 0, 1)
    for i in range(n):
        for j in range(n):
            x, y = store[i, :, :m, 0], store[j, :, :m, 0]
            batched = np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]
            for q in range(nb):
                assert _same_bits(batched[q], np.float64(x[q].dot(y[q]))), (i, j, q)
                assert _same_bits(batched[q], stack[q][:, i] @ stack[q][:, j]), (i, j, q)


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _svd_stacks():
    rng = np.random.default_rng(31)
    tall = [rng.normal(size=(12, 8)) for _ in range(4)]
    wide = [rng.normal(size=(8, 12)) for _ in range(4)]
    # Rank 4 of 8 and an all-zero matrix take the degenerate completion;
    # the full-rank matrix beside them does not.
    tall_deficient = [random_matrix(rng, 12, 8, rank=4), np.zeros((12, 8)),
                      rng.normal(size=(12, 8)), random_matrix(rng, 12, 8, rank=1)]
    wide_deficient = [random_matrix(rng, 8, 12, rank=5), np.zeros((8, 12)), rng.normal(size=(8, 12))]
    # One class of `eval.svd_suite` as it stacks it: seeds 1000-1099.
    m, n, rank = SHAPE_CLASSES["wide_rank_deficient"]
    suite = [random_matrix(np.random.default_rng(1000 + seed), m, n, rank) for seed in range(100)]
    return {"tall": tall, "wide": wide, "tall_rank_deficient": tall_deficient,
            "wide_rank_deficient": wide_deficient, "one_column": [rng.normal(size=(20, 1)) for _ in range(3)],
            "svd_suite_wide_rank_deficient": suite}


SVD_STACKS = {name: np.stack(mats) for name, mats in _svd_stacks().items()}


@pytest.mark.parametrize("name", sorted(SVD_STACKS))
def test_svd_stack_slices_equal_single_svds(name):
    """Slice k of a stack's factors is svd(stack[k]), bit for bit, and a
    single matrix keeps 2-D factors."""
    stack = SVD_STACKS[name]
    res = linalg.svd(stack)
    k_dim = min(stack.shape[1:])
    assert res.u.shape == (stack.shape[0], stack.shape[1], k_dim)
    assert res.s.shape == (stack.shape[0], k_dim)
    assert res.vt.shape == (stack.shape[0], k_dim, stack.shape[2])
    assert res.u.flags.c_contiguous and res.vt.flags.c_contiguous
    for k, a in enumerate(stack):
        one = linalg.svd(a)
        assert one.u.ndim == 2 and one.s.ndim == 1
        assert _same_bits(res.u[k], one.u), k
        assert _same_bits(res.s[k], one.s), k
        assert _same_bits(res.vt[k], one.vt), k


def test_svd_refuses_a_stack_with_a_non_finite_matrix():
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 1, 0] = np.inf
    with pytest.raises(ValueError, match="matrix 2 of the stack"):
        linalg.svd(stack)
    stack[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="matrix 2 of the stack"):
        linalg.svd(stack)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2, 2), ()])
def test_svd_refuses_other_ranks(shape):
    with pytest.raises(ValueError, match="2-D matrix or a 3-D stack"):
        linalg.svd(np.ones(shape))


def test_svd_refuses_an_empty_stack():
    with pytest.raises(ValueError, match="empty stack"):
        linalg.svd(np.zeros((0, 3, 3)))


def test_factor_layouts_are_pinned():
    """Memory layout alone moves later last bits (the criterion-7 FOUND line
    in CHANGES.md), so the layouts the SVD hands on are fixed here; the
    bases built from them are pinned in `tests/test_projection.py`."""
    rng = np.random.default_rng(9)
    for a in (rng.normal(size=(40, 8)), rng.normal(size=(8, 40))):
        res = linalg.svd(a)
        assert res.u.flags.c_contiguous and res.vt.flags.c_contiguous


@pytest.mark.parametrize("name", sorted(SHAPE_CLASSES))
def test_svd_seeded_suite(name):
    m, n, rank = SHAPE_CLASSES[name]
    k = min(m, n)
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        a = random_matrix(rng, m, n, rank)
        res = linalg.svd(a)
        a_norm = np.linalg.norm(a)
        recon = res.u @ np.diag(res.s) @ res.vt
        assert np.linalg.norm(recon - a) <= 1e-10 * max(a_norm, 1e-30)
        assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) <= 1e-10
        assert np.linalg.norm(res.vt @ res.vt.T - np.eye(k)) <= 1e-10
        assert np.all(res.s >= 0.0)
        assert np.all(np.diff(res.s) <= 1e-12)
        # singular values agree with the LAPACK oracle
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(res.s - s_ref)) <= 1e-10 * max(s_ref[0], 1.0)
        # sign canonicalization
        for j in range(k):
            col = res.u[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0.0


@pytest.mark.parametrize("shape,rank", [((12, 8), 4), ((10, 10), 3)])
def test_svd_null_projector_matches_lapack(shape, rank):
    # Tall/square only: with rows >= cols the zero-sigma right-singular
    # vectors span exactly null(a), so the projector is well defined.
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        a = random_matrix(rng, *shape, rank=rank)
        res = linalg.svd(a)
        keep = res.s <= 1e-10 * res.s[0]
        v0 = res.vt[keep].T
        mine = v0 @ v0.T
        ref = lapack_null_projector(a, 1e-10)
        assert np.linalg.norm(mine - ref) <= 1e-9


@pytest.mark.parametrize("shape,rank", [((8, 12), 5), ((12, 8), 4), ((10, 10), 3)])
def test_svd_row_space_projector_matches_lapack(shape, rank):
    # Works for every shape: the kept (sigma > 0) right-singular vectors
    # span the row space, so I - V1 V1^T is the full null-space projector.
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        a = random_matrix(rng, *shape, rank=rank)
        n = a.shape[1]
        res = linalg.svd(a)
        v1 = res.vt[res.s > 1e-10 * res.s[0]].T
        mine = np.eye(n) - v1 @ v1.T
        _, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
        v1_ref = vt_ref[s_ref > 1e-10 * s_ref[0]].T
        ref = np.eye(n) - v1_ref @ v1_ref.T
        assert np.linalg.norm(mine - ref) <= 1e-9


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 7), st.integers(1, 7)),
        elements=st.floats(-10, 10, allow_nan=False),
    )
)
def test_svd_reconstruction_property(a):
    res = linalg.svd(a)
    a_norm = np.linalg.norm(a)
    assert np.linalg.norm(res.u @ np.diag(res.s) @ res.vt - a) <= 1e-10 * max(a_norm, 1.0)
    k = min(a.shape)
    assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) <= 1e-10


# ---------------------------------------------------------------- cosine


def test_cosine_orthogonal_is_zero():
    assert linalg.cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_parallel_and_antiparallel():
    v = np.array([0.3, -1.2, 4.0])
    assert linalg.cosine_similarity(v, 2.5 * v) == pytest.approx(1.0, abs=1e-12)
    assert linalg.cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError):
        linalg.cosine_similarity(np.zeros(3), np.array([1.0, 0.0, 0.0]))


@given(
    hnp.arrays(np.float64, 5, elements=st.floats(-50, 50, allow_nan=False)),
    hnp.arrays(np.float64, 5, elements=st.floats(-50, 50, allow_nan=False)),
)
def test_cosine_bounded_and_symmetric(u, v):
    if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
        return
    c = linalg.cosine_similarity(u, v)
    assert -1.0 <= c <= 1.0
    assert c == pytest.approx(linalg.cosine_similarity(v, u), abs=1e-12)


# ---------------------------------------------------------------- orthonormalize


def test_orthonormalize_drops_dependent_columns():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    q = linalg.orthonormalize(a)
    assert q.shape == (3, 2)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)


def test_orthonormalize_identity_passthrough():
    q = linalg.orthonormalize(np.eye(4))
    assert np.allclose(q, np.eye(4), atol=1e-12)


def test_orthonormalize_idempotent():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 4))
    q1 = linalg.orthonormalize(a)
    q2 = linalg.orthonormalize(q1)
    assert q1.shape == q2.shape
    assert np.max(np.abs(q1 - q2)) <= 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_orthonormalize_matches_span_of_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    c = int(rng.integers(1, 6))
    a = rng.normal(size=(m, c))
    if rng.random() < 0.5 and c >= 2:
        a[:, c - 1] = a[:, 0] * 0.5  # force a dependent column
    q = linalg.orthonormalize(a)
    ref = gram_schmidt_oracle(a)
    assert q.shape == ref.shape
    # same span: projectors agree
    assert np.linalg.norm(q @ q.T - ref @ ref.T) <= 1e-8


def test_orthonormal_complement_spans_rest():
    rng = np.random.default_rng(3)
    q = linalg.orthonormalize(rng.normal(size=(6, 2)))
    comp = linalg.complete_orthonormal(q, 4)
    assert comp.shape == (6, 4)
    full = np.concatenate([q, comp], axis=1)
    assert np.allclose(full.T @ full, np.eye(6), atol=1e-10)


def test_orthonormal_complement_of_empty_is_full():
    comp = linalg.complete_orthonormal(np.zeros((4, 0)), 4)
    assert comp.shape == (4, 4)
    assert np.allclose(comp.T @ comp, np.eye(4), atol=1e-12)


def test_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        linalg.matrix([[np.inf, 0.0]])
