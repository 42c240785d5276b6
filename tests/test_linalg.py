import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthopet import linalg


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
    return cases


JACOBI_INPUTS = _jacobi_inputs()


@pytest.mark.parametrize("name", sorted(JACOBI_INPUTS))
def test_jacobi_matches_reference_bit_for_bit(name):
    """The rotated columns and the accumulated rotation equal the plain
    numpy loop's, bit for bit (`np.array_equal`, no tolerance)."""
    a = JACOBI_INPUTS[name]
    b_ref, b_new = a.copy(), a.copy()
    v_ref = reference_jacobi(b_ref)
    v_new = linalg._jacobi_orthogonalize(b_new)
    assert np.array_equal(b_new, b_ref)
    assert np.array_equal(v_new, v_ref)


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
    comp = linalg.orthonormal_complement(q)
    assert comp.shape == (6, 4)
    full = np.concatenate([q, comp], axis=1)
    assert np.allclose(full.T @ full, np.eye(6), atol=1e-10)


def test_orthonormal_complement_of_empty_is_full():
    comp = linalg.orthonormal_complement(np.zeros((4, 0)))
    assert comp.shape == (4, 4)
    assert np.allclose(comp.T @ comp, np.eye(4), atol=1e-12)


def test_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        linalg.matrix([[np.inf, 0.0]])
