"""Dense float64 matrix kernels for the projection machinery.

Everything here is deterministic: the same input array always produces the
same output bits, which is what makes run-level reproducibility checks
byte-stable.  The SVD is a one-sided Jacobi, chosen over bidiagonalization
schemes because at this scale it is simple, accurate, and has no
implementation-defined branching.  It factors one matrix or a (B, m, n)
stack of them.  A single matrix takes its scalar steps on Python floats,
since numpy's per-call cost would exceed that float math; a stack runs
its sweeps in lockstep, taking each column pair for the whole stack in
one batched dot, one vectorized scalar step and one set of rotation
ufunc calls.  Both forms use only correctly rounded operations in the
same order, so every matrix comes out with the bits it has when factored
alone.  The pair loop keeps the arithmetic of the plain per-pair numpy
loop, which `tests/test_linalg.py` keeps as the bit oracle, and changes
only where the numbers live: each column of b and of the accumulated
rotation sits in one contiguous row of a column-blocked store,
interleaved with padding, so a rotation streams through memory instead
of touching one cache line per element.  The pair dot then reads its
column at stride 2, and BLAS `ddot` sums every non-unit stride in the
same order, so it returns the bits of a dot down a column of an (m, n)
C-ordered matrix.  Dots therefore always run on the stride-2 views of
the store, never on gathered (unit-stride) copies of its rows.
"""

import math
from dataclasses import dataclass

import numpy as np

SVD_SWEEP_TOL = 1e-12
SVD_MAX_SWEEPS = 60
DEPENDENT_COL_TOL = 1e-10


def matrix(data) -> np.ndarray:
    """Validate and copy `data` into a float64 matrix (2-D) or a stack of
    matrices (3-D, at least one).

    Rejects any other rank, an empty stack and any NaN/Inf entry up front,
    naming the matrix of a stack that holds it, so the numeric kernels
    never have to re-check.
    """
    a = np.array(data, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D matrix or a 3-D stack of matrices, got ndim={a.ndim}")
    if a.ndim == 3 and a.shape[0] == 0:
        raise ValueError("expected a stack of at least one matrix, got an empty stack")
    bad = np.flatnonzero(~np.isfinite(a).all(axis=(-2, -1)))
    if bad.size:
        where = f"matrix {bad[0]} of the stack: " if a.ndim == 3 else ""
        raise ValueError(f"{where}matrix entries must be finite (no NaN/Inf)")
    return a


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch for cosine: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity of a zero vector is undefined")
    return float(np.clip(float(u @ v) / (nu * nv), -1.0, 1.0))


@dataclass
class SvdResult:
    """Reduced SVD: a = u @ diag(s) @ vt with k = min(rows, cols) columns;
    the factors of a stack carry its leading axis.

    s is non-negative and descending; u has orthonormal columns; vt has
    orthonormal rows.  Sign convention: the largest-magnitude entry of each
    u column is non-negative (ties broken by lowest row index).
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def _jacobi_orthogonalize(b: np.ndarray) -> np.ndarray:
    """Rotate column pairs of every matrix in the (B, m, n) stack b in place
    until its columns are mutually orthogonal; returns the accumulated
    right rotations v, (B, n, n) and C-ordered (b_in[k] @ v[k] = b_out[k]).

    Convergence: every pair satisfies |<bi,bj>| <= tol * |bi| * |bj|, or the
    sweep cap is hit.  Pair order is fixed, so the result is deterministic.

    Each matrix does exactly the work it would do alone: its own cached
    squared norms, pair dots and scalar steps, and it stops after the
    first sweep in which it rotates nothing.  The step comes in two forms,
    chosen once per call from B, with the same correctly rounded operations
    in the same order, so every matrix gets the same bits from either.  A
    single matrix (`_sweep_one`) steps on Python floats and rotates its
    rows with 0-d c and s: numpy's per-call cost would exceed its float
    math.  A stack (`_sweep_stack`) takes each pair (i, j) for all its
    active matrices at once, one batched dot and one vectorized scalar
    step, and rotates the matrices that rotate by one set of ufunc calls
    on their gathered rows.  Every element is still `c*x - s*y` and
    `s*x + c*y`.

    b and v live in one store of shape (n, B, m + n, 2): column k of the
    stacked matrix [b; v] of matrix q is `store[k, q, :m + n, 0]`, and the
    odd slots are padding that only ever holds signed zeros.  A rotation
    streams through the contiguous padded rows `store.reshape(n, B, -1)[k]`.
    The pair dot always runs on the stride-2 views `store[k, :, :m, 0]`,
    never on gathered rows: OpenBLAS's strided `ddot` adds the products in
    groups of four into two partial sums whatever the stride, and only its
    unit-stride kernel sums in another order.  So the stride-2 dot gives
    the bits of the plain loop's stride-n column dot (n >= 2 whenever a
    pair exists), and a stack's `np.matmul` of (B, 1, m) by (B, m, 1) views
    calls that same dot per matrix.  The squared norms are still reduced
    along the row axis of a C-ordered product.  So every matrix's output
    bits are those of the plain per-pair numpy loop on that matrix alone.
    Folding the update into a 2x2 matmul, dotting unit-stride rows or
    summing an F-ordered product changes them.
    """
    nb, m, n = b.shape
    store = np.zeros((n, nb, m + n, 2))
    b_t = store[:, :, :m, 0].transpose(1, 2, 0)
    b_t[...] = b
    store[:, :, m:, 0] = np.eye(n)[:, None]
    (_sweep_one if nb == 1 else _sweep_stack)(store, b_t)
    b[...] = b_t
    return np.ascontiguousarray(store[:, :, m:, 0].transpose(1, 2, 0))


def _sweep_one(store: np.ndarray, b_t: np.ndarray) -> None:
    """`_jacobi_orthogonalize`'s sweeps for a stack of one, on Python floats."""
    _, m, n = b_t.shape
    cols = list(store.reshape(n, 2 * (m + n)))
    b_cols = list(store[:, 0, :m, 0])
    prod = np.empty(b_t.shape)
    sx = np.empty(2 * (m + n))
    sy = np.empty(2 * (m + n))
    # A 0-d array operand costs a ufunc call less than a Python float, and
    # multiplies to the same bits.
    c0 = np.empty(())
    s0 = np.empty(())
    for _ in range(SVD_MAX_SWEEPS):
        # Re-sync cached squared norms each sweep to bound drift.
        sq = np.sum(np.multiply(b_t, b_t, out=prod), axis=1)[0].tolist()
        rotated = False
        for i in range(n - 1):
            x = cols[i]
            bi = b_cols[i]
            for j in range(i + 1, n):
                alpha = sq[i]
                beta = sq[j]
                if alpha <= 0.0 or beta <= 0.0:
                    continue
                gamma = float(bi.dot(b_cols[j]))
                if gamma == 0.0 or abs(gamma) <= SVD_SWEEP_TOL * math.sqrt(alpha * beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                if zeta == 0.0:
                    t = 1.0
                elif abs(zeta) > 1e100:
                    t = 0.5 / zeta  # asymptotic root; zeta**2 would overflow
                else:
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                cs = c * s
                # Cached norms can round slightly negative; clamp so the
                # relative-tolerance test above stays NaN-free.
                sq[i] = max(c * c * alpha - 2.0 * cs * gamma + s * s * beta, 0.0)
                sq[j] = max(s * s * alpha + 2.0 * cs * gamma + c * c * beta, 0.0)
                rotated = True
                c0[()] = c
                s0[()] = s
                y = cols[j]
                np.multiply(x, s0, out=sx)
                np.multiply(y, s0, out=sy)
                np.multiply(x, c0, out=x)
                np.subtract(x, sy, out=x)
                np.multiply(y, c0, out=y)
                np.add(sx, y, out=y)
        if not rotated:
            break


def _sweep_stack(store: np.ndarray, b_t: np.ndarray) -> None:
    """`_jacobi_orthogonalize`'s sweeps for a stack of two or more: the
    `_sweep_one` step, written as numpy arithmetic over the stack.

    Every entry is computed, skipped ones included, so the errors that
    Python floats pass silently (an overflowing `zeta * zeta`) are
    silenced here too; `np.where(0.0 > v, 0.0, v)` is Python's
    `max(v, 0.0)`, which keeps a -0.0.
    """
    nb, m, n = b_t.shape
    rows = store.reshape(n, nb, 2 * (m + n))
    lhs = [store[k, :, None, :m, 0] for k in range(n)]
    rhs = [store[k, :, :m, 0, None] for k in range(n)]
    dots = np.empty((nb, 1, 1))
    gamma = dots.reshape(nb)
    prod = np.empty(b_t.shape)
    active = np.ones(nb, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(SVD_MAX_SWEEPS):
            # Re-sync cached squared norms each sweep to bound drift.
            sq = np.sum(np.multiply(b_t, b_t, out=prod), axis=1).T.copy()
            rotated = np.zeros(nb, dtype=bool)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    np.matmul(lhs[i], rhs[j], out=dots)
                    alpha = sq[i]
                    beta = sq[j]
                    skip = ((alpha <= 0.0) | (beta <= 0.0) | (gamma == 0.0)
                            | (np.abs(gamma) <= SVD_SWEEP_TOL * np.sqrt(alpha * beta)))
                    qs = np.flatnonzero(active & ~skip)
                    if not qs.size:
                        continue
                    gather = qs.size < nb
                    if not gather:
                        qs = slice(None)  # views: no gather or scatter
                    a, bt, g = alpha[qs], beta[qs], gamma[qs]
                    zeta = (bt - a) / (2.0 * g)
                    az = np.abs(zeta)
                    t = np.copysign(1.0, zeta) / (az + np.sqrt(1.0 + zeta * zeta))
                    t = np.where(az > 1e100, 0.5 / zeta, t)
                    t = np.where(zeta == 0.0, 1.0, t)
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = c * t
                    cs2 = 2.0 * (c * s) * g
                    cc = c * c
                    ss = s * s
                    vi = cc * a - cs2 + ss * bt
                    vj = ss * a + cs2 + cc * bt
                    sq[i, qs] = np.where(0.0 > vi, 0.0, vi)
                    sq[j, qs] = np.where(0.0 > vj, 0.0, vj)
                    rotated[qs] = True
                    c = c[:, None]
                    s = s[:, None]
                    x = rows[i][qs]
                    y = rows[j][qs]
                    wx = x * s
                    wy = y * s
                    np.multiply(x, c, out=x)
                    np.subtract(x, wy, out=x)
                    np.multiply(y, c, out=y)
                    np.add(wx, y, out=y)
                    if gather:
                        rows[i][qs] = x
                        rows[j][qs] = y
            active &= rotated
            if not active.any():
                break


def complete_orthonormal(cols: np.ndarray, need: int) -> np.ndarray:
    """Extend the orthonormal columns `cols` (m x c) with `need` more
    orthonormal columns drawn from the standard basis.

    Greedy on residual mass: the residual norm of e_k against an
    orthonormal q is sqrt(1 - |row k of q|^2), so the candidate with the
    smallest row norm wins each round (ties to the lowest index).
    """
    m = cols.shape[0]
    q = cols.copy()
    out = []
    for _ in range(need):
        row_mass = np.sum(q * q, axis=1) if q.shape[1] else np.zeros(m)
        k = int(np.argmin(row_mass))
        e = np.zeros(m)
        e[k] = 1.0
        r = e - q @ (q.T @ e)
        r = r - q @ (q.T @ r)
        rn = float(np.linalg.norm(r))
        if rn <= 1e-12:
            raise ValueError("cannot complete orthonormal basis")
        r = r / rn
        q = np.concatenate([q, r[:, None]], axis=1)
        out.append(r)
    if not out:
        return np.zeros((m, 0))
    return np.stack(out, axis=1)


def svd(a: np.ndarray) -> SvdResult:
    """One-sided Jacobi SVD on the shorter dimension, of one matrix or of
    each matrix in a stack.

    `a` is (m, n) or (B, m, n), like `np.linalg.svd`; a stack's factors
    are stacked the same way, and slice k of its u, s and vt equals
    `svd(a[k])` bit for bit: a 2-D input runs as a stack of one, both
    Jacobi step forms give each matrix the plain per-matrix loop's bits
    (`_jacobi_orthogonalize`), and the sort, scaling and sign steps after
    them work matrix by matrix.  For rows >= cols the Jacobi sweeps orthogonalize the columns of a
    copy of `a`; column norms become the singular values and the
    accumulated rotations become v.  For rows < cols the factorization is
    computed on the transpose and the factors are swapped back.  Columns
    whose singular value underflows relative to their matrix's largest
    (<= 1e-13 * s_max) are zeroed and their u column rebuilt from the
    orthogonal complement, so u stays orthonormal even for rank-deficient
    or zero input.  u and vt come back C-ordered.
    """
    a = matrix(a)
    m, n = a.shape[-2:]
    if m < n:
        inner = svd(a.swapaxes(-1, -2))
        return _canonicalize(SvdResult(u=inner.vt.swapaxes(-1, -2).copy(), s=inner.s.copy(),
                                       vt=inner.u.swapaxes(-1, -2).copy()))

    b = np.ascontiguousarray(a if a.ndim == 3 else a[None])
    v = _jacobi_orthogonalize(b)
    norms = np.sqrt(np.sum(b * b, axis=1))
    order = np.argsort(-norms, axis=1, kind="stable")
    norms = np.take_along_axis(norms, order, axis=1)
    b = np.take_along_axis(b, order[:, None], axis=2)
    v = np.take_along_axis(v, order[:, None], axis=2)

    live = norms > 1e-13 * norms[:, :1]
    u = np.zeros(b.shape)
    np.divide(b, norms[:, None], out=u, where=live[:, None])
    norms[~live] = 0.0
    for k in np.flatnonzero(~live.all(axis=1)):
        dead = ~live[k]
        u[k][:, dead] = complete_orthonormal(u[k][:, live[k]], int(dead.sum()))

    lead = a.shape[:-2]
    return _canonicalize(SvdResult(u=u.reshape(a.shape), s=norms.reshape(lead + (n,)),
                                   vt=v.swapaxes(1, 2).copy().reshape(lead + (n, n))))


def _canonicalize(res: SvdResult) -> SvdResult:
    """Flip the sign of each u column whose largest-magnitude entry (the
    first on ties) is negative, and of the matching vt row."""
    u, vt = res.u, res.vt
    if u.size:
        i_star = np.argmax(np.abs(u), axis=-2)
        flip = np.take_along_axis(u, i_star[..., None, :], axis=-2) < 0.0
        np.negative(u, out=u, where=flip)
        np.negative(vt, out=vt, where=flip.swapaxes(-1, -2))
    return res


def orthonormalize(a: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Returns the surviving columns; a column is dropped when its residual
    after projection falls below DEPENDENT_COL_TOL relative to max(1, its
    input norm).  Orthonormal input passes through unchanged.
    """
    a = matrix(a)
    if a.ndim != 2:
        raise ValueError(f"orthonormalize: expected a 2-D matrix, got ndim={a.ndim}")
    kept: list[np.ndarray] = []
    for j in range(a.shape[1]):
        col = a[:, j].copy()
        orig_norm = float(np.linalg.norm(col))
        for q in kept:
            col = col - (q @ col) * q
        for q in kept:
            col = col - (q @ col) * q
        rn = float(np.linalg.norm(col))
        if rn <= DEPENDENT_COL_TOL * max(1.0, orig_norm):
            continue
        kept.append(col / rn)
    if not kept:
        return np.zeros((a.shape[0], 0))
    return np.stack(kept, axis=1)

