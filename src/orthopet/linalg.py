"""Dense float64 matrix kernels for the projection machinery.

Everything here is deterministic: the same input array always produces the
same output bits, which is what makes run-level reproducibility checks
byte-stable.  The SVD is a one-sided Jacobi, chosen over bidiagonalization
schemes because at this scale it is simple, accurate, and has no
implementation-defined branching.  Its pair loop keeps the arithmetic of
the plain per-pair numpy loop and trims only interpreter work, so the
bits match that loop, which `tests/test_linalg.py` keeps as the oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

SVD_SWEEP_TOL = 1e-12
SVD_MAX_SWEEPS = 60
DEPENDENT_COL_TOL = 1e-10


def matrix(data) -> np.ndarray:
    """Validate and copy `data` into a dense 2-D float64 array.

    Rejects non-2-D input and any NaN/Inf entry up front so the numeric
    kernels never have to re-check.
    """
    a = np.array(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def _check_2d(a: np.ndarray, name: str) -> None:
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D ndarray")


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
    """Reduced SVD: a = u @ diag(s) @ vt with k = min(rows, cols) columns.

    s is non-negative and descending; u has orthonormal columns; vt has
    orthonormal rows.  Sign convention: the largest-magnitude entry of each
    u column is non-negative (ties broken by lowest row index).
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def _jacobi_orthogonalize(b: np.ndarray) -> np.ndarray:
    """Rotate column pairs of b in place until all columns are mutually
    orthogonal; returns the accumulated right rotation v (b_in @ v = b_out).

    Convergence: every pair satisfies |<bi,bj>| <= tol * |bi| * |bj|, or the
    sweep cap is hit.  Pair order is fixed, so the result is deterministic.

    b and v are rotated as one stacked matrix [b; v], so each rotation is
    six in-place ufunc calls on a column pair through two scratch vectors;
    every element is still `c*x - s*y` and `s*x + c*y`.  The dot product
    runs on the b rows of the stacked columns, which have b's own strides,
    and the scalar work runs on Python floats (`math.sqrt` and
    `math.copysign` are correctly rounded, like their numpy forms).  So
    the output bits are those of the plain per-pair numpy loop.  Folding
    the update into a 2x2 matmul, or dotting unit-stride rows, changes them.
    """
    m, n = b.shape
    bv = np.vstack([b, np.eye(n)])
    cols = [bv[:, k] for k in range(n)]
    b_cols = [bv[:m, k] for k in range(n)]
    sx = np.empty(m + n)
    sy = np.empty(m + n)
    for _ in range(SVD_MAX_SWEEPS):
        # Re-sync cached squared norms each sweep to bound drift.
        sq = np.sum(bv[:m] * bv[:m], axis=0).tolist()
        rotated = False
        for i in range(n - 1):
            x = cols[i]
            for j in range(i + 1, n):
                alpha = sq[i]
                beta = sq[j]
                if alpha <= 0.0 or beta <= 0.0:
                    continue
                gamma = float(b_cols[i] @ b_cols[j])
                if gamma == 0.0 or abs(gamma) <= SVD_SWEEP_TOL * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                if zeta == 0.0:
                    t = 1.0
                elif abs(zeta) > 1e100:
                    t = 0.5 / zeta  # asymptotic root; zeta**2 would overflow
                else:
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                y = cols[j]
                np.multiply(x, s, out=sx)
                np.multiply(y, s, out=sy)
                np.multiply(x, c, out=x)
                np.subtract(x, sy, out=x)
                np.multiply(y, c, out=y)
                np.add(sx, y, out=y)
                cs = c * s
                # Cached norms can round slightly negative; clamp so the
                # relative-tolerance test above stays NaN-free.
                sq[i] = max(c * c * alpha - 2.0 * cs * gamma + s * s * beta, 0.0)
                sq[j] = max(s * s * alpha + 2.0 * cs * gamma + c * c * beta, 0.0)
        if not rotated:
            break
    b[...] = bv[:m]
    return bv[m:].copy()


def _complete_orthonormal(cols: np.ndarray, need: int) -> np.ndarray:
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
    """One-sided Jacobi SVD on the shorter dimension.

    For rows >= cols the Jacobi sweeps orthogonalize the columns of a copy
    of `a`; column norms become the singular values and the accumulated
    rotations become v.  For rows < cols the factorization is computed on
    the transpose and the factors are swapped back.  Columns whose singular
    value underflows relative to the largest (<= 1e-13 * s_max) are zeroed
    and their u column rebuilt from the orthogonal complement, so u stays
    orthonormal even for rank-deficient or zero input.
    """
    a = matrix(a)
    m, n = a.shape
    if m < n:
        inner = svd(a.T)
        return _canonicalize(SvdResult(u=inner.vt.T.copy(), s=inner.s.copy(), vt=inner.u.T.copy()))

    b = a.copy()
    v = _jacobi_orthogonalize(b)
    norms = np.sqrt(np.sum(b * b, axis=0))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    b = b[:, order]
    v = v[:, order]

    s_max = float(norms[0]) if n > 0 else 0.0
    floor = 1e-13 * s_max
    u = np.zeros((m, n))
    degenerate = []
    for j in range(n):
        if norms[j] > floor:
            u[:, j] = b[:, j] / norms[j]
        else:
            degenerate.append(j)
            norms[j] = 0.0
    if degenerate:
        keep = [j for j in range(n) if j not in degenerate]
        extra = _complete_orthonormal(u[:, keep], len(degenerate))
        for idx, j in enumerate(degenerate):
            u[:, j] = extra[:, idx]

    return _canonicalize(SvdResult(u=u, s=norms, vt=v.T.copy()))


def _canonicalize(res: SvdResult) -> SvdResult:
    u, s, vt = res.u, res.s, res.vt
    for j in range(u.shape[1]):
        col = u[:, j]
        i_star = int(np.argmax(np.abs(col)))
        if col[i_star] < 0.0:
            u[:, j] = -col
            vt[j, :] = -vt[j, :]
    return SvdResult(u=u, s=s, vt=vt)


def orthonormalize(a: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Returns the surviving columns; a column is dropped when its residual
    after projection falls below DEPENDENT_COL_TOL relative to max(1, its
    input norm).  Orthonormal input passes through unchanged.
    """
    _check_2d(a, "a")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    kept: list[np.ndarray] = []
    for j in range(a.shape[1]):
        col = a[:, j].astype(np.float64).copy()
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


def orthonormal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the subspace orthogonal to span(basis columns)."""
    _check_2d(basis, "basis")
    w = basis.shape[0]
    need = w - basis.shape[1]
    if need <= 0:
        return np.zeros((w, 0))
    return _complete_orthonormal(basis, need)
