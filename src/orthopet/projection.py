"""Null-space gradient projection: feature buffers, bases, and projectors.

The anti-forgetting recipe, per insertion site: stack old-task feature rows
into a buffer, SVD it, keep the right-singular directions whose singular
values are near zero, and confine every gradient step to their span.  What
that buys depends on where the tensor sits.  For the bypass factors
(adapter, LoRA) a projected step leaves the factor's output on the
buffered features unchanged (exactly at an exact-null threshold, up to the
leak a nonzero epsilon admits otherwise), so old-input drift is second
order in the step.  Prompt and prefix rows enter attention as extra keys and
values, and those paths stay first order in the step however the rows are
projected (a value row's change reaches every old token through its
attention weight), so projection only reduces their drift.

Feature width is d for token-space sites and r for the bottleneck y-spaces.
In the tokens-as-rows convention both basis flavors come out of the same
SVD (the left basis of the column-oriented formulation is the right basis
of the row-stacked one); `side` records which axis of the gradient the
projector must act on: "right" multiplies B B^T onto the gradient's width
axis (prompt and prefix rows), "left" onto its input-dimension axis (the
down/up factor rows).
"""

import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import linalg

SIDES = ("right", "left")


class EmptyBasisWarning(UserWarning):
    """A feature buffer turned out full rank: the null space is empty and
    every projected gradient at this site will be zero."""


@dataclass
class ProjectionConfig:
    epsilon: float = 0.02
    beta: float = 0.7
    sample_count: int = 32
    buffer_cap: int = 1024

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.buffer_cap < self.sample_count:
            raise ValueError("buffer_cap must be >= sample_count")


@dataclass
class FeatureBuffer:
    """Sampled feature rows for one insertion site, reservoir-capped.

    `seen` counts every row ever offered so reservoir replacement stays
    uniform over the whole stream, not just the survivors.
    """

    site: str
    width: int
    cap: int
    rows: np.ndarray = None
    tasks: np.ndarray = None
    seen: int = 0

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if self.rows is None:
            self.rows = np.zeros((0, self.width))
        if self.tasks is None:
            self.tasks = np.zeros(0, dtype=np.int64)

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    def add(self, new_rows: np.ndarray, task_id: int, rng: np.random.Generator) -> None:
        new_rows = np.asarray(new_rows, dtype=np.float64)
        if new_rows.ndim != 2 or new_rows.shape[1] != self.width:
            raise ValueError(f"rows for site {self.site} must be (n, {self.width}), got {new_rows.shape}")
        if not np.all(np.isfinite(new_rows)):
            raise ValueError(f"non-finite feature rows at site {self.site}")
        rows = list(self.rows)
        tasks = list(self.tasks)
        for row in new_rows:
            self.seen += 1
            if len(rows) < self.cap:
                rows.append(row)
                tasks.append(task_id)
            else:
                j = int(rng.integers(0, self.seen))
                if j < self.cap:
                    rows[j] = row
                    tasks[j] = task_id
        self.rows = np.stack(rows) if rows else np.zeros((0, self.width))
        self.tasks = np.asarray(tasks, dtype=np.int64)


@dataclass
class ProjectionBasis:
    """Orthonormal columns spanning the allowed update directions."""

    b: np.ndarray
    side: str

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.b.ndim != 2:
            raise ValueError("basis must be a 2-D column matrix")

    @property
    def width(self) -> int:
        return self.b.shape[0]

    @property
    def ncols(self) -> int:
        return self.b.shape[1]

    def projector(self) -> np.ndarray:
        return self.b @ self.b.T


def identity_basis(width: int, side: str = "right") -> ProjectionBasis:
    """The vacuous constraint: projection with it is the identity map."""
    return ProjectionBasis(b=np.eye(width), side=side)


def build_basis(buffer: FeatureBuffer, epsilon: float, side: str) -> ProjectionBasis:
    """Null-space basis of the buffered rows at relative threshold epsilon.

    Directions with sigma_i <= epsilon * sigma_1 are kept (all of them when
    sigma_1 = 0).  When the buffer has fewer rows than columns the reduced
    SVD cannot see the rest of the exact null space, so the orthonormal
    complement of the row space is appended; without it a single-task
    buffer would leave no room to train at all.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    if buffer.count == 0:
        raise RuntimeError(f"cannot build a basis from the empty buffer at site {buffer.site}")
    res = linalg.svd(buffer.rows)
    keep = res.s <= epsilon * res.s[0]
    cols = res.vt.T[:, keep]
    if res.s.size < buffer.width:
        cols = np.hstack([cols, linalg.orthonormal_complement(res.vt.T)])
    if cols.shape[1] == 0:
        warnings.warn(
            f"site {buffer.site}: buffer is full rank at epsilon={epsilon:g}; projected gradients will be zero",
            EmptyBasisWarning,
            stacklevel=2,
        )
    return ProjectionBasis(b=cols, side=side)


def merge_bases(input_basis: ProjectionBasis, prompt_basis: ProjectionBasis, beta: float) -> ProjectionBasis:
    """Combine the input-space and prompt-space null bases column by column.

    Position j of both bases is compared by cosine similarity; pairs with
    |cos| > beta are sign-aligned, summed and collected, the rest are
    dropped.  The collected columns are orthonormalized.  Positions past
    the shorter basis have no partner and are skipped.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if input_basis.width != prompt_basis.width:
        raise ValueError(f"row dimensions differ: {input_basis.width} vs {prompt_basis.width}")
    picked = []
    for j in range(min(input_basis.ncols, prompt_basis.ncols)):
        ci = input_basis.b[:, j]
        cp = prompt_basis.b[:, j]
        cos = linalg.cosine_similarity(ci, cp)
        if abs(cos) > beta:
            picked.append(ci + (cp if cos >= 0.0 else -cp))
    if not picked:
        return ProjectionBasis(b=np.zeros((input_basis.width, 0)), side="right")
    return ProjectionBasis(b=linalg.orthonormalize(np.stack(picked, axis=1)), side="right")


def _check_width(grad: np.ndarray, basis: ProjectionBasis, axis: int, what: str) -> None:
    if grad.ndim != 2:
        raise ValueError(f"{what}: gradient must be 2-D")
    if grad.shape[axis] != basis.width:
        raise ValueError(f"{what}: gradient axis {axis} is {grad.shape[axis]}, basis width is {basis.width}")


def project_prompt_grad(grad: np.ndarray, basis: ProjectionBasis) -> np.ndarray:
    """Right-project prompt rows: grad' = grad B B^T."""
    _check_width(grad, basis, 1, "project_prompt_grad")
    return (grad @ basis.b) @ basis.b.T


def project_prefix_grads(grad_k: np.ndarray, grad_v: np.ndarray, input_basis: ProjectionBasis):
    """Right-project both prefix-row gradients by the layer's input basis."""
    _check_width(grad_k, input_basis, 1, "project_prefix_grads")
    _check_width(grad_v, input_basis, 1, "project_prefix_grads")
    return (
        (grad_k @ input_basis.b) @ input_basis.b.T,
        (grad_v @ input_basis.b) @ input_basis.b.T,
    )


def project_factor_grads(grad_down: np.ndarray, grad_up: np.ndarray, basis_x: ProjectionBasis, basis_y: ProjectionBasis):
    """Project bottleneck factor gradients on their input dimensions.

    grad_down is (d, r) and constrained by the x-space basis; grad_up is
    (r, d) and constrained by the y-space basis.  Both projectors act on
    axis 0, the dimension the factor consumes.
    """
    _check_width(grad_down, basis_x, 0, "project_factor_grads")
    _check_width(grad_up, basis_y, 0, "project_factor_grads")
    down = basis_x.b @ (basis_x.b.T @ grad_down)
    up = basis_y.b @ (basis_y.b.T @ grad_up)
    return down, up


_SITE_RE = re.compile(r"^(attn_in|mlp_in|adapter_mid|lora_q_mid|lora_v_mid)\.(\d+)$")


def site_width(site: str, cfg: bb.TransformerConfig) -> int:
    """Feature width at a site: d for token spaces, r for bottleneck y-spaces."""
    if site == "embed":
        return cfg.dim
    m = _SITE_RE.match(site)
    if m is None:
        raise ValueError(f"unknown site {site!r}")
    if int(m.group(2)) >= cfg.depth:
        raise ValueError(f"site {site!r} exceeds depth {cfg.depth}")
    return cfg.rank if m.group(1).endswith("_mid") else cfg.dim


def paradigm_sites(paradigm: str, depth: int) -> list[str]:
    """Sites whose features must be buffered for a paradigm, in a stable order."""
    if paradigm == "prompt":
        return ["embed"]
    if paradigm == "prefix":
        return [f"attn_in.{i}" for i in range(depth)]
    if paradigm == "adapter":
        return [s for i in range(depth) for s in (f"mlp_in.{i}", f"adapter_mid.{i}")]
    if paradigm == "lora":
        return [
            s
            for i in range(depth)
            for s in (f"attn_in.{i}", f"lora_q_mid.{i}", f"lora_v_mid.{i}")
        ]
    raise ValueError(f"unknown paradigm {paradigm!r}")


def _site_rows(trace: bb.ActivationTrace, site: str) -> np.ndarray:
    if site == "embed":
        return trace.x_embed
    m = _SITE_RE.match(site)
    if m is None:
        raise ValueError(f"unknown site {site!r}")
    kind, layer = m.group(1), int(m.group(2))
    if layer >= len(trace.layers):
        raise ValueError(f"site {site!r} exceeds traced depth {len(trace.layers)}")
    t = trace.layers[layer]
    key = {
        "attn_in": "a_in",
        "mlp_in": "m_in",
        "adapter_mid": "y_a",
        "lora_q_mid": "y_q",
        "lora_v_mid": "y_v",
    }[kind]
    rows = t[key]
    if rows is None:
        raise ValueError(f"site {site!r} is not active for paradigm of this trace")
    return rows


def sample_features(w: bb.FrozenWeights, pet, sampling_set, sites) -> dict:
    """Insertion-site feature rows for every sample in the sampling set.

    One traced forward per CHUNK_ROWS samples serves every site in
    ``sites``; each sample contributes all its token rows, in sample
    order.  Returns site -> (rows, width); the caller owns reservoir
    admission into the site buffers.
    """
    widths = {site: site_width(site, w.cfg) for site in sites}
    collected = {site: [] for site in sites}
    xs = np.asarray(sampling_set, dtype=np.float64)
    for start in range(0, len(xs), bb.CHUNK_ROWS):
        _, trace = bb.forward(w, pet, xs[start:start + bb.CHUNK_ROWS])
        for site in sites:
            collected[site].append(_site_rows(trace, site).reshape(-1, widths[site]))
    return {
        site: np.vstack(rows) if rows else np.zeros((0, widths[site]))
        for site, rows in collected.items()
    }
