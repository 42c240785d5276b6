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
of the row-stacked one).  Which axis of a gradient the projector acts on
is a property of the tensor, not of the basis, so it lives in the paradigm
table (`pet.PARADIGM_TENSORS`) and is passed to `project`.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import linalg
from . import pet as pm


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

    def __post_init__(self):
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


def build_basis(rows: np.ndarray, epsilon: float, site: str) -> ProjectionBasis:
    """Null-space basis of the feature rows at relative threshold epsilon.

    Directions with sigma_i <= epsilon * sigma_1 are kept (all of them when
    sigma_1 = 0).  When there are fewer rows than columns the reduced SVD
    cannot see the rest of the exact null space, so the orthonormal
    complement of the row space is appended; without it a single-task
    buffer would leave no room to train at all.  `site` names the rows in
    errors and warnings.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    if rows.shape[0] == 0:
        raise RuntimeError(f"cannot build a basis from the empty buffer at site {site}")
    res = linalg.svd(rows)
    keep = res.s <= epsilon * res.s[0]
    cols = res.vt.T[:, keep]
    if res.s.size < rows.shape[1]:
        cols = np.hstack([cols, linalg.orthonormal_complement(res.vt.T)])
    if cols.shape[1] == 0:
        warnings.warn(
            f"site {site}: buffer is full rank at epsilon={epsilon:g}; projected gradients will be zero",
            EmptyBasisWarning,
            stacklevel=2,
        )
    return ProjectionBasis(b=cols)


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
        return ProjectionBasis(b=np.zeros((input_basis.width, 0)))
    return ProjectionBasis(b=linalg.orthonormalize(np.stack(picked, axis=1)))


def project(grad: np.ndarray, basis: ProjectionBasis, axis: int) -> np.ndarray:
    """Project one axis of a 2-D gradient onto the span of the basis.

    Axis 1 gives (grad B) B^T: token rows (prompt, prefix) live in feature
    space.  Axis 0 gives B (B^T grad): a down or up factor consumes
    features on its input dimension.
    """
    if grad.ndim != 2:
        raise ValueError("project: gradient must be 2-D")
    if grad.shape[axis] != basis.width:
        raise ValueError(f"project: gradient axis {axis} is {grad.shape[axis]}, basis width is {basis.width}")
    if axis == 1:
        return (grad @ basis.b) @ basis.b.T
    return basis.b @ (basis.b.T @ grad)


def _parse_site(site: str) -> tuple[pm.SiteKind, int | None]:
    """The kind of a site name and its layer (None for the embed site)."""
    kind, dot, layer = site.partition(".")
    spec = pm.SITES.get(kind)
    if spec is None or spec.per_layer != bool(dot) or (dot and not layer.isdecimal()):
        raise ValueError(f"unknown site {site!r}")
    return spec, int(layer) if dot else None


def site_width(site: str, cfg: bb.TransformerConfig) -> int:
    """Feature width at a site: d for token spaces, r for bottleneck y-spaces."""
    spec, layer = _parse_site(site)
    if layer is not None and layer >= cfg.depth:
        raise ValueError(f"site {site!r} exceeds depth {cfg.depth}")
    return getattr(cfg, spec.width)


def paradigm_sites(paradigm: str, depth: int) -> list[str]:
    """Sites whose features must be buffered for a paradigm, in a stable order."""
    return list(dict.fromkeys(r.site for r in pm.routes(paradigm, depth)))


def _site_rows(trace: bb.ActivationTrace, site: str) -> np.ndarray:
    spec, layer = _parse_site(site)
    if layer is None:
        return getattr(trace, spec.trace_key)
    if layer >= len(trace.layers):
        raise ValueError(f"site {site!r} exceeds traced depth {len(trace.layers)}")
    rows = trace.layers[layer][spec.trace_key]
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
