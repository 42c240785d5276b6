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

Sites are named by the routes of a pet (`pet.routes`): a route carries its
site's kind and layer, and the width and trace rows of a site are read
from it.  `sample_features` serves every site of a pet's routes, or some
of them with a forward that stops after the last block they read.
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

    def __post_init__(self):
        if self.epsilon < 0.0 or not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


@dataclass
class FeatureBuffer:
    """Every sampled feature row for one insertion site, in sampling order.

    Like GPM, the buffer keeps all rows: each task adds sample_count
    samples times their token rows, so it grows linearly with the stream.
    """

    site: str
    width: int
    rows: np.ndarray = None

    def __post_init__(self):
        if self.rows is None:
            self.rows = np.zeros((0, self.width))

    def add(self, new_rows: np.ndarray) -> None:
        new_rows = np.asarray(new_rows, dtype=np.float64)
        if new_rows.ndim != 2 or new_rows.shape[1] != self.width:
            raise ValueError(f"rows for site {self.site} must be (n, {self.width}), got {new_rows.shape}")
        if not np.all(np.isfinite(new_rows)):
            raise ValueError(f"non-finite feature rows at site {self.site}")
        self.rows = np.vstack([self.rows, new_rows])


def svd_factors(rows: np.ndarray) -> tuple:
    """`(s, vt)` of `linalg.svd(rows)`, the factors `build_basis` cuts.
    A worker looks `linalg.svd` up when this runs, so it calls whatever the
    parent had bound to that name when it forked."""
    res = linalg.svd(rows)
    return res.s, res.vt


def build_basis(factors: tuple, epsilon: float, site: str) -> np.ndarray:
    """Null-space basis of feature rows at relative threshold epsilon, from
    their `svd_factors`: (width, k) orthonormal columns spanning the
    allowed update directions.

    Directions with sigma_i <= epsilon * sigma_1 are kept (all of them when
    sigma_1 = 0).  When there are fewer rows than columns the reduced SVD
    cannot see the rest of the exact null space, so the orthonormal
    complement of the row space is appended; without it a single-task
    buffer would leave no room to train at all.  `site` names the rows in
    errors and warnings.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    s, vt = factors
    if s.size == 0:
        raise RuntimeError(f"cannot build a basis from the empty buffer at site {site}")
    keep = s <= epsilon * s[0]
    cols = vt.T[:, keep]
    if s.size < vt.shape[1]:
        cols = np.hstack([cols, linalg.complete_orthonormal(vt.T, vt.shape[1] - s.size)])
    if cols.shape[1] == 0:
        warnings.warn(
            f"site {site}: buffer is full rank at epsilon={epsilon:g}; projected gradients will be zero",
            EmptyBasisWarning,
            stacklevel=2,
        )
    return cols


def merge_bases(input_basis: np.ndarray, prompt_basis: np.ndarray, beta: float) -> np.ndarray:
    """Combine the input-space and prompt-space null bases column by column.

    Position j of both bases is compared by cosine similarity; pairs with
    |cos| > beta are sign-aligned, summed and collected, the rest are
    dropped.  The collected columns are orthonormalized.  Positions past
    the shorter basis have no partner and are skipped.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if input_basis.shape[0] != prompt_basis.shape[0]:
        raise ValueError(f"row dimensions differ: {input_basis.shape[0]} vs {prompt_basis.shape[0]}")
    picked = []
    for j in range(min(input_basis.shape[1], prompt_basis.shape[1])):
        ci = input_basis[:, j]
        cp = prompt_basis[:, j]
        cos = linalg.cosine_similarity(ci, cp)
        if abs(cos) > beta:
            picked.append(ci + (cp if cos >= 0.0 else -cp))
    if not picked:
        return np.zeros((input_basis.shape[0], 0))
    return linalg.orthonormalize(np.stack(picked, axis=1))


def project(grad: np.ndarray, basis: np.ndarray, axis: int) -> np.ndarray:
    """Project one axis of a 2-D gradient onto the span of the basis.

    Axis 1 gives (grad B) B^T: token rows (prompt, prefix) live in feature
    space.  Axis 0 gives B (B^T grad): a down or up factor consumes
    features on its input dimension.
    """
    if grad.ndim != 2:
        raise ValueError("project: gradient must be 2-D")
    if grad.shape[axis] != basis.shape[0]:
        raise ValueError(f"project: gradient axis {axis} is {grad.shape[axis]}, basis width is {basis.shape[0]}")
    if axis == 1:
        return (grad @ basis) @ basis.T
    return basis @ (basis.T @ grad)


def site_width(route: pm.Route, cfg: bb.TransformerConfig) -> int:
    """Feature width at a route's site: d for token spaces, r for bottleneck y-spaces."""
    return getattr(cfg, pm.SITES[route.spec.site].width)


def _site_rows(trace: bb.ActivationTrace, route: pm.Route) -> np.ndarray:
    key = pm.SITES[route.spec.site].trace_key
    if route.layer is None:
        return getattr(trace, key)
    layer = trace.layers[route.layer]
    if layer[key].shape[-2] != layer["a_in"].shape[-2]:
        raise ValueError(
            f"site {route.site!r} covers only rows {layer['query_from']}: in this "
            "trace; the last block computes its query side for the pooled rows alone"
        )
    return layer[key]


def sample_features(w: bb.FrozenWeights, pet, sampling_set, only=None) -> dict:
    """Feature rows at every site of `pet`'s routes, or at the sites in
    `only`, for every sample in the sampling set.

    One traced forward per CHUNK_ROWS samples serves every site, and stops
    after the last block a site reads; a chunk's trace, but for the site
    rows, is dropped before the next chunk's forward.  Each sample
    contributes all its token rows, in sample order.  Returns site -> rows
    of shape (n, width), sites in route order; the caller adds them to the
    site buffers.
    """
    sites = {r.site: r for r in pm.routes(pet.paradigm, w.cfg.depth) if only is None or r.site in only}
    blocks = 1 + max((r.layer for r in sites.values() if r.layer is not None), default=-1)
    collected = {site: [] for site in sites}
    xs = np.asarray(sampling_set, dtype=np.float64)
    for start in range(0, len(xs), bb.CHUNK_ROWS):
        _, trace = bb.forward(w, pet, xs[start:start + bb.CHUNK_ROWS], w.classifier, blocks=blocks)
        for site, r in sites.items():
            rows = _site_rows(trace, r)
            collected[site].append(rows.reshape(-1, rows.shape[-1]))
        trace = None
    return {
        site: np.vstack(rows) if rows else np.zeros((0, site_width(sites[site], w.cfg)))
        for site, rows in collected.items()
    }
