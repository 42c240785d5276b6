"""Synthetic task streams and the seeded tokenizer.

Samples are Gaussian clusters around unit-norm class means scaled by a
separation factor, drawn in a raw feature space and mapped to token grids
by one frozen linear tokenizer per run.  `gen_stream` generates every
stream, from the `data` section of a run config; there is no file input.
In the cil, til and oil scenarios each task gets its own disjoint label
block; a dil stream keeps one label set and rotates the raw feature space
a little further each task.

A stream holds the raw draws, not tokens: `TaskDataset.tokens` maps only
the rows a forward reads.  numpy's matmul of an (n, seq_len, token_width)
stack makes one product per sample, so the tokens of a subset of rows
have the bits of the same rows of the whole split.  A stored token grid
(n, seq_len, dim) is dim / token_width times the raw draws, twice for the
shipped configs; not storing them lowered `oil_lora`'s peak RSS by about
1.3 MB.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from . import rng as rng_mod

SCENARIOS = ("cil", "til", "dil", "oil")
TRAIN_FRACTION = 0.8
# Largest noise and separation: generated values stay near this scale,
# and their squares, which layernorm and the SVDs sum, stay finite.
MAX_SCALE = 1e100


@dataclass
class ScenarioSpec:
    scenario: str = "cil"
    tasks: int = 5
    classes_per_task: int = 2
    samples_per_class: int = 200
    feature_dim: int = 16
    noise: float = 0.1
    separation: float = 2.0
    shift: float = 0.5

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.tasks < 1:
            raise ValueError("tasks must be >= 1")
        if self.classes_per_task < 2:
            raise ValueError("classes_per_task must be >= 2")
        if self.samples_per_class < 5:
            raise ValueError("samples_per_class must be >= 5 for an 80/20 split")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if not 0.0 <= self.noise <= MAX_SCALE:
            raise ValueError(f"noise must be finite and in [0, {MAX_SCALE:g}], got {self.noise}")
        if not 0.0 < self.separation <= MAX_SCALE:
            raise ValueError(f"separation must be finite and in (0, {MAX_SCALE:g}], got {self.separation}")
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")

    @property
    def total_classes(self) -> int:
        if self.scenario == "dil":
            return self.classes_per_task
        return self.tasks * self.classes_per_task

    def task_classes(self, task_id: int) -> list[int]:
        if self.scenario == "dil":
            return list(range(self.classes_per_task))
        lo = task_id * self.classes_per_task
        return list(range(lo, lo + self.classes_per_task))


@dataclass
class TaskDataset:
    """One task's labelled raw draws, (n, feature_dim) per split, with the
    run's tokenizer."""

    task_id: int
    classes: list[int]
    tokenizer: "Tokenizer"
    train_raw: np.ndarray
    train_y: np.ndarray
    test_raw: np.ndarray
    test_y: np.ndarray

    def __post_init__(self):
        # Not `np.unique`: its first call imports `numpy.ma` (numpy 2.x
        # `_unique1d` calls `np.ma.is_masked`), 1.6 MB and 12-15 ms in a
        # process that never loaded it, and a forked worker inherits it.
        for y in (self.train_y, self.test_y):
            if not set(y.ravel().tolist()) <= set(self.classes):
                raise ValueError(f"task {self.task_id}: labels outside declared classes")

    @property
    def n_train(self) -> int:
        return self.train_raw.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_raw.shape[0]

    def tokens(self, split: str, rows=slice(None)) -> np.ndarray:
        """The token grids of `rows` (an index array or a slice) of the
        "train" or "test" split."""
        raw = {"train": self.train_raw, "test": self.test_raw}[split]
        return self.tokenizer.tokenize_batch(raw[rows])


@dataclass
class Tokenizer:
    """Frozen linear map from raw vectors to token grids (seq_len x dim)."""

    seq_len: int
    token_width: int
    dim: int
    matrix: np.ndarray

    @property
    def feature_dim(self) -> int:
        return self.seq_len * self.token_width

    def tokenize_batch(self, raws: np.ndarray) -> np.ndarray:
        raws = np.asarray(raws, dtype=np.float64)
        if raws.ndim != 2 or raws.shape[1] != self.feature_dim:
            raise ValueError(f"raw batch must be (n, {self.feature_dim}), got {raws.shape}")
        if not np.all(np.isfinite(raws)):
            raise ValueError("raw batch must be finite")
        return raws.reshape(-1, self.seq_len, self.token_width) @ self.matrix


def make_tokenizer(feature_dim: int, seq_len: int, dim: int, seed) -> Tokenizer:
    """Seeded semi-orthogonal map; isometric per chunk while token_width <= dim."""
    if feature_dim % seq_len != 0:
        raise ValueError(f"feature_dim {feature_dim} not divisible by seq_len {seq_len}")
    token_width = feature_dim // seq_len
    gen = rng_mod.generator(seed, "tokenizer")
    draw = gen.normal(0.0, 1.0, size=(token_width, dim))
    if token_width <= dim:
        matrix = linalg.orthonormalize(draw.T).T
    else:
        matrix = linalg.orthonormalize(draw)
    return Tokenizer(seq_len=seq_len, token_width=token_width, dim=dim, matrix=matrix)


def rotation_matrix(dim: int, angle: float) -> np.ndarray:
    """Orthogonal rotation built from Givens blocks on axis pairs (0,1), (2,3), ..."""
    r = np.eye(dim)
    c, s = math.cos(angle), math.sin(angle)
    for i in range(0, dim - 1, 2):
        r[i, i] = c
        r[i + 1, i + 1] = c
        r[i, i + 1] = -s
        r[i + 1, i] = s
    return r


def _class_means(spec: ScenarioSpec, gen: np.random.Generator) -> np.ndarray:
    """Unit-norm mean directions, mutually orthogonal whenever they fit.

    Orthogonal means keep inter-class interference out of the raw space,
    so any overlap seen downstream is introduced by the model, not the
    generator.  With more classes than dimensions exact orthogonality is
    impossible and normalized random directions are used instead.
    """
    means = gen.normal(size=(spec.total_classes, spec.feature_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise FloatingPointError("degenerate zero draw for a class mean")
    if spec.total_classes <= spec.feature_dim:
        means = linalg.orthonormalize(means.T).T
        if means.shape[0] != spec.total_classes:
            raise FloatingPointError("class mean draws were linearly dependent")
        return spec.separation * means
    return spec.separation * means / norms


def _split_rows(raws: np.ndarray, gen: np.random.Generator):
    n = raws.shape[0]
    n_train = int(TRAIN_FRACTION * n)
    perm = gen.permutation(n)
    return raws[perm[:n_train]], raws[perm[n_train:]]


def _assemble_task(spec, tokenizer, task_id, classes, means, gen, rotate=None):
    train_raws, train_labels, test_raws, test_labels = [], [], [], []
    for cls in classes:
        raws = means[cls] + spec.noise * gen.normal(size=(spec.samples_per_class, spec.feature_dim))
        if rotate is not None:
            raws = raws @ rotate.T
        tr, te = _split_rows(raws, gen)
        train_raws.append(tr)
        test_raws.append(te)
        train_labels.append(np.full(tr.shape[0], cls, dtype=np.int64))
        test_labels.append(np.full(te.shape[0], cls, dtype=np.int64))
    return TaskDataset(
        task_id=task_id,
        classes=list(classes),
        tokenizer=tokenizer,
        train_raw=np.vstack(train_raws),
        train_y=np.concatenate(train_labels),
        test_raw=np.vstack(test_raws),
        test_y=np.concatenate(test_labels),
    )


def gen_stream(spec: ScenarioSpec, tokenizer: Tokenizer, seed) -> list[TaskDataset]:
    """The task stream of `spec`: disjoint label blocks, or for dil one
    label set with task t's raw space rotated by t * shift."""
    if tokenizer.feature_dim != spec.feature_dim:
        raise ValueError("tokenizer feature_dim does not match spec")
    gen = rng_mod.generator(seed, "data")
    means = _class_means(spec, gen)
    return [
        _assemble_task(
            spec, tokenizer, t, spec.task_classes(t), means, gen,
            rotate=rotation_matrix(spec.feature_dim, spec.shift * t) if spec.scenario == "dil" else None,
        )
        for t in range(spec.tasks)
    ]
