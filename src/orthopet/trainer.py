"""Sequential-task training with per-site orthogonal gradient projection.

One continual run is a loop over a task stream.  Each task draws its
training split (`data.TaskDataset.drawn`), trains the paradigm tensors
plus a shared linear head, appends the features of a held-out sampling
slice to per-site buffers, which keep every sampled row, and drops the
split.  It then evaluates on the test split of every task seen so far and
rebuilds the projection bases from the buffers.  From the second task
onward, raw gradients are projected onto the stored feature null space
before the optimizer sees them, so optimizer moments accumulate
already-projected directions.  The head is never projected.  When every
basis has zero columns the projected gradients are exact zeros and no
paradigm tensor can move: that task trains the head alone on pooled
vectors computed once per row, with the bits of the full path (see
`train_task`).

Class visibility is controlled per scenario:

  cil / oil   train and test over all classes seen so far
  til         train over seen classes, test within the true task block
  dil         no masking; every task shares one label set

Masked logits are set to -inf before the softmax so excluded classes get
exactly zero probability and exactly zero gradient.

A run opens one `workers.pool` for its whole length, sized to the
matrices a rebuild factors (`rebuild_jobs`), and pipelines each rebuild
with the task.  The rows of a fixed site (`pet.fixed_sites`: upstream of
every insertion of the paradigm) do not depend on any trainable tensor,
so once the sampling set is drawn they are sampled, by a forward that
stops after layer 0, and the SVD of each fixed site's buffer with them is
dealt to the pool, and the task trains while it runs.  After training
the sampling set is sampled again, every fixed site's rows must have the
same bits as before, and the other matrices are dealt; evaluation and
the checkpoint run while they are factored.  `rebuild_bases` then waits
for every factor and cuts, completes and merges the bases in this
process, in job order, so bases and warnings are those of an inline
rebuild.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import checkpoint as ck
from . import data as dm
from . import metrics as mt
from . import pet as pm
from . import projection as pj
from . import rng as rng_mod
from . import workers

OPTIMIZERS = ("sgd", "adam")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Per-run optimization settings.

    Online class-incremental streams are single-pass by definition, so the
    constructor rejects ``scenario="oil"`` with more than one epoch
    rather than silently coercing it.
    """

    epochs: int = 5
    batch_size: int = 16
    lr: float = 0.01
    optimizer: str = "adam"
    scenario: str = "cil"
    seed: int = 0
    backbone_seed: int | None = None
    projection: bool = True
    proj: pj.ProjectionConfig = field(default_factory=pj.ProjectionConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr < 0 or not np.isfinite(self.lr):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.scenario not in dm.SCENARIOS:
            raise ValueError(f"scenario must be one of {dm.SCENARIOS}, got {self.scenario!r}")
        if self.scenario == "oil" and self.epochs != 1:
            raise ValueError("oil streams are single-pass; epochs must be 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.backbone_seed is not None and self.backbone_seed < 0:
            raise ValueError(f"backbone_seed must be >= 0, got {self.backbone_seed}")


@dataclass
class OptimizerState:
    """First/second moments per tensor name, each created at its first adam
    step from 0.0, which adds with the bits of a zeros array."""

    kind: str
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.kind!r}")


def apply_updates(opt, pet, head, grads, head_grad, lr):
    """One optimizer step over the paradigm tensors and the head, in place."""
    opt.step += 1
    items = [(name, pet.params[name], grads[name]) for name in sorted(grads)]
    items.append(("head", head, head_grad))
    for name, arr, g in items:
        if opt.kind == "adam":
            opt.m[name] = ADAM_BETA1 * opt.m.get(name, 0.0) + (1.0 - ADAM_BETA1) * g
            opt.v[name] = ADAM_BETA2 * opt.v.get(name, 0.0) + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = opt.m[name] / (1.0 - ADAM_BETA1 ** opt.step)
            v_hat = opt.v[name] / (1.0 - ADAM_BETA2 ** opt.step)
            arr -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        else:
            arr -= lr * g
    pet.bump()


def logit_mask(scenario, phase, num_classes, seen_classes=None, task_classes=None) -> np.ndarray:
    """Boolean mask of classes allowed into the softmax/argmax."""
    if scenario not in dm.SCENARIOS:
        raise ValueError(f"scenario must be one of {dm.SCENARIOS}, got {scenario!r}")
    if phase not in ("train", "test"):
        raise ValueError(f"phase must be 'train' or 'test', got {phase!r}")
    mask = np.zeros(num_classes, dtype=bool)
    if scenario == "dil":
        mask[:] = True
    elif scenario == "til" and phase == "test":
        if task_classes is None:
            raise ValueError("til test masking needs task_classes")
        mask[np.asarray(task_classes, dtype=np.int64)] = True
    else:
        if seen_classes is None or seen_classes < 1 or seen_classes > num_classes:
            raise ValueError(f"seen_classes must be in [1, {num_classes}], got {seen_classes}")
        mask[:seen_classes] = True
    return mask


def masked_cross_entropy(logits, mask, labels):
    """Per-row losses and dloss/dlogits with excluded classes pinned to zero.

    ``logits`` is (batch, classes) with one label per row.  Excluded
    logits are replaced by -inf, so their probabilities and gradient
    entries are exactly 0.0 rather than merely small.
    """
    if logits.ndim != 2 or logits.shape[1:] != mask.shape:
        raise ValueError(f"logits shape {logits.shape} is not (batch,) + mask shape {mask.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != logits.shape[:1]:
        raise ValueError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if not mask[labels].all():
        raise ValueError(f"label {labels[~mask[labels]][0]} is masked out")
    z = np.where(mask, logits, -np.inf)
    rows = np.arange(z.shape[0])
    z_max = z.max(axis=1)
    e = np.exp(z - z_max[:, None])
    s = e.sum(axis=1)
    loss = np.log(s) - (z[rows, labels] - z_max)
    grad = e / s[:, None]
    grad[rows, labels] -= 1.0
    return loss, grad


def evaluate_task(w, pet, head, task, scenario, seen_classes) -> float:
    """Accuracy on one task's test split under that scenario's test mask.

    The split runs through the backbone CHUNK_ROWS rows at a time.
    """
    mask = logit_mask(scenario, "test", head.shape[1], seen_classes, task.classes)
    correct = 0
    for start in range(0, task.n_test, bb.CHUNK_ROWS):
        rows = slice(start, start + bb.CHUNK_ROWS)
        logits, _ = bb.forward(w, pet, task.tokens("test", rows), head=head, need_trace=False)
        predicted = np.argmax(np.where(mask, logits, -np.inf), axis=1)
        correct += int(np.count_nonzero(predicted == task.test_y[rows]))
    return correct / task.n_test


def project_grads(pet, grads, bases, depth) -> dict:
    """Route each tensor's raw gradient through its basis, on the axis the
    paradigm table gives it (see `pet.PARADIGM_TENSORS`)."""
    return {
        r.name: pj.project(grads[r.name], bases[r.basis], r.spec.axis)
        for r in pm.routes(pet.paradigm, depth)
    }


def frozen(pet, bases, depth) -> bool:
    """Whether `bases` leaves every paradigm tensor frozen: each route's
    basis is one `project` takes for the tensor's gradient, with zero
    columns, so every projected gradient is exact +0.0 zeros."""
    return bases is not None and all(
        r.basis in bases and bases[r.basis].shape == (pet.params[r.name].shape[r.spec.axis], 0)
        for r in pm.routes(pet.paradigm, depth)
    )


def pooled_rows(w, pet, task, rows):
    """The pooled vectors of the task's training `rows`, in forwards of
    CHUNK_ROWS rows, which compute and check no logits.  None when a
    chunk's rows cannot be tokenized (an index out of range, a row the
    tokenizer refuses): the task then takes the full path, which raises at
    the step that reads the row."""
    chunks = []
    for start in range(0, rows.size, bb.CHUNK_ROWS):
        try:
            x = task.tokens("train", rows[start:start + bb.CHUNK_ROWS])
        except (IndexError, ValueError):
            return None
        chunks.append(bb.forward(w, pet, x, None, need_trace=False)[0])
    return np.concatenate(chunks)


def train_task(w, pet, head, task, cfg, bases=None, *, seen_classes=None,
               shuffle_rng=None, train_rows=None) -> list[float]:
    """Train on one task with a fresh optimizer; returns the per-epoch
    mean loss curve.

    ``bases=None`` disables projection entirely (the baseline path).
    ``train_rows``, an index array into the task's training split,
    overrides it, e.g. to hold out the feature-sampling slice.  Each step
    tokenizes only its batch, and drops its forward's trace once
    `backward` has read it, so the next step's forward never runs beside
    it.

    When every basis has zero columns (`frozen`) the paradigm tensors
    cannot move, and the task trains the head alone: each training row's
    pooled vector is computed once (`pooled_rows`), and a step computes
    only the logits, the loss and the head gradient of its rows, with no
    backbone pass and no projection.  The result has the bits of the full
    path: a zero-column basis projects to exact zeros, which leave a
    tensor unchanged under SGD and Adam (whose moments start afresh each
    task), and a batch computes the bits of its rows run alone.
    """
    opt = OptimizerState(cfg.optimizer)
    if seen_classes is None:
        seen_classes = max(task.classes) + 1
    if shuffle_rng is None:
        shuffle_rng = rng_mod.generator(cfg.seed, "shuffle")
    rows = np.arange(task.n_train) if train_rows is None else np.asarray(train_rows)
    n = rows.size
    if n == 0:
        raise ValueError(f"task {task.task_id}: no training rows")
    mask = logit_mask(cfg.scenario, "train", head.shape[1], seen_classes, task.classes)
    pooled = pooled_rows(w, pet, task, rows) if frozen(pet, bases, w.cfg.depth) else None
    curve = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            idx = rows[batch]
            if pooled is None:
                logits, trace = bb.forward(w, pet, task.tokens("train", idx), head=head)
            else:
                cached = pooled[batch]
                logits = bb.head_logits(cached, head)
            losses, dlogits = masked_cross_entropy(logits, mask, task.train_y[idx])
            finite = np.isfinite(losses)
            if not finite.all():
                raise FloatingPointError(
                    f"non-finite loss on task {task.task_id}, epoch {epoch}, train row {idx[np.argmin(finite)]}"
                )
            for loss in losses.tolist():
                total += loss
            inv = 1.0 / idx.size
            if pooled is None:
                grads, head_grad = bb.backward(trace, w, pet, dlogits, head=head)
                trace = None
                for name in grads:
                    grads[name] *= inv
                if bases is not None:
                    grads = project_grads(pet, grads, bases, w.cfg.depth)
            else:
                grads, head_grad = {}, bb.head_gradient(cached, dlogits)
            head_grad *= inv
            apply_updates(opt, pet, head, grads, head_grad, cfg.lr)
        curve.append(total / n)
    return curve


def init_buffers(paradigm, model_cfg) -> dict:
    """An empty feature buffer per site of the paradigm, in route order."""
    return {
        r.site: pj.FeatureBuffer(site=r.site, width=pj.site_width(r, model_cfg))
        for r in pm.routes(paradigm, model_cfg.depth)
    }


def update_buffers(w, pet, sampling_set, buffers, fixed=None):
    """Append freshly sampled site features to every buffer.  `fixed` maps
    sites to rows sampled before the task trained; the new rows of each
    must have those bits, or this raises naming the site."""
    new = pj.sample_features(w, pet, sampling_set)
    for site, rows in (fixed or {}).items():
        if new[site].shape != rows.shape or new[site].tobytes() != rows.tobytes():
            raise RuntimeError(f"site {site} is fixed, but training changed its rows")
    for site, rows in new.items():
        buffers[site].add(rows)


def rebuild_jobs(paradigm, depth) -> list[str]:
    """The keys of the matrices a rebuild factors, in dealing order: every
    site of the paradigm, sorted, for its buffer rows, then each merging
    tensor for its own rows."""
    routes = pm.routes(paradigm, depth)
    return sorted({r.site for r in routes}) + [r.name for r in routes if r.spec.merge]


def deal_factors(run, keys, pet, rows) -> tuple:
    """`(keys, wait)`: `pj.svd_factors` of each key's matrix, dealt through
    `run.start` without waiting.  A site key factors `rows[site]`, a tensor
    key the tensor's rows."""
    return keys, run.start(pj.svd_factors, [rows[key] if key in rows else pet.params[key] for key in keys])


def rebuild_bases(pet, buffers, proj_cfg, model_cfg, run, dealt=()) -> dict:
    """Null-space basis per site, plus a merged basis per merging tensor.

    Prompt gradients must avoid both the stored input features and the
    span of the frozen previous prompt, so the embed-site basis is merged
    with a basis built from the current prompt rows.  Every matrix of
    `rebuild_jobs` is factored through `run` (see `workers.pool`): those
    of `dealt`, `deal_factors` pairs, were dealt before this call and the
    rest are dealt here.  The bases are cut, completed and merged here, in
    job order, so any `EmptyBasisWarning` is raised in this process: for
    an empty site basis by `build_basis`, and for an empty merged basis
    here, naming the tensor and beta.
    """
    jobs = rebuild_jobs(pet.paradigm, model_cfg.depth)
    done = {key for keys, _ in dealt for key in keys}
    rest = deal_factors(run, [key for key in jobs if key not in done], pet,
                        {site: b.rows for site, b in buffers.items()})
    factors = {}
    for keys, wait in (*dealt, rest):
        factors.update(zip(keys, wait()))
    bases = {site: pj.build_basis(factors[site], proj_cfg.epsilon, site) for site in sorted(buffers)}
    for r in [r for r in pm.routes(pet.paradigm, model_cfg.depth) if r.spec.merge]:
        if pet.params[r.name].shape[0] == 0:
            bases[r.basis] = bases[r.site]
        else:
            own = pj.build_basis(factors[r.name], proj_cfg.epsilon, r.name)
            bases[r.basis] = pj.merge_bases(bases[r.site], own, proj_cfg.beta)
            if bases[r.basis].shape[1] == 0:
                warnings.warn(
                    f"tensor {r.name}: merged basis is empty at beta={proj_cfg.beta:g}; "
                    "projected gradients will be zero",
                    pj.EmptyBasisWarning,
                    stacklevel=2,
                )
    return bases


def continual_run(stream, model_cfg, paradigm, cfg, out_dir=None, config_hash="", resume=None):
    """Run the full task sequence; returns (AccuracyMatrix, info dict).

    info carries per-task loss curves and, after each rebuild, the basis
    column count per site.  With ``out_dir`` set, a checkpoint is written
    after every task.  ``resume``, a state `checkpoint.load_checkpoint`
    returned for this run, with a task left to run, continues the run from
    the task after the saved one: the backbone is re-initialised from its
    seed, the bases are rebuilt from the restored buffers and paradigm
    tensors, and info covers only the tasks run here.  A task's training
    split is drawn when the task starts and dropped once its sampled rows
    are buffered, so the run holds at most one.  Every rebuild, that
    one included, factors on the run's one `workers.pool`; each task's
    rebuild is dealt in two parts, the fixed sites before the task trains
    and the rest before it is evaluated (see the module docstring).
    """
    pm.check_paradigm(paradigm)
    if len(stream) == 0:
        raise ValueError("empty task stream")
    needed = max(max(task.classes) for task in stream) + 1
    if model_cfg.num_classes < needed:
        raise ValueError(
            f"head has {model_cfg.num_classes} classes but stream needs {needed}"
        )
    backbone_entropy = cfg.seed if cfg.backbone_seed is None else cfg.backbone_seed
    w = bb.init_backbone(model_cfg, rng_mod.sub_seed(backbone_entropy, "backbone"))
    rngs = {name: rng_mod.generator(cfg.seed, name) for name in ck.RNG_NAMES}
    jobs = rebuild_jobs(paradigm, model_cfg.depth)
    fixed = pm.fixed_sites(paradigm)
    with workers.pool(len(jobs)) as run:
        if resume is None:
            pet = pm.init_pet(model_cfg, paradigm, rng_mod.sub_seed(cfg.seed, "pet"))
            head = w.classifier.copy()
            buffers = init_buffers(paradigm, model_cfg)
            matrix = mt.AccuracyMatrix(len(stream))
            bases = None
            start = 0
        else:
            start = resume["task_index"] + 1
            pet, head, buffers, matrix = resume["pet"], resume["head"], resume["buffers"], resume["matrix"]
            for name, g in rngs.items():
                g.bit_generator.state = resume["rng_states"][name]
            bases = rebuild_bases(pet, buffers, cfg.proj, model_cfg, run)
        info = {"loss_curves": [], "basis_sizes": []}
        for t in range(start, len(stream)):
            task = stream[t].drawn()
            seen = max(max(s.classes) for s in stream[: t + 1]) + 1
            perm = rngs["sampling"].permutation(task.n_train)
            k = min(cfg.proj.sample_count, max(task.n_train - 1, 0))
            sampling_set = task.tokens("train", perm[:k])
            before = pj.sample_features(w, pet, sampling_set, fixed)
            dealt = [deal_factors(run, sorted(before), pet, {
                site: np.vstack([buffers[site].rows, rows]) for site, rows in before.items()})]
            use_bases = bases if (cfg.projection and t > 0) else None
            curve = train_task(
                w, pet, head, task, cfg, use_bases,
                seen_classes=seen, shuffle_rng=rngs["shuffle"], train_rows=perm[k:],
            )
            info["loss_curves"].append(curve)
            update_buffers(w, pet, sampling_set, buffers, before)
            del task, sampling_set  # the task's training split is read no more
            dealt.append(deal_factors(run, [key for key in jobs if key not in before], pet,
                                      {site: b.rows for site, b in buffers.items()}))
            for i in range(t + 1):
                matrix.set(t, i, evaluate_task(w, pet, head, stream[i], cfg.scenario, seen))
            if out_dir is not None:
                ck.save_checkpoint(
                    ck.task_path(out_dir, t),
                    config_hash=config_hash, task_index=t, pet=pet, head=head,
                    buffers=buffers, matrix=matrix, rngs=rngs,
                )
            bases = rebuild_bases(pet, buffers, cfg.proj, model_cfg, run, dealt)
            info["basis_sizes"].append({key: b.shape[1] for key, b in sorted(bases.items())})
        return matrix, info
