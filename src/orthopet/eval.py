"""Ablation sweeps and the runtime property-check suite.

`ablation_sweep`, the one seed grid of `orthopet ablate` and the
acceptance gate, varies one setting (`SWEEP_KEYS`: epsilon, beta or the
projection arm) over run seeds on a fixed stream, so metric movement is
attributable to that setting alone.

The property checks re-verify, on a built package at runtime, the
invariants the test suite pins at development time: SVD reconstruction
and factor orthogonality, analytic gradients against central finite
differences, projected-gradient orthogonality to stored features on
rank-deficient buffers, projector idempotence, the single-step size
scaling signature of each paradigm, and the metric formulas against
direct oracles.  `PROPERTIES` is the one list of these properties, in
print order, each with its check and verdict; `verify_all` runs every
check, each on a worker of one `workers.pool`, and reports one named
pass/fail row per property.
"""

import warnings
from dataclasses import replace
from functools import cache, partial

import numpy as np

from . import backbone as bb
from . import data as dm
from . import linalg
from . import metrics as mt
from . import pet as pm
from . import projection as pj
from . import rng as rng_mod
from . import trainer as tr
from . import workers


def site_basis_total(basis_sizes_entry: dict, paradigm: str, depth: int) -> int:
    """Total basis columns over the sites of `pet.routes(paradigm, depth)`;
    the merged bases, keyed by their tensors' names, are left out."""
    return sum(basis_sizes_entry[site] for site in {r.site for r in pm.routes(paradigm, depth)})


SWEEP_KEYS = ("epsilon", "beta", "projection")


def ablation_sweep(stream, model_cfg, paradigm, base_cfg, key, values, seeds) -> list[dict]:
    """Sweep one setting over seeds on `stream`; one summary row per value.

    `key` is one of `SWEEP_KEYS`: `epsilon` and `beta` replace that field
    of `base_cfg.proj`, `projection` (True/False) replaces the arm.  Per-run
    seeds vary only initialization and batch order.  Rows report seed-mean
    avg_acc / forgetting / new_acc and the seed-mean raw basis column
    count after the final rebuild, with the per-seed values under `per_seed`.

    The (value, seed) runs are one map over a `workers.pool`; each job
    carries the stream, which holds no training draws (`data.gen_stream`),
    and each run draws them task by task in its worker, where it also
    rebuilds inline, as pools never nest.  The warnings a run raised are
    raised again here, in run order.
    """
    if key not in SWEEP_KEYS:
        raise ValueError(f"sweep key must be one of {SWEEP_KEYS}, got {key!r}")
    if len(values) < 2:
        raise ValueError("sweep needs at least two values")
    if len(seeds) < 1:
        raise ValueError("sweep needs at least one seed")
    cfgs = [replace(base_cfg, seed=seed, projection=value) if key == "projection"
            else replace(base_cfg, seed=seed, proj=replace(base_cfg.proj, **{key: value}))
            for value in values for seed in seeds]
    with workers.pool(len(cfgs)) as run:
        runs = iter(run(partial(_sweep_run, stream, model_cfg, paradigm), cfgs))
    rows, shown = [], {}  # `shown`: the warnings registry of this sweep
    for value in values:
        per_seed = []
        for seed in seeds:
            summary, total, caught = next(runs)
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno, registry=shown)
            per_seed.append({"seed": seed, **{k: summary[k] for k in mt.METRICS}, "basis_columns": total})
        means = {k: float(np.mean([r[k] for r in per_seed])) for k in (*mt.METRICS, "basis_columns")}
        rows.append({key: value, **means, "per_seed": per_seed})
    return rows


def _sweep_run(stream, model_cfg, paradigm, cfg) -> tuple:
    """One run of `ablation_sweep`: its summary, its site basis total
    after the final rebuild and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        matrix, info = tr.continual_run(stream, model_cfg, paradigm, cfg)
    total = site_basis_total(info["basis_sizes"][-1], paradigm, model_cfg.depth)
    return mt.summarize(matrix), total, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def seed_range(row: dict, key: str) -> tuple[float, float]:
    """Lowest and highest per-seed value of `key` in one `ablation_sweep` row."""
    values = [r[key] for r in row["per_seed"]]
    return min(values), max(values)


# ------------------------------------------------------------ svd checks


SHAPE_CLASSES = {
    "square": (10, 10, None),
    "tall": (12, 8, None),
    "wide": (8, 12, None),
    "tall_rank_deficient": (12, 8, 4),
    "wide_rank_deficient": (8, 12, 5),
}


def _random_matrix(rng, m, n, rank=None):
    if rank is None:
        return rng.normal(size=(m, n))
    return rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))


def svd_suite(seeds_per_class: int = 100) -> dict:
    """Worst-case SVD errors over seeded matrices in every shape class.

    Returns the max relative reconstruction error, the max factor
    orthogonality defect, and the max row-space-projector disagreement
    with the independent LAPACK factorization.  Each class's matrices are
    factored as one stack, one class at a time; the checks stay per
    matrix, since a 2-D `np.linalg.norm` does not sum like a stacked one.
    """
    worst = {"reconstruction": 0.0, "orthogonality": 0.0, "projector": 0.0}
    for _, (m, n, rank) in sorted(SHAPE_CLASSES.items()):
        _svd_class_errors(worst, m, n, rank, seeds_per_class)
    return worst


def _svd_class_errors(worst: dict, m: int, n: int, rank, seeds: int) -> None:
    """Raise the `svd_suite` maxima in `worst` by one shape class's errors."""
    k = min(m, n)
    stack = np.stack([_random_matrix(np.random.default_rng(1000 + seed), m, n, rank)
                      for seed in range(seeds)])
    res = linalg.svd(stack)
    for a, u, s, vt in zip(stack, res.u, res.s, res.vt):
        scale = max(float(np.linalg.norm(a)), 1e-30)
        recon = u @ np.diag(s) @ vt
        worst["reconstruction"] = max(
            worst["reconstruction"], float(np.linalg.norm(recon - a)) / scale
        )
        worst["orthogonality"] = max(
            worst["orthogonality"],
            float(np.linalg.norm(u.T @ u - np.eye(k))),
            float(np.linalg.norm(vt @ vt.T - np.eye(k))),
        )
        v1 = vt[s > 1e-10 * s[0]].T if s[0] > 0 else vt.T[:, :0]
        mine = np.eye(n) - v1 @ v1.T
        _, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
        top = s_ref[0] if s_ref.size else 0.0
        v1_ref = vt_ref[s_ref > 1e-10 * top].T if top > 0 else vt_ref.T[:, :0]
        ref = np.eye(n) - v1_ref @ v1_ref.T
        worst["projector"] = max(worst["projector"], float(np.linalg.norm(mine - ref)))


def orthonormalize_suite(trials: int = 50) -> float:
    """Max defect of orthonormalize over random spans: columns must come
    out orthonormal, keep the input span, and match the LAPACK rank."""
    worst = 0.0
    for seed in range(trials):
        rng = np.random.default_rng(2000 + seed)
        n, k = int(rng.integers(4, 12)), int(rng.integers(1, 6))
        a = _random_matrix(rng, n, k, rank=min(k, int(rng.integers(1, k + 1))))
        q = linalg.orthonormalize(a)
        if q.shape[1] != np.linalg.matrix_rank(a, tol=1e-8):
            return float("inf")
        worst = max(worst, float(np.linalg.norm(q.T @ q - np.eye(q.shape[1]))))
        proj = q @ q.T
        for j in range(k):
            col = a[:, j]
            worst = max(
                worst,
                float(np.linalg.norm(proj @ col - col)) / max(float(np.linalg.norm(col)), 1e-30),
            )
    return worst


# ------------------------------------------------------- gradient checks


GRADCHECK_MODEL = bb.TransformerConfig(
    dim=16, depth=2, heads=2, mlp_ratio=2.0, seq_len=3,
    num_classes=3, prompt_len=3, prefix_len=2, rank=3,
)


def gradient_check(paradigm: str, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient against central finite
    differences, over every coordinate of every trainable tensor.

    Each tensor's probes run as two batched forwards, one per sign: sample
    i gets its own copy of the tensor with coordinate i moved by +h or -h,
    so every probe loss has the bits of a single-sample forward with that
    one coordinate moved.  The model's tensors are never modified.
    """
    cfg = GRADCHECK_MODEL
    w = bb.init_backbone(cfg, rng_mod.sub_seed(3, "backbone"))
    pet = pm.init_pet(cfg, paradigm, rng_mod.sub_seed(3, "pet"))
    head = w.classifier.copy()
    x = np.random.default_rng(3).normal(0.0, 1.0, size=(1, cfg.seq_len, cfg.dim))
    mask = np.ones(cfg.num_classes, dtype=bool)
    label = 1

    logits, trace = bb.forward(w, pet, x, head=head)
    _, dlogits = tr.masked_cross_entropy(logits, mask, [label])
    grads, head_grad = bb.backward(trace, w, pet, dlogits, head=head)
    tensors = [(name, pet.params[name], grads[name]) for name in sorted(grads)]
    tensors.append(("head", head, head_grad))
    worst = 0.0
    for name, arr, analytic in tensors:
        n = arr.size
        xs = np.broadcast_to(x, (n,) + x.shape[1:])
        labels = np.full(n, label)
        losses = []
        for sign in (1.0, -1.0):
            # Copies of arr with one coordinate set per sample; adding
            # sign * h * eye instead would turn a -0.0 elsewhere into +0.0.
            probe = np.broadcast_to(arr, (n,) + arr.shape).copy()
            np.fill_diagonal(probe.reshape(n, n), arr.reshape(-1) + sign * h)
            if name == "head":
                logits, _ = bb.forward(w, pet, xs, head=probe, need_trace=False)
            else:
                probe_pet = pm.PetState(paradigm, {**pet.params, name: probe})
                logits, _ = bb.forward(w, probe_pet, xs, head=head, need_trace=False)
            losses.append(tr.masked_cross_entropy(logits, mask, labels)[0])
        up, down = losses
        fd = (up - down) / (2.0 * h)
        an = analytic.reshape(-1)
        rel = np.abs(fd - an) / np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-8)
        worst = max(worst, float(rel.max()))
    return worst


# --------------------------------------------------- orthogonality checks


ORTHO_MODEL = bb.TransformerConfig(
    dim=16, depth=2, heads=2, mlp_ratio=2.0, seq_len=4,
    num_classes=4, prompt_len=4, prefix_len=4, rank=12,
)
ORTHO_DATA = dm.ScenarioSpec(
    scenario="cil", tasks=2, classes_per_task=2, samples_per_class=20,
    feature_dim=64, noise=0.0, separation=4.0,
)


def _mean_batch_grads(w, pet, head, xs, ys, seen):
    mask = tr.logit_mask("cil", "train", head.shape[1], seen_classes=seen)
    logits, trace = bb.forward(w, pet, xs, head=head)
    _, dlogits = tr.masked_cross_entropy(logits, mask, ys)
    grads, _ = bb.backward(trace, w, pet, dlogits, head=head)
    return {k: v / len(xs) for k, v in grads.items()}


def _rel_overlap(rows: np.ndarray, grad: np.ndarray, axis: int) -> float:
    """|stored rows . projected step| relative to both norms, contracting
    the step on the axis its projector acts on; 0 when either factor is
    all zero (an empty basis projects every gradient to zero)."""
    prod = rows @ np.moveaxis(grad, axis, 0)
    denom = float(np.linalg.norm(rows)) * float(np.linalg.norm(grad))
    return float(np.linalg.norm(prod)) / denom if denom > 0 else 0.0


def orthogonality_check(paradigm: str, epsilon: float = 1e-10) -> dict:
    """Exact-null projection on rank-deficient buffers.

    Noise-free class clusters keep every site buffer rank deficient, so at
    a tiny threshold the basis spans the exact null space and every stored
    feature row must be orthogonal to the projected gradient of the factor
    that consumes it.  A merging tensor (the prompt) is projected by its
    raw site basis here, which is the basis its stored rows constrain.
    Returns the worst relative overlap across sites and the worst
    projector idempotence defect.
    """
    cfg = ORTHO_MODEL
    tok = dm.make_tokenizer(ORTHO_DATA.feature_dim, cfg.seq_len, cfg.dim, 5)
    first, second = (task.drawn() for task in dm.gen_stream(ORTHO_DATA, tok, 5))
    w = bb.init_backbone(cfg, rng_mod.sub_seed(5, "backbone"))
    pet = pm.init_pet(cfg, paradigm, rng_mod.sub_seed(5, "pet"))
    head = w.classifier.copy()
    buffers = tr.init_buffers(paradigm, cfg)
    tr.update_buffers(w, pet, first.tokens("train", slice(8)), buffers)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pj.EmptyBasisWarning)
        bases = {site: pj.build_basis(pj.svd_factors(buffers[site].rows), epsilon, site)
                 for site in sorted(buffers)}
    routes = pm.routes(paradigm, cfg.depth)
    for r in routes:
        bases.setdefault(r.basis, bases[r.site])
    grads = _mean_batch_grads(w, pet, head, second.tokens("train", slice(8)), second.train_y[:8], seen=4)
    projected = tr.project_grads(pet, grads, bases, cfg.depth)
    overlaps = [_rel_overlap(buffers[r.site].rows, projected[r.name], r.spec.axis) for r in routes]

    idem = 0.0
    for basis in bases.values():
        p = basis @ basis.T
        idem = max(idem, float(np.linalg.norm(p @ p - p)))
    return {"max_overlap": max(overlaps), "idempotence": idem}


# ----------------------------------------------------- step-size scaling


PROBE_MODEL = bb.TransformerConfig(
    dim=16, depth=2, heads=2, mlp_ratio=2.0, seq_len=4,
    num_classes=4, prompt_len=4, prefix_len=4, rank=4,
)
PROBE_DATA = dm.ScenarioSpec(
    scenario="cil", tasks=2, classes_per_task=2, samples_per_class=100,
    feature_dim=64, noise=0.01, separation=4.0,
)
PROBE_PROJ = pj.ProjectionConfig(epsilon=0.02, beta=0.3, sample_count=32)

# Measurement step per (paradigm, arm), chosen inside each arm's
# leading-order window.  Unprojected drift has an O(1) first-order
# coefficient, so small steps keep it clear of softmax saturation.  For
# the bypass paradigms the projected step only reaches old inputs through
# the tiny leak the threshold admits, and its second-order term needs a
# large step before it dominates that leak.  The token-row paradigms keep
# a first-order path at any step size (the value slot and the query/key
# weighting sit between the stored rows and the step), so their projected
# ratio stays near 2; they are measured at their own pre-saturation step.
PROBE_ETAS = {
    "prompt": (0.1, 0.001),
    "prefix": (1.0, 0.1),
    "adapter": (250.0, 0.1),
    "lora": (175.0, 0.03),
}


def _probe_state(paradigm: str):
    """Train the first task, build bases from it, stage a second-task batch."""
    cfg = PROBE_MODEL
    tok = dm.make_tokenizer(PROBE_DATA.feature_dim, cfg.seq_len, cfg.dim, 0)
    first, second = (task.drawn() for task in dm.gen_stream(PROBE_DATA, tok, 0))
    w = bb.init_backbone(cfg, rng_mod.sub_seed(0, "backbone"))
    pet = pm.init_pet(cfg, paradigm, rng_mod.sub_seed(0, "pet"))
    head = w.classifier.copy()
    train_cfg = tr.TrainConfig(
        epochs=3, batch_size=16, lr=0.05, optimizer="sgd", scenario="cil",
        seed=0, projection=True, proj=PROBE_PROJ,
    )
    tr.train_task(w, pet, head, first, train_cfg, bases=None,
                  seen_classes=2, shuffle_rng=np.random.default_rng(0))
    buffers = tr.init_buffers(paradigm, cfg)
    tr.update_buffers(w, pet, first.tokens("train", slice(32)), buffers)
    with warnings.catch_warnings():
        # A full-rank bottleneck buffer is a legitimate operating point
        # here; the affected factor simply stays frozen.
        warnings.simplefilter("ignore", pj.EmptyBasisWarning)
        bases = tr.rebuild_bases(pet, buffers, PROBE_PROJ, cfg, workers.inline)
    probes = first.tokens("test", slice(16))
    batch = (second.tokens("train", slice(16)), second.train_y[:16])
    return w, pet, head, bases, probes, batch


def _probe_drift(w, pet, head, grads, probes, base, eta) -> float:
    """Probe-logit movement from one gradient step on the paradigm tensors.

    The head is held fixed: the first-order guarantee concerns the
    inserted tensors, which are the only ones the projector touches.
    """
    stepped = pm.PetState(
        paradigm=pet.paradigm,
        params={k: v - eta * grads[k] for k, v in pet.params.items()},
    )
    after, _ = bb.forward(w, stepped, probes, head=head, need_trace=False)
    return float(np.linalg.norm(after - base))


def eta_scaling_probe(paradigm: str) -> dict:
    """Halving ratios of single-step probe drift, projected and not.

    A ratio near 4 means the drift is second order in the step size; near
    2 means first order.  Also reports both arms' drift at the projected
    arm's step so their magnitudes can be compared directly.  Every step
    starts from the same state, so the probe logits and the raw and
    projected batch gradients are computed once.
    """
    pm.check_paradigm(paradigm)
    w, pet, head, bases, probes, batch = _probe_state(paradigm)
    eta_p, eta_u = PROBE_ETAS[paradigm]
    base, _ = bb.forward(w, pet, probes, head=head, need_trace=False)
    raw = _mean_batch_grads(w, pet, head, batch[0], batch[1], seen=head.shape[1])
    projected = tr.project_grads(pet, raw, bases, w.cfg.depth)

    def drift(grads, eta):
        return _probe_drift(w, pet, head, grads, probes, base, eta)

    d_proj = drift(projected, eta_p)
    d_proj_half = drift(projected, eta_p / 2)
    d_unproj = drift(raw, eta_u)
    d_unproj_half = drift(raw, eta_u / 2)
    d_unproj_matched = drift(raw, eta_p)
    return {
        "proj_eta": eta_p,
        "unproj_eta": eta_u,
        "proj_ratio": d_proj / d_proj_half if d_proj_half > 0 else float("nan"),
        "unproj_ratio": d_unproj / d_unproj_half if d_unproj_half > 0 else float("nan"),
        "proj_drift": d_proj,
        "unproj_drift_matched": d_unproj_matched,
    }


# Paradigms whose projected step removes the first-order probe drift: those
# whose tensors are all bypass factors, with no prepended rows.
SECOND_ORDER_PARADIGMS = tuple(
    p for p, specs in pm.PARADIGM_TENSORS.items() if all(s.init != "rows" for s in specs)
)


def eta_scaling_ok(paradigm: str, res: dict) -> bool:
    """Whether an `eta_scaling_probe` result meets the paradigm's guarantee.

    Every unprojected drift is first order: halving ratio in 1.6-2.4.
    Bypass factors see old inputs only through buffered features, so their
    projected drift is second order: ratio in 3.2-4.8.  Prompt and prefix
    rows feed the key and value paths, which stay linear in the step
    however the rows are projected, so their projected step only reduces
    drift: projected < unprojected drift.  NaN ratios or drifts fail.
    """
    pm.check_paradigm(paradigm)
    if not 1.6 <= res["unproj_ratio"] <= 2.4:
        return False
    if paradigm in SECOND_ORDER_PARADIGMS:
        return bool(3.2 <= res["proj_ratio"] <= 4.8)
    return bool(res["proj_drift"] < res["unproj_drift_matched"])


# ------------------------------------------------------------ metrics


@cache
def _tril(t: int) -> tuple:
    return np.tril_indices(t)


def metrics_oracle_check(trials: int = 1000) -> dict:
    """Compare the three metrics against direct-formula oracles on random
    filled matrices, plus the two-task hand case."""
    rng = np.random.default_rng(4000)
    worst = 0.0
    for _ in range(trials):
        t = int(rng.integers(2, 7))
        m = mt.AccuracyMatrix(t)
        # One draw gives the values of t(t+1)/2 scalar draws, in row-major
        # lower-triangle order; the unset upper entries stay NaN.
        m.values[_tril(t)] = rng.uniform(size=t * (t + 1) // 2)
        a = m.values
        avg_ref = float(np.mean(a[t - 1, :t]))
        new_ref = float(np.mean(np.diagonal(a)))
        # fmax skips the NaN above the diagonal: column i's best of rows i..t-2.
        fgt_ref = float(np.mean(np.fmax.reduce(a[: t - 1, : t - 1]) - a[t - 1, : t - 1]))
        worst = max(
            worst,
            abs(mt.avg_accuracy(m) - avg_ref),
            abs(mt.new_task_accuracy(m) - new_ref),
            abs(mt.forgetting(m) - fgt_ref),
        )
    hand = mt.AccuracyMatrix(2)
    hand.set(0, 0, 0.9)
    hand.set(1, 0, 0.8)
    hand.set(1, 1, 0.7)
    hand_ok = (
        abs(mt.avg_accuracy(hand) - 0.75) < 1e-15
        and abs(mt.forgetting(hand) - 0.1) < 1e-15
        and abs(mt.new_task_accuracy(hand) - 0.8) < 1e-15
    )
    return {"max_error": worst, "hand_case_ok": hand_ok}


# ------------------------------------------------------------ the suite


def _run_check(name: str, args: tuple):
    """Call the check this module binds to `name`, in whichever process
    runs it; a worker forked after a rebinding sees it rebound."""
    return globals()[name](*args)


# The properties `verify_all` reports, in print order: row name, the name
# of the check that measures it, the check's arguments, and the verdict
# that turns the check's result and arguments into (ok, detail).  Checks
# and `eta_scaling_ok` are found by name when they run, so a rebinding
# reaches them.
PROPERTIES = [
    ("svd", "svd_suite", (), lambda r: (
        r["reconstruction"] <= 1e-10 and r["orthogonality"] <= 1e-10 and r["projector"] <= 1e-9,
        f"recon {r['reconstruction']:.2e}, factors {r['orthogonality']:.2e}, "
        f"projector-vs-lapack {r['projector']:.2e}")),
    ("orthonormalize", "orthonormalize_suite", (), lambda r: (
        r <= 1e-9, f"max defect {r:.2e}")),
    *((f"gradients-{p}", "gradient_check", (p,), lambda r, _: (
        r <= 1e-4, f"max relative fd error {r:.2e}")) for p in pm.PARADIGMS),
    *((f"orthogonality-{p}", "orthogonality_check", (p,), lambda r, _: (
        r["max_overlap"] <= 1e-9 and r["idempotence"] <= 1e-12,
        f"max feature overlap {r['max_overlap']:.2e}, idempotence {r['idempotence']:.2e}"))
      for p in pm.PARADIGMS),
    *((f"eta-scaling-{p}", "eta_scaling_probe", (p,), lambda r, paradigm: (
        eta_scaling_ok(paradigm, r),
        f"projected ratio {r['proj_ratio']:.3f} at eta {r['proj_eta']:g}, "
        f"unprojected ratio {r['unproj_ratio']:.3f} at eta {r['unproj_eta']:g}, "
        f"drift {r['proj_drift']:.3g} vs {r['unproj_drift_matched']:.3g} unprojected"))
      for p in pm.PARADIGMS),
    ("metrics", "metrics_oracle_check", (), lambda r: (
        r["max_error"] <= 1e-15 and r["hand_case_ok"], f"max formula error {r['max_error']:.2e}")),
]


def verify_all() -> list[dict]:
    """Run the check of every entry of `PROPERTIES`; one row per property.

    The checks run through one `workers.pool`, `svd_suite` first, and the
    rows are built here, in table order.  Each row carries the measured
    numbers so failures are diagnosable from the printout alone.
    """
    _, checks, arglists, _ = zip(*PROPERTIES)
    with workers.pool(len(PROPERTIES)) as run:
        results = run(_run_check, checks, arglists)
    rows = []
    for (name, _, args, verdict), res in zip(PROPERTIES, results):
        ok, detail = verdict(res, *args)
        rows.append({"name": name, "ok": ok, "detail": detail})
    return rows
