"""Training-loop semantics: masking, optimizer steps, projection plumbing."""

import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthopet.backbone as bb
import orthopet.checkpoint as ck
import orthopet.data as dm
import orthopet.metrics as mt
import orthopet.pet as pm
import orthopet.projection as pj
import orthopet.rng as rng_mod
import orthopet.trainer as tr
import orthopet.workers as workers

MODEL = bb.TransformerConfig(dim=16, depth=2, heads=2, mlp_ratio=2.0, seq_len=4,
                             num_classes=4, prompt_len=4, prefix_len=4, rank=4)
DATA = dm.ScenarioSpec(scenario="cil", tasks=2, classes_per_task=2,
                       samples_per_class=20, feature_dim=64, noise=0.1,
                       separation=6.0)


def _stream(spec=DATA, seed=0):
    tok = dm.make_tokenizer(spec.feature_dim, MODEL.seq_len, MODEL.dim, 0)
    return dm.gen_stream(spec, tok, seed)


def _fresh(paradigm, model=MODEL, seed=0):
    w = bb.init_backbone(model, rng_mod.sub_seed(seed, "backbone"))
    pet = pm.init_pet(model, paradigm, rng_mod.sub_seed(seed, "pet"))
    head = w.classifier.copy()
    return w, pet, head


# -- config validation ------------------------------------------------------

def test_train_config_rejects_bad_values():
    with pytest.raises(ValueError):
        tr.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        tr.TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        tr.TrainConfig(scenario="block")
    with pytest.raises(ValueError):
        tr.TrainConfig(seed=-1)


def test_oil_is_single_pass_only():
    with pytest.raises(ValueError, match="single-pass"):
        tr.TrainConfig(scenario="oil", epochs=2)
    tr.TrainConfig(scenario="oil", epochs=1)


# -- logit masking ----------------------------------------------------------

def test_logit_mask_variants():
    til_test = tr.logit_mask("til", "test", 4, seen_classes=4, task_classes=(2, 3))
    assert til_test.tolist() == [False, False, True, True]
    til_train = tr.logit_mask("til", "train", 4, seen_classes=3, task_classes=(2,))
    assert til_train.tolist() == [True, True, True, False]
    for phase in ("train", "test"):
        assert tr.logit_mask("dil", phase, 4, seen_classes=1).all()
    cil = tr.logit_mask("cil", "test", 4, seen_classes=2)
    assert cil.tolist() == [True, True, False, False]


def test_logit_mask_rejects_bad_args():
    with pytest.raises(ValueError):
        tr.logit_mask("block", "train", 4, seen_classes=2)
    with pytest.raises(ValueError):
        tr.logit_mask("cil", "predict", 4, seen_classes=2)
    with pytest.raises(ValueError):
        tr.logit_mask("til", "test", 4, seen_classes=2, task_classes=None)
    with pytest.raises(ValueError):
        tr.logit_mask("cil", "train", 4, seen_classes=0)
    with pytest.raises(ValueError):
        tr.logit_mask("cil", "train", 4, seen_classes=5)


# -- masked cross entropy ---------------------------------------------------

def test_masked_ce_hand_values():
    logits = np.array([[2.0, 0.0, -1.0]])
    mask = np.ones(3, dtype=bool)
    loss, grad = tr.masked_cross_entropy(logits, mask, [0])
    p = np.exp(logits[0]) / np.exp(logits[0]).sum()
    assert loss.shape == (1,) and grad.shape == (1, 3)
    assert loss[0] == pytest.approx(-np.log(p[0]), abs=1e-12)
    assert np.allclose(grad[0], p - np.array([1.0, 0.0, 0.0]), atol=1e-12)


def test_masked_ce_excluded_entries_exactly_zero():
    logits = np.array([[1.0, 5.0, 3.0]])
    mask = np.array([True, False, True])
    loss, grad = tr.masked_cross_entropy(logits, mask, [0])
    assert grad[0, 1] == 0.0
    p0 = np.exp(1.0) / (np.exp(1.0) + np.exp(3.0))
    assert loss[0] == pytest.approx(-np.log(p0), abs=1e-12)


def test_masked_ce_rejects_masked_label_and_shape_mismatch():
    mask = np.array([True, False, True])
    with pytest.raises(ValueError, match="masked out"):
        tr.masked_cross_entropy(np.zeros((1, 3)), mask, [1])
    with pytest.raises(ValueError, match="shape"):
        tr.masked_cross_entropy(np.zeros((1, 3)), np.ones(4, dtype=bool), [0])
    # a single sample is a batch of one: 1-D logits or a scalar label raise
    with pytest.raises(ValueError, match="shape"):
        tr.masked_cross_entropy(np.zeros(3), mask, [0])
    with pytest.raises(ValueError, match="shape"):
        tr.masked_cross_entropy(np.zeros(3), mask, 0)
    with pytest.raises(ValueError, match="shape"):
        tr.masked_cross_entropy(np.zeros((1, 3)), mask, 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-8, 8), min_size=3, max_size=8),
       st.data())
def test_masked_ce_grad_properties(vals, data):
    logits = np.array([vals])
    n = logits.shape[1]
    mask = np.array(data.draw(
        st.lists(st.booleans(), min_size=n, max_size=n)))
    if not mask.any():
        mask[0] = True
    label = data.draw(st.sampled_from(np.flatnonzero(mask).tolist()))
    (loss,), (grad,) = tr.masked_cross_entropy(logits, mask, [label])
    assert loss >= 0.0
    # softmax minus one-hot sums to zero; excluded entries stay exactly zero
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)
    assert np.all(grad[~mask] == 0.0)
    assert grad[label] <= 0.0


# -- optimizer steps --------------------------------------------------------

def test_sgd_step_is_plain_descent():
    w, pet, head = _fresh("adapter")
    opt = tr.OptimizerState("sgd")
    grads = {name: np.full_like(arr, 0.5) for name, arr in pet.params.items()}
    before = {name: arr.copy() for name, arr in pet.params.items()}
    head_before = head.copy()
    tr.apply_updates(opt, pet, head, grads, np.ones_like(head), lr=0.1)
    for name in grads:
        assert np.allclose(pet.params[name], before[name] - 0.05, atol=1e-15)
    assert np.allclose(head, head_before - 0.1, atol=1e-15)


def test_adam_first_step_is_signed_lr():
    w, pet, head = _fresh("adapter")
    opt = tr.OptimizerState("adam")
    head_before = head.copy()
    grads = {name: np.zeros_like(arr) for name, arr in pet.params.items()}
    head_grad = np.full_like(head, 2.0)
    tr.apply_updates(opt, pet, head, grads, head_grad, lr=0.01)
    # bias correction makes the first update lr * sign(g) up to the eps term
    assert np.allclose(head, head_before - 0.01, atol=1e-8)
    assert opt.step == 1


def test_adam_moments_created_at_first_step_match_zero_arrays():
    """A moment missing from the state starts at 0.0 and gives the bits,
    signed zeros included, of one started from a zeros array."""
    _, pet_a, head_a = _fresh("lora")
    pet_b, head_b = copy.deepcopy(pet_a), head_a.copy()
    lazy = tr.OptimizerState("adam")
    eager = tr.OptimizerState("adam")
    for name, arr in [*pet_b.params.items(), ("head", head_b)]:
        eager.m[name], eager.v[name] = np.zeros_like(arr), np.zeros_like(arr)
    rng = np.random.default_rng(4)
    for _ in range(3):
        grads = {name: rng.normal(size=arr.shape) for name, arr in pet_a.params.items()}
        for g in grads.values():
            g.flat[::3] = -0.0
        head_grad = rng.normal(size=head_a.shape)
        tr.apply_updates(lazy, pet_a, head_a, grads, head_grad, lr=0.01)
        tr.apply_updates(eager, pet_b, head_b, grads, head_grad, lr=0.01)
    for got, want in [*zip(pet_a.params.values(), pet_b.params.values()), (head_a, head_b)]:
        assert got.tobytes() == want.tobytes()
    for name in eager.m:
        assert lazy.m[name].tobytes() == eager.m[name].tobytes()
        assert lazy.v[name].tobytes() == eager.v[name].tobytes()


def test_lr_zero_is_a_noop():
    w, pet, head = _fresh("lora")
    stream = _stream()
    before = {name: arr.copy() for name, arr in pet.params.items()}
    head_before = head.copy()
    cfg = tr.TrainConfig(epochs=2, batch_size=8, lr=0.0, optimizer="sgd",
                         scenario="cil", seed=0)
    tr.train_task(w, pet, head, stream[0], cfg, seen_classes=2)
    for name, arr in pet.params.items():
        assert np.array_equal(arr, before[name])
    assert np.array_equal(head, head_before)


def test_optimizer_state_rejects_unknown_kind():
    with pytest.raises(ValueError, match="adagrad"):
        tr.OptimizerState("adagrad")


# -- train_task behaviour ----------------------------------------------------

def test_identity_bases_match_no_projection():
    stream = _stream()
    cfg = tr.TrainConfig(epochs=3, batch_size=8, lr=0.05, optimizer="adam",
                         scenario="cil", seed=0)
    w, pet_a, head_a = _fresh("adapter")
    pet_b = copy.deepcopy(pet_a)
    head_b = head_a.copy()
    identity = {}
    for i in range(MODEL.depth):
        identity[f"mlp_in.{i}"] = np.eye(MODEL.dim)
        identity[f"adapter_mid.{i}"] = np.eye(MODEL.rank)

    curve_a = tr.train_task(w, pet_a, head_a, stream[0], cfg, bases=None,
                            shuffle_rng=np.random.default_rng(9), seen_classes=2)
    curve_b = tr.train_task(w, pet_b, head_b, stream[0], cfg, bases=identity,
                            shuffle_rng=np.random.default_rng(9), seen_classes=2)
    assert curve_a == curve_b
    for name in pet_a.params:
        assert np.array_equal(pet_a.params[name], pet_b.params[name])
    assert np.array_equal(head_a, head_b)


def test_sgd_learns_a_separable_task():
    spec = dm.ScenarioSpec(scenario="cil", tasks=2, classes_per_task=2,
                           samples_per_class=40, feature_dim=64, noise=0.05,
                           separation=8.0)
    stream = _stream(spec)
    w, pet, head = _fresh("adapter")
    cfg = tr.TrainConfig(epochs=20, batch_size=8, lr=0.05, optimizer="sgd",
                         scenario="cil", seed=0)
    tr.train_task(w, pet, head, stream[0], cfg, seen_classes=2)
    acc = tr.evaluate_task(w, pet, head, stream[0], "cil", seen_classes=2)
    assert acc >= 0.95


def test_loss_curve_length_and_decrease():
    stream = _stream()
    w, pet, head = _fresh("prefix")
    cfg = tr.TrainConfig(epochs=6, batch_size=8, lr=0.05, optimizer="adam",
                         scenario="cil", seed=0)
    curve = tr.train_task(w, pet, head, stream[0], cfg, seen_classes=2)
    assert len(curve) == 6
    assert curve[-1] < curve[0]


def test_train_rows_override_and_empty_rejection():
    stream = _stream()
    task = stream[0]
    w, pet, head = _fresh("adapter")
    cfg = tr.TrainConfig(epochs=1, batch_size=4, lr=0.01, optimizer="sgd",
                         scenario="cil", seed=0)
    tr.train_task(w, pet, head, task, cfg, seen_classes=2, train_rows=np.arange(6))
    with pytest.raises(ValueError, match="no training rows"):
        tr.train_task(w, pet, head, task, cfg, seen_classes=2, train_rows=np.arange(0))


@pytest.mark.parametrize("k", [0, 2])
def test_non_finite_loss_names_its_sample(k, monkeypatch):
    """The per-batch finite check names the task's training row at the
    first non-finite batch position, rows[idx[k]]; a finite epoch's mean
    loss is the in-order Python-float sum of the per-sample losses over n."""
    task = _stream()[0]
    rows = np.arange(3, 13)
    cfg = tr.TrainConfig(epochs=1, batch_size=4, lr=0.01, optimizer="sgd", scenario="cil", seed=0)
    order = np.random.default_rng(5).permutation(10)
    seen_losses = []
    ce = tr.masked_cross_entropy

    def recording(logits, mask, labels):
        losses, grad = ce(logits, mask, labels)
        seen_losses.extend(losses.tolist())
        return losses, grad

    monkeypatch.setattr(tr, "masked_cross_entropy", recording)
    w, pet, head = _fresh("prompt")
    curve = tr.train_task(w, pet, head, task, cfg, seen_classes=2, train_rows=rows,
                          shuffle_rng=np.random.default_rng(5))
    total = 0.0
    for loss in seen_losses:
        total += loss
    assert len(seen_losses) == 10 and curve == [total / 10]

    def poisoned(logits, mask, labels):
        losses, grad = ce(logits, mask, labels)
        if poisoned.batches == 1:
            losses[k:] = np.nan
        poisoned.batches += 1
        return losses, grad

    poisoned.batches = 0
    monkeypatch.setattr(tr, "masked_cross_entropy", poisoned)
    w, pet, head = _fresh("prompt")
    with pytest.raises(FloatingPointError, match=rf"task 0, epoch 0, train row {rows[order[4 + k]]}$"):
        tr.train_task(w, pet, head, task, cfg, seen_classes=2, train_rows=rows,
                      shuffle_rng=np.random.default_rng(5))


# -- frozen tasks: the head-only path ---------------------------------------

def _bases(pet, cols):
    """A basis of `cols` all-zero columns for every route of `pet`: zero
    columns take the head-only path, and one column the full path, whose
    projected gradients are the same exact zeros."""
    return {r.basis: np.zeros((pet.params[r.name].shape[r.spec.axis], cols))
            for r in pm.routes(pet.paradigm, MODEL.depth)}


def _train_counted(monkeypatch, paradigm, optimizer, bases_of, task=None):
    """train_task on task 1 (or `task`) from the same start, with the bases
    `bases_of(pet)`: the trained pet and head, the loss curve or the
    exception raised, and the counts of forward and backward calls and
    optimizer steps."""
    task = _stream()[1] if task is None else task
    w, pet, head = _fresh(paradigm)
    cfg = tr.TrainConfig(epochs=3, batch_size=8, lr=0.05, optimizer=optimizer, scenario="cil", seed=0)
    calls = {"forward": 0, "backward": 0, "steps": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(bb, "forward", counted("forward", bb.forward))
    monkeypatch.setattr(bb, "backward", counted("backward", bb.backward))
    monkeypatch.setattr(tr, "apply_updates", counted("steps", tr.apply_updates))
    try:
        result = tr.train_task(w, pet, head, task, cfg, bases=bases_of(pet), seen_classes=4,
                               shuffle_rng=np.random.default_rng(9))
    except (ValueError, FloatingPointError) as exc:
        result = exc
    monkeypatch.undo()
    return pet, head, result, calls


@pytest.mark.parametrize("paradigm, optimizer", [("prompt", "sgd"), ("lora", "adam")])
def test_head_only_path_has_the_bits_of_the_full_path(monkeypatch, paradigm, optimizer):
    """Zero-column bases train the head alone; one all-zero column runs the
    backbone and projects to the same exact zeros.  Head, paradigm tensors
    and loss curve come out equal, and the tensors did not move."""
    _, start, _ = _fresh(paradigm)
    pet_a, head_a, curve_a, calls_a = _train_counted(monkeypatch, paradigm, optimizer,
                                                     lambda pet: _bases(pet, 0))
    pet_b, head_b, curve_b, calls_b = _train_counted(monkeypatch, paradigm, optimizer,
                                                     lambda pet: _bases(pet, 1))
    assert calls_a["backward"] == 0 and calls_b["backward"] == calls_b["steps"] > 0
    assert curve_a == curve_b
    assert np.array_equal(head_a, head_b) and not np.array_equal(head_a, start)
    for name, arr in pet_a.params.items():
        assert np.array_equal(arr, pet_b.params[name]), name
        assert np.array_equal(arr, start.params[name]), name


def test_head_only_path_runs_only_when_every_basis_is_empty(monkeypatch):
    """A frozen task makes one forward per CHUNK_ROWS training rows and no
    backward; one basis with a column, no bases at all, or a zero-column
    basis of the wrong width runs the full path."""
    n = _stream()[1].n_train
    steps = 3 * -(-n // 8)
    _, _, _, frozen = _train_counted(monkeypatch, "lora", "adam", lambda pet: _bases(pet, 0))
    assert frozen == {"forward": -(-n // bb.CHUNK_ROWS), "backward": 0, "steps": steps}

    def one_column(pet):
        bases = _bases(pet, 0)
        bases["lora_q_mid.1"] = np.eye(MODEL.rank)[:, :1]
        return bases

    for bases_of in (one_column, lambda pet: None):
        _, _, _, full = _train_counted(monkeypatch, "lora", "adam", bases_of)
        assert full == {"forward": steps, "backward": steps, "steps": steps}

    def wrong_width(pet):
        bases = _bases(pet, 0)
        bases["lora_q_mid.1"] = np.zeros((MODEL.rank + 1, 0))
        return bases

    # a basis `project` refuses takes the full path, which raises at step 0
    _, _, err, calls = _train_counted(monkeypatch, "lora", "adam", wrong_width)
    assert isinstance(err, ValueError) and str(err).startswith("project: gradient axis 0 is 4, basis width is 5")
    assert calls == {"forward": 1, "backward": 1, "steps": 0}


@pytest.mark.parametrize("where", ["tokens", "raw"])
def test_a_bad_row_raises_at_the_same_step_on_both_paths(monkeypatch, where):
    """A NaN in one training row's tokens raises the forward's
    FloatingPointError, and one in its raw draw the tokenizer's ValueError,
    at the step that reads the row, with zero-column bases as with one
    column: building the pooled vectors raises nothing early."""
    task = _stream()[1]
    order = np.random.default_rng(9).permutation(task.n_train)
    bad = order[task.n_train // 2]
    if where == "raw":
        raw = task.train_raw.copy()
        raw[bad, 5] = np.nan
        task = replace(task, train_raw=raw)
    else:
        tokens = task.tokens

        def planted(split, rows=slice(None)):
            x = tokens(split, rows)
            x[np.arange(task.n_train)[rows] == bad, 1, 3] = np.nan
            return x

        task = replace(task)
        task.tokens = planted
    results = [_train_counted(monkeypatch, "prompt", "sgd", lambda pet: _bases(pet, cols), task)
               for cols in (0, 1)]
    (_, head_a, err_a, calls_a), (_, head_b, err_b, calls_b) = results
    kind, message = {"tokens": (FloatingPointError, "non-finite logits in forward pass"),
                     "raw": (ValueError, "raw batch must be finite")}[where]
    for err in (err_a, err_b):
        assert type(err) is kind and str(err) == message
    assert calls_a["steps"] == calls_b["steps"] == (task.n_train // 2) // 8
    # rows the tokenizer refuses leave the frozen task to the full path
    assert calls_a["backward"] == (0 if where == "tokens" else calls_b["backward"])
    assert np.array_equal(head_a, head_b)


def test_an_empty_merged_basis_warns_naming_the_tensor_and_beta():
    """No column pair passes beta = 1, so the merged prompt basis comes out
    empty and `rebuild_bases` warns once, as `build_basis` does for an
    empty site basis; at beta = 0 the merge keeps columns and nothing
    warns."""
    w, pet, _ = _fresh("prompt")
    buffers = tr.init_buffers("prompt", MODEL)
    tr.update_buffers(w, pet, _stream()[0].tokens("train", np.arange(2)), buffers)
    proj = pj.ProjectionConfig(beta=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bases = tr.rebuild_bases(pet, buffers, proj, MODEL, workers.inline)
    assert [(c.category, str(c.message)) for c in caught] == [
        (pj.EmptyBasisWarning, "tensor prompt: merged basis is empty at beta=1; projected gradients will be zero")]
    assert bases["prompt"].shape == (MODEL.dim, 0) and bases["embed"].shape[1] > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bases = tr.rebuild_bases(pet, buffers, replace(proj, beta=0.0), MODEL, workers.inline)
    assert bases["prompt"].shape[1] > 0


# -- continual runs ----------------------------------------------------------

def test_continual_run_is_deterministic():
    stream = _stream()
    cfg = tr.TrainConfig(epochs=2, batch_size=8, lr=0.05, optimizer="adam",
                         scenario="cil", seed=3, backbone_seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pj.EmptyBasisWarning)
        m1, info1 = tr.continual_run(stream, MODEL, "lora", cfg)
        m2, info2 = tr.continual_run(stream, MODEL, "lora", cfg)
    assert np.array_equal(m1.values, m2.values, equal_nan=True)
    assert info1["loss_curves"] == info2["loss_curves"]
    assert info1["basis_sizes"] == info2["basis_sizes"]


def test_continual_run_fills_lower_triangle():
    stream = _stream()
    cfg = tr.TrainConfig(epochs=1, batch_size=8, lr=0.02, optimizer="adam",
                         scenario="cil", seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pj.EmptyBasisWarning)
        matrix, info = tr.continual_run(stream, MODEL, "adapter", cfg)
    assert matrix.is_complete()
    assert len(info["loss_curves"]) == len(stream)
    assert len(info["basis_sizes"]) == len(stream)
    summary = mt.summarize(matrix)
    assert summary["forgetting_defined"]


def test_single_task_stream_has_no_forgetting():
    stream = _stream()[:1]
    cfg = tr.TrainConfig(epochs=1, batch_size=8, lr=0.02, optimizer="adam",
                         scenario="cil", seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pj.EmptyBasisWarning)
        matrix, _ = tr.continual_run(stream, MODEL, "prompt", cfg)
    summary = mt.summarize(matrix)
    assert not summary["forgetting_defined"]
    assert summary["forgetting"] == 0.0


def test_continual_run_validations():
    cfg = tr.TrainConfig()
    with pytest.raises(ValueError, match="empty"):
        tr.continual_run([], MODEL, "adapter", cfg)
    spec = dm.ScenarioSpec(scenario="cil", tasks=3, classes_per_task=2,
                           samples_per_class=20, feature_dim=64, noise=0.1,
                           separation=4.0)
    stream = _stream(spec)
    with pytest.raises(ValueError, match="classes"):
        tr.continual_run(stream, MODEL, "adapter", cfg)


def test_projection_with_buffered_probes_freezes_first_task_accuracy():
    """Two tasks, threshold zero, and the first task's inputs all buffered.

    A zero threshold keeps no update directions once the buffer spans the
    input space, so the paradigm tensors cannot move during task 1 and the
    task-0 probe accuracy may drift only through the shared head.  Under a
    task-scoped test mask that drift is bounded by relative movement of the
    first two head columns, which stays within two points here.
    """
    model = bb.TransformerConfig(dim=32, depth=2, heads=4, mlp_ratio=2.0,
                                 seq_len=4, num_classes=4, prompt_len=4)
    spec = dm.ScenarioSpec(scenario="til", tasks=2, classes_per_task=2,
                           samples_per_class=50, feature_dim=128, noise=0.1,
                           separation=6.0)
    tok = dm.make_tokenizer(128, 4, 32, 0)
    stream = dm.gen_stream(spec, tok, 0)
    cfg = tr.TrainConfig(epochs=5, batch_size=8, lr=0.05, optimizer="sgd",
                         scenario="til", seed=0,
                         proj=pj.ProjectionConfig(epsilon=0.0, sample_count=128))
    w, pet, head = _fresh("prompt", model)
    prompt_before = None

    tr.train_task(w, pet, head, stream[0], cfg, seen_classes=2)
    a_11 = tr.evaluate_task(w, pet, head, stream[0], "til", seen_classes=2)

    buffers = tr.init_buffers("prompt", model)
    probes = np.concatenate([stream[0].tokens("train"), stream[0].tokens("test")])
    tr.update_buffers(w, pet, probes, buffers)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pj.EmptyBasisWarning)
        bases = tr.rebuild_bases(pet, buffers, cfg.proj, model, workers.inline)
    assert bases["prompt"].shape[1] == 0
    prompt_before = pet.params["prompt"].copy()

    tr.train_task(w, pet, head, stream[1], cfg, bases=bases, seen_classes=4)
    assert np.array_equal(pet.params["prompt"], prompt_before)
    a_21 = tr.evaluate_task(w, pet, head, stream[0], "til", seen_classes=4)
    assert abs(a_21 - a_11) <= 0.02


# -- domain- and task-incremental streams -----------------------------------

@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
@pytest.mark.parametrize("scenario,paradigm", [("dil", "adapter"), ("til", "prompt")])
def test_three_task_stream_runs_resumes_and_repeats(scenario, paradigm, tmp_path):
    """A 3-task dil or til stream through `continual_run` fills the whole
    accuracy matrix with accuracies, gives the same bytes on a second run,
    and gives them again when resumed from any task's checkpoint."""
    spec = dm.ScenarioSpec(scenario=scenario, tasks=3, classes_per_task=2,
                           samples_per_class=20, feature_dim=64, noise=0.5,
                           separation=2.0)
    model = replace(MODEL, num_classes=spec.total_classes)
    stream = dm.gen_stream(spec, dm.make_tokenizer(64, model.seq_len, model.dim, 0), 0)
    cfg = tr.TrainConfig(epochs=1, batch_size=8, lr=0.05, optimizer="adam",
                         scenario=scenario, seed=0, backbone_seed=0,
                         proj=pj.ProjectionConfig(sample_count=8))
    matrix, _ = tr.continual_run(stream, model, paradigm, cfg, out_dir=tmp_path)
    assert matrix.is_complete()
    lower = matrix.values[np.tril_indices(spec.tasks)]
    assert np.all((lower >= 0.0) & (lower <= 1.0))
    # a hard enough stream that the byte comparisons below are not of a
    # matrix of ones
    assert len(set(lower.tolist())) > 1

    again, _ = tr.continual_run(stream, model, paradigm, cfg)
    assert again.values.tobytes() == matrix.values.tobytes()
    for t in range(spec.tasks - 1):
        state = ck.load_checkpoint(ck.task_path(tmp_path, t), paradigm, model, spec.tasks)
        resumed, _ = tr.continual_run(stream, model, paradigm, cfg, resume=state)
        assert resumed.values.tobytes() == matrix.values.tobytes(), t
