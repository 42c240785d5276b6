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
    rows = (task.train_x[:6], task.train_y[:6])
    tr.train_task(w, pet, head, task, cfg, seen_classes=2, train_rows=rows)
    empty = (task.train_x[:0], task.train_y[:0])
    with pytest.raises(ValueError, match="no training rows"):
        tr.train_task(w, pet, head, task, cfg, seen_classes=2, train_rows=empty)


@pytest.mark.parametrize("k", [0, 2])
def test_non_finite_loss_names_its_sample(k, monkeypatch):
    """The per-batch finite check names the sample at the first non-finite
    batch position, idx[k]; a finite epoch's mean loss is the in-order
    Python-float sum of the per-sample losses over n."""
    task = _stream()[0]
    rows = (task.train_x[:10], task.train_y[:10])
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
    with pytest.raises(FloatingPointError, match=rf"task 0, epoch 0, sample {order[4 + k]}$"):
        tr.train_task(w, pet, head, task, cfg, seen_classes=2, train_rows=rows,
                      shuffle_rng=np.random.default_rng(5))


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
    probes = np.concatenate([stream[0].train_x, stream[0].test_x])
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
