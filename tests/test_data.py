"""Tests for stream generation and tokenization.

The learnability oracle is a nearest-centroid probe defined here: with
well-separated Gaussian clusters it should be essentially perfect, and it
should decay as the domain rotation angle grows.
"""

import numpy as np
import pytest

from orthopet import data as dm


def nearest_centroid_accuracy(train_x, train_y, test_x, test_y):
    classes = np.unique(train_y)
    cents = np.stack([train_x[train_y == c].reshape(-1, train_x.shape[-1] * train_x.shape[-2]).mean(axis=0) for c in classes])
    flat = test_x.reshape(test_x.shape[0], -1)
    dists = ((flat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    pred = classes[np.argmin(dists, axis=1)]
    return float((pred == test_y).mean())


def spec_for(scenario="cil", **kw):
    base = dict(tasks=5, classes_per_task=2, samples_per_class=20, feature_dim=16, noise=0.1, separation=2.0, shift=0.5)
    base.update(kw)
    return dm.ScenarioSpec(scenario=scenario, **base)


def tok_for(spec, seed=0, seq_len=4, dim=8):
    return dm.make_tokenizer(spec.feature_dim, seq_len, dim, seed)


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        dm.ScenarioSpec(scenario="weird")
    with pytest.raises(ValueError):
        spec_for(tasks=0)
    with pytest.raises(ValueError):
        spec_for(classes_per_task=1)
    with pytest.raises(ValueError):
        spec_for(samples_per_class=4)
    with pytest.raises(ValueError):
        spec_for(noise=-0.1)
    with pytest.raises(ValueError):
        spec_for(separation=0.0)


def test_task_classes_disjoint_vs_shared():
    cil = spec_for()
    seen = [c for t in range(cil.tasks) for c in cil.task_classes(t)]
    assert seen == list(range(10)) and cil.total_classes == 10

    dil = spec_for("dil", classes_per_task=3)
    assert dil.total_classes == 3
    assert dil.task_classes(0) == dil.task_classes(4) == [0, 1, 2]


def test_tokenizer_linearity_zero_and_determinism():
    tok = dm.make_tokenizer(16, 4, 8, seed=3)
    assert tok.tokenize_batch(np.zeros((1, 16))).tolist() == np.zeros((1, 4, 8)).tolist()
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=16), rng.normal(size=16)
    ta, tb, tab = tok.tokenize_batch(np.stack([a, b, a + b]))
    assert np.allclose(tab, ta + tb, atol=1e-12)
    tok2 = dm.make_tokenizer(16, 4, 8, seed=3)
    assert np.array_equal(tok.matrix, tok2.matrix)
    assert not np.array_equal(tok.matrix, dm.make_tokenizer(16, 4, 8, seed=4).matrix)
    assert tok.tokenize_batch(np.stack([a, b])).shape == (2, 4, 8)
    with pytest.raises(ValueError):
        dm.make_tokenizer(17, 4, 8, seed=0)
    with pytest.raises(ValueError):
        tok.tokenize_batch(np.zeros((1, 15)))
    with pytest.raises(ValueError):
        tok.tokenize_batch(np.zeros(16))
    with pytest.raises(ValueError):
        tok.tokenize_batch(np.array([[np.inf] + [0.0] * 15]))


def test_split_classes_shapes_and_balance():
    spec = spec_for()
    tok = tok_for(spec)
    stream = dm.gen_split_classes(spec, tok, seed=7)
    assert len(stream) == 5
    for t, task in enumerate(stream):
        assert task.task_id == t
        assert task.classes == [2 * t, 2 * t + 1]
        assert task.train_x.shape == (2 * 16, 4, 8)
        assert task.test_x.shape == (2 * 4, 4, 8)
        for cls in task.classes:
            assert int((task.train_y == cls).sum()) == 16
            assert int((task.test_y == cls).sum()) == 4


def test_split_classes_deterministic():
    spec = spec_for()
    tok = tok_for(spec)
    a = dm.gen_split_classes(spec, tok, seed=9)
    b = dm.gen_split_classes(spec, tok, seed=9)
    c = dm.gen_split_classes(spec, tok, seed=10)
    assert np.array_equal(a[0].train_x, b[0].train_x)
    assert np.array_equal(a[3].test_y, b[3].test_y)
    assert not np.array_equal(a[0].train_x, c[0].train_x)


def test_split_classes_zero_noise_collapses_clusters():
    spec = spec_for(noise=0.0, samples_per_class=10)
    tok = tok_for(spec)
    task = dm.gen_split_classes(spec, tok, seed=1)[0]
    for cls in task.classes:
        rows = task.train_x[task.train_y == cls]
        assert np.abs(rows - rows[0]).max() == 0.0


def test_split_classes_probe_accuracy():
    spec = spec_for(samples_per_class=50)
    tok = tok_for(spec)
    task = dm.gen_split_classes(spec, tok, seed=11)[0]
    acc = nearest_centroid_accuracy(task.train_x, task.train_y, task.test_x, task.test_y)
    assert acc >= 0.99


def test_rotation_matrix_orthogonal():
    r = dm.rotation_matrix(16, 0.7)
    assert np.abs(r @ r.T - np.eye(16)).max() <= 1e-12
    v = np.random.default_rng(2).normal(size=16)
    assert abs(np.linalg.norm(r @ v) - np.linalg.norm(v)) <= 1e-12
    assert np.array_equal(dm.rotation_matrix(16, 0.0), np.eye(16))


def test_domain_shift_zero_angle_reproduces_means():
    spec = spec_for("dil", noise=0.0, shift=0.0, samples_per_class=6, classes_per_task=3)
    tok = tok_for(spec)
    stream = dm.gen_domain_shift(spec, tok, seed=13)
    base = {c: stream[0].train_x[stream[0].train_y == c][0] for c in stream[0].classes}
    for task in stream[1:]:
        assert task.classes == stream[0].classes
        for c in task.classes:
            rows = task.train_x[task.train_y == c]
            assert np.abs(rows - base[c]).max() <= 1e-12


def test_domain_shift_probe_degrades_with_angle():
    accs = []
    for shift in (0.0, 0.5, 1.0, 1.5):
        spec = spec_for("dil", classes_per_task=4, samples_per_class=40, shift=shift, tasks=2)
        tok = tok_for(spec, seed=5)
        stream = dm.gen_domain_shift(spec, tok, seed=17)
        accs.append(nearest_centroid_accuracy(stream[0].train_x, stream[0].train_y, stream[1].test_x, stream[1].test_y))
    assert all(accs[i + 1] <= accs[i] + 0.02 for i in range(len(accs) - 1))
    assert accs[-1] < accs[0] - 0.2


def test_scenario_routing():
    dil = spec_for("dil")
    cil = spec_for()
    tok = tok_for(cil)
    with pytest.raises(ValueError):
        dm.gen_split_classes(dil, tok, seed=0)
    with pytest.raises(ValueError):
        dm.gen_domain_shift(cil, tok, seed=0)
    assert len(dm.gen_stream(cil, tok, seed=0)) == cil.tasks
    assert len(dm.gen_stream(dil, tok_for(dil), seed=0)) == dil.tasks
    mismatched = dm.make_tokenizer(32, 4, 8, seed=0)
    with pytest.raises(ValueError):
        dm.gen_split_classes(cil, mismatched, seed=0)


def test_task_dataset_rejects_labels_outside_classes():
    x = np.zeros((2, 4, 8))
    with pytest.raises(ValueError, match="labels outside declared classes"):
        dm.TaskDataset(task_id=0, classes=[0, 1], train_x=x, train_y=np.array([0, 2]),
                       test_x=x, test_y=np.array([0, 1]))
