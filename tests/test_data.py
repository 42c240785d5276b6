"""Tests for stream generation and tokenization.

The learnability oracle is a nearest-centroid probe defined here: with
well-separated Gaussian clusters it should be essentially perfect, and it
should decay as the domain rotation angle grows.
"""

from dataclasses import replace

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


def drawn_stream(spec, tok, seed):
    """The stream of `spec` with every task's training split drawn."""
    return [task.drawn() for task in dm.gen_stream(spec, tok, seed)]


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


@pytest.mark.parametrize("feature_dim, seq_len, dim", [(64, 4, 32), (16, 4, 8), (128, 4, 32)])
def test_tokens_of_a_subset_have_the_bits_of_the_whole_split(feature_dim, seq_len, dim):
    """A stream keeps raw draws and tokenizes only the rows asked for; the
    tokens of any subset of rows, in any order, are the same rows of the
    whole split's tokens, bit for bit (64 -> 4 x 32 is the shipped
    configs' shape)."""
    spec = spec_for(tasks=2, samples_per_class=50, feature_dim=feature_dim)
    task = dm.gen_stream(spec, dm.make_tokenizer(feature_dim, seq_len, dim, 0), seed=3)[1].drawn()
    gen = np.random.default_rng(0)
    for split, n in (("train", task.n_train), ("test", task.n_test)):
        whole = task.tokens(split)
        assert whole.tobytes() == task.tokenizer.tokenize_batch(getattr(task, f"{split}_raw")).tobytes()
        for _ in range(600):
            rows = gen.choice(n, size=int(gen.integers(1, min(n, 40) + 1)), replace=bool(gen.integers(2)))
            assert task.tokens(split, rows).tobytes() == whole[rows].tobytes()
        for rows in (slice(8), slice(5, None, 3), np.arange(n)[::-1]):
            assert task.tokens(split, rows).tobytes() == whole[rows].tobytes()


def test_split_classes_shapes_and_balance():
    spec = spec_for()
    tok = tok_for(spec)
    stream = dm.gen_stream(spec, tok, seed=7)
    assert len(stream) == 5
    for t, task in enumerate(stream):
        assert task.task_id == t
        assert task.classes == [2 * t, 2 * t + 1]
        assert task.train_raw is None and task.n_train == 2 * 16
        task = task.drawn()
        assert task.train_raw.shape == (2 * 16, 16)
        assert task.test_raw.shape == (2 * 4, 16)
        assert task.tokens("train").shape == (2 * 16, 4, 8)
        assert task.tokens("test").shape == (2 * 4, 4, 8)
        for cls in task.classes:
            assert int((task.train_y == cls).sum()) == 16
            assert int((task.test_y == cls).sum()) == 4


def test_split_classes_deterministic():
    spec = spec_for()
    tok = tok_for(spec)
    a = drawn_stream(spec, tok, seed=9)
    b = drawn_stream(spec, tok, seed=9)
    c = drawn_stream(spec, tok, seed=10)
    assert np.array_equal(a[0].tokens("train"), b[0].tokens("train"))
    assert np.array_equal(a[3].test_y, b[3].test_y)
    assert not np.array_equal(a[0].tokens("train"), c[0].tokens("train"))


def test_split_classes_zero_noise_collapses_clusters():
    spec = spec_for(noise=0.0, samples_per_class=10)
    tok = tok_for(spec)
    task = dm.gen_stream(spec, tok, seed=1)[0].drawn()
    for cls in task.classes:
        rows = task.tokens("train", task.train_y == cls)
        assert np.abs(rows - rows[0]).max() == 0.0


def test_split_classes_probe_accuracy():
    spec = spec_for(samples_per_class=50)
    tok = tok_for(spec)
    task = dm.gen_stream(spec, tok, seed=11)[0].drawn()
    acc = nearest_centroid_accuracy(task.tokens("train"), task.train_y, task.tokens("test"), task.test_y)
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
    stream = drawn_stream(spec, tok, seed=13)
    base = {c: stream[0].tokens("train", stream[0].train_y == c)[0] for c in stream[0].classes}
    for task in stream[1:]:
        assert task.classes == stream[0].classes
        for c in task.classes:
            rows = task.tokens("train", task.train_y == c)
            assert np.abs(rows - base[c]).max() <= 1e-12


def test_domain_shift_probe_degrades_with_angle():
    accs = []
    for shift in (0.0, 0.5, 1.0, 1.5):
        spec = spec_for("dil", classes_per_task=4, samples_per_class=40, shift=shift, tasks=2)
        tok = tok_for(spec, seed=5)
        stream = drawn_stream(spec, tok, seed=17)
        accs.append(nearest_centroid_accuracy(stream[0].tokens("train"), stream[0].train_y,
                                              stream[1].tokens("test"), stream[1].test_y))
    assert all(accs[i + 1] <= accs[i] + 0.02 for i in range(len(accs) - 1))
    assert accs[-1] < accs[0] - 0.2


def test_scenario_routing():
    dil = spec_for("dil")
    cil = spec_for()
    tok = tok_for(cil)
    cil_stream = dm.gen_stream(cil, tok, seed=0)
    dil_stream = dm.gen_stream(dil, tok_for(dil), seed=0)
    assert [t.classes for t in cil_stream] == [[2 * t, 2 * t + 1] for t in range(5)]
    assert [t.classes for t in dil_stream] == [[0, 1]] * 5
    mismatched = dm.make_tokenizer(32, 4, 8, seed=0)
    with pytest.raises(ValueError):
        dm.gen_stream(cil, mismatched, seed=0)


def test_task_dataset_rejects_labels_outside_classes():
    raw = np.zeros((2, 16))
    with pytest.raises(ValueError, match="labels outside declared classes"):
        dm.TaskDataset(task_id=0, classes=[0, 1], tokenizer=dm.make_tokenizer(16, 4, 8, 0),
                       train_raw=raw, train_y=np.array([0, 2]), test_raw=raw, test_y=np.array([0, 1]))


def _task(train_y, test_y, classes=(0, 1)):
    return dm.TaskDataset(task_id=3, classes=list(classes), tokenizer=dm.make_tokenizer(16, 4, 8, 0),
                          train_raw=np.zeros((len(train_y), 16)), train_y=np.asarray(train_y),
                          test_raw=np.zeros((len(test_y), 16)), test_y=np.asarray(test_y))


def test_task_dataset_label_check():
    """Empty splits pass; a label outside `classes`, or a NaN, is refused
    by the same message on either split; int64 labels match Python-int
    classes, as float labels of the same value do."""
    assert _task(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)).n_train == 0
    _task(np.array([1, 0, 1], dtype=np.int64), np.array([0], dtype=np.int64))
    _task(np.array([1.0, 0.0]), np.array([0.0]))
    _task(np.array([5, 7], dtype=np.int64), np.array([7], dtype=np.int64), classes=(5, 6, 7))
    for train_y, test_y in (([0, 1], [0, 2]), ([-1], [0]), ([0.5], [0]), ([0.0, np.nan], [0.0]),
                            ([0], [np.nan])):
        with pytest.raises(ValueError, match="^task 3: labels outside declared classes$"):
            _task(np.array(train_y), np.array(test_y))


def _original_draws(monkeypatch, spec, seed):
    """The stream of `spec` and the training draws `gen_stream` made for
    each task before it dropped them."""
    drawn, assemble = [], dm._assemble_task

    def recording(*args):
        task = assemble(*args)
        drawn.append(task.train_raw.copy())
        return task

    monkeypatch.setattr(dm, "_assemble_task", recording)
    stream = dm.gen_stream(spec, tok_for(spec), seed)
    monkeypatch.undo()
    return stream, drawn


@pytest.mark.parametrize("scenario, samples_per_class", [
    ("cil", 20), ("til", 20), ("oil", 20), ("dil", 20), ("cil", 13), ("dil", 7)])
def test_a_redrawn_training_split_has_the_bits_of_the_original_draws(monkeypatch, scenario, samples_per_class):
    """A stream keeps no training draws; `drawn` draws each task's again,
    in any order and as often as asked, with the bits `gen_stream` drew,
    for every scenario, a rotated dil stream and uneven 80/20 splits (13
    rows a class give 10 and 3, 7 give 5 and 2)."""
    spec = spec_for(scenario, samples_per_class=samples_per_class, shift=0.5)
    stream, original = _original_draws(monkeypatch, spec, seed=21)
    n_train = int(dm.TRAIN_FRACTION * samples_per_class) * spec.classes_per_task
    assert [d.shape for d in original] == [(n_train, spec.feature_dim)] * spec.tasks
    for t in (3, 0, 4, 1, 2, 3):
        task = stream[t].drawn()
        assert stream[t].train_raw is None and task.drawn() is task
        assert task.train_raw.tobytes() == original[t].tobytes(), t
        assert task.test_raw is stream[t].test_raw and task.n_train == stream[t].n_train == n_train
    if scenario == "dil":
        assert not np.array_equal(original[0], original[1])


def test_a_redraw_that_misses_the_test_split_raises_naming_the_task():
    """`drawn` checks the test split it draws again against the kept one:
    one changed bit there, or the generator state of another task, and it
    raises, naming the task."""
    spec = spec_for()
    stream = dm.gen_stream(spec, tok_for(spec), seed=4)
    task = stream[2]
    test_raw = task.test_raw.copy()
    test_raw[3, 5] = np.nextafter(test_raw[3, 5], np.inf)
    message = "^task 2: drawn again, its test split has other bits than the stream's$"
    with pytest.raises(RuntimeError, match=message):
        replace(task, test_raw=test_raw).drawn()
    with pytest.raises(RuntimeError, match=message):
        replace(task, source=stream[3].source).drawn()


def test_training_tokens_need_a_drawn_task():
    spec = spec_for()
    task = dm.gen_stream(spec, tok_for(spec), seed=4)[1]
    assert task.tokens("test").shape == (8, 4, 8)
    with pytest.raises(ValueError, match="^task 1: the training split is not drawn$"):
        task.tokens("train", slice(2))
    with pytest.raises(ValueError, match="^task 1: no training draws and no source to draw them from$"):
        replace(task, source=None).drawn()
