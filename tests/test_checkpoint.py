"""Checkpoint round-trips must be lossless and version-gated."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

import orthopet.backbone as bb
import orthopet.checkpoint as ck
import orthopet.data as dm
import orthopet.metrics as mt
import orthopet.pet as pm
import orthopet.projection as pj
import orthopet.rng as rng_mod
import orthopet.trainer as tr

MODEL = bb.TransformerConfig(dim=16, depth=2, heads=2, mlp_ratio=2.0, seq_len=4,
                             num_classes=4, prompt_len=4, prefix_len=4, rank=4)
PROJ = pj.ProjectionConfig(epsilon=1e-6)


def _handmade_state():
    rng = np.random.default_rng(7)
    pet = pm.init_pet(MODEL, "adapter", 3)
    head = rng.normal(size=(MODEL.dim, MODEL.num_classes))
    opt = tr.OptimizerState("adam")
    grads = {name: rng.normal(size=arr.shape) for name, arr in pet.params.items()}
    tr.apply_updates(opt, pet, head, grads, rng.normal(size=head.shape), lr=0.01)

    # two tasks' worth of rows per site
    buffers = tr.init_buffers("adapter", MODEL)
    for site, buf in buffers.items():
        buf.add(rng.normal(size=(6, buf.width)))
        buf.add(rng.normal(size=(4, buf.width)))
    # one full-rank buffer, so one rebuilt basis is empty
    buffers["mlp_in.0"].add(rng.normal(size=(MODEL.dim, MODEL.dim)))

    matrix = mt.AccuracyMatrix(tasks=3)
    matrix.set(0, 0, 0.9375)
    matrix.set(1, 0, 0.8125)
    matrix.set(1, 1, 0.96875)

    # generators part-way through their streams
    rngs = {name: rng_mod.generator(11, name) for name in ("shuffle", "sampling")}
    rngs["shuffle"].permutation(40)
    rngs["sampling"].normal(size=3)
    return pet, head, buffers, matrix, rngs


def _save(path, *, config_hash="h", task_index=1, state=None):
    pet, head, buffers, matrix, rngs = state or _handmade_state()
    return ck.save_checkpoint(path, config_hash=config_hash, task_index=task_index, pet=pet,
                              head=head, buffers=buffers, matrix=matrix, rngs=rngs)


def _rewrite_meta(path, **changes):
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta.update(changes)
    arrays["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_round_trip_exact(tmp_path):
    pet, head, buffers, matrix, rngs = state = _handmade_state()
    path = tmp_path / "task_1.npz"
    assert _save(path, config_hash="abc123", state=state) == path
    got = ck.load_checkpoint(path)

    assert got["version"] == 4
    assert got["config_hash"] == "abc123"
    assert got["task_index"] == 1
    assert got["pet"].paradigm == "adapter"
    assert got["pet"].version == pet.version
    assert sorted(got["pet"].params) == sorted(pet.params)
    for name, arr in pet.params.items():
        assert np.array_equal(got["pet"].params[name], arr)
    assert np.array_equal(got["head"], head)
    assert sorted(got["buffers"]) == sorted(buffers)
    for site, buf in buffers.items():
        restored = got["buffers"][site]
        assert restored.site == site and restored.width == buf.width
        assert np.array_equal(restored.rows, buf.rows)
    assert np.array_equal(
        np.isfinite(got["matrix"].values), np.isfinite(matrix.values))
    filled = np.isfinite(matrix.values)
    assert np.array_equal(got["matrix"].values[filled], matrix.values[filled])
    assert got["rng_states"] == {name: g.bit_generator.state for name, g in rngs.items()}


def test_resave_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    _save(first)
    got = ck.load_checkpoint(first)
    rngs = {name: rng_mod.generator(0, name) for name in got["rng_states"]}
    for name, g in rngs.items():
        g.bit_generator.state = got["rng_states"][name]
    ck.save_checkpoint(second, config_hash=got["config_hash"], task_index=got["task_index"],
                       pet=got["pet"], head=got["head"], buffers=got["buffers"],
                       matrix=got["matrix"], rngs=rngs)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_holds_no_moments_or_bases(tmp_path):
    """Version 4 stores only what a resume reads: no optimizer, no bases."""
    pet, _, buffers, _, _ = state = _handmade_state()
    path = _save(tmp_path / "e.npz", state=state)
    with np.load(path, allow_pickle=False) as data:
        files = set(data.files)
        meta = json.loads(str(data["meta"]))
    assert files == ({"meta", "head"} | {f"pet/{n}" for n in pet.params}
                     | {f"buffer/{s}" for s in buffers})
    assert meta["version"] == ck.CHECKPOINT_VERSION == 4
    assert set(meta) == {"version", "config_hash", "task_index", "paradigm", "pet_version",
                         "accuracy_rows", "matrix_tasks", "rng_states"}
    assert set(meta["rng_states"]) == {"shuffle", "sampling"}


def test_two_task_buffer_round_trips(tmp_path):
    """A buffer is stored as its rows, in sampling order; the width is their shape."""
    pet, head, buffers, matrix, rngs = _handmade_state()
    rows = np.arange(5.0 * MODEL.dim).reshape(5, MODEL.dim) / 7.0
    buffers["mlp_in.1"] = pj.FeatureBuffer(site="mlp_in.1", width=MODEL.dim)
    buffers["mlp_in.1"].add(rows[:3])
    buffers["mlp_in.1"].add(rows[3:])
    path = _save(tmp_path / "task_1.npz", state=(pet, head, buffers, matrix, rngs))
    with np.load(path, allow_pickle=False) as data:
        assert data["buffer/mlp_in.1"].shape == (5, MODEL.dim)
    got = ck.load_checkpoint(path)["buffers"]["mlp_in.1"]
    assert got.width == MODEL.dim
    assert np.array_equal(got.rows, rows)


def test_rebuilt_bases_match_the_saved_state(tmp_path):
    """Bases are not stored: rebuilding them from a loaded checkpoint gives
    the same bits as from the state that was saved, empty bases included."""
    pet, _, buffers, _, _ = state = _handmade_state()
    with pytest.warns(pj.EmptyBasisWarning):
        before = tr.rebuild_bases(pet, buffers, PROJ, MODEL)
    got = ck.load_checkpoint(_save(tmp_path / "d.npz", state=state))
    with pytest.warns(pj.EmptyBasisWarning):
        after = tr.rebuild_bases(got["pet"], got["buffers"], PROJ, MODEL)
    assert before["mlp_in.0"].shape == (MODEL.dim, 0)
    assert sorted(after) == sorted(before)
    for key, basis in before.items():
        assert np.array_equal(after[key], basis)


def test_generator_state_round_trips(tmp_path):
    _, _, _, _, rngs = state = _handmade_state()
    got = ck.load_checkpoint(_save(tmp_path / "g.npz", state=state))
    for name, saved in rngs.items():
        restored = rng_mod.generator(0, name)
        restored.bit_generator.state = got["rng_states"][name]
        assert np.array_equal(restored.permutation(50), saved.permutation(50))
        assert np.array_equal(restored.normal(size=7), saved.normal(size=7))


def _legacy_json(path, version):
    """A JSON checkpoint with the fields its version carried."""
    pet, head, buffers, _, _ = _handmade_state()
    doc = {
        "version": version, "config_hash": "h", "task_index": 0,
        "pet": {"paradigm": pet.paradigm, "pet_version": pet.version,
                "params": {n: a.tolist() for n, a in pet.params.items()}},
        "head": head.tolist(),
        "optimizer": {"kind": "sgd", "step": 0, "m": {}, "v": {}},
        "buffers": {s: {"width": b.width, "rows": b.rows.tolist()} for s, b in buffers.items()},
        "bases": {}, "accuracy_rows": [[0.5]], "matrix_tasks": 3,
    }
    if version == 2:
        doc["pet"]["lora_scale"] = 1.0
        for b in doc["buffers"].values():
            b.update(cap=1024, seen=len(b["rows"]), tasks=[0] * len(b["rows"]))
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def test_version_2_checkpoint_rejected(tmp_path):
    path = _legacy_json(tmp_path / "task_0.json", 2)
    with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
        ck.load_checkpoint(path)


def test_version_3_json_checkpoint_rejected(tmp_path):
    path = _legacy_json(tmp_path / "task_0.json", 3)
    with pytest.raises(ValueError, match=r"unsupported checkpoint version 3 .*only version 4"):
        ck.load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = _save(tmp_path / "task_0.npz", task_index=0)
    before = path.read_bytes()

    def write_then_fail(tmp, arrays):
        tmp.write_bytes(b"PK\x03\x04" + bytes(96))
        raise OSError("disk full")

    monkeypatch.setattr(ck, "_write_npz", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        _save(path, config_hash="other", task_index=1)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["task_0.npz"]


def test_unsupported_version_rejected(tmp_path):
    path = _save(tmp_path / "task_0.npz", task_index=0)
    _rewrite_meta(path, version=ck.CHECKPOINT_VERSION + 1)
    with pytest.raises(ValueError, match="unsupported checkpoint version 5"):
        ck.load_checkpoint(path)


def test_pickled_members_are_refused(tmp_path):
    path = _save(tmp_path / "task_0.npz", task_index=0)
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    arrays["head"] = np.array([{"not": "an array"}], dtype=object)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ValueError, match="allow_pickle"):
        ck.load_checkpoint(path)


def test_empty_rows_buffer_round_trips(tmp_path):
    pet, head, buffers, matrix, rngs = _handmade_state()
    buffers["mlp_in.0"] = pj.FeatureBuffer(site="mlp_in.0", width=MODEL.dim)
    path = _save(tmp_path / "c.npz", task_index=0, state=(pet, head, buffers, matrix, rngs))
    got = ck.load_checkpoint(path)["buffers"]["mlp_in.0"]
    assert got.rows.shape == (0, MODEL.dim)
    assert got.width == MODEL.dim


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_run_emits_loadable_checkpoints(tmp_path):
    spec = dm.ScenarioSpec(scenario="cil", tasks=2, classes_per_task=2,
                           samples_per_class=20, feature_dim=64, noise=0.1,
                           separation=4.0)
    tok = dm.make_tokenizer(64, MODEL.seq_len, MODEL.dim, 0)
    stream = dm.gen_stream(spec, tok, 0)
    cfg = tr.TrainConfig(epochs=2, batch_size=8, lr=0.05, optimizer="sgd",
                         scenario="cil", seed=0, backbone_seed=0)
    matrix, info = tr.continual_run(stream, MODEL, "adapter", cfg,
                                    out_dir=tmp_path, config_hash="deadbeef")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["task_0.npz", "task_1.npz"]
    for t in range(spec.tasks):
        state = ck.load_checkpoint(tmp_path / f"task_{t}.npz")
        assert state["config_hash"] == "deadbeef"
        assert state["task_index"] == t
        assert state["pet"].paradigm == "adapter"
        vals = state["matrix"].values
        for j in range(t + 1):
            for i in range(j + 1):
                assert 0.0 <= vals[j, i] <= 1.0
    final = ck.load_checkpoint(tmp_path / "task_1.npz")
    filled = np.isfinite(matrix.values)
    assert np.array_equal(final["matrix"].values[filled], matrix.values[filled])


def _keyed(part, drop=None, add=None):
    """A state edit: drop the key `drop` from the state's `part` ("buffers"
    or the paradigm tensors, "params"), and add `add` holding the dropped
    value, or else the value of the first key."""
    def edit(state):
        keys = state["pet"].params if part == "params" else state["buffers"]
        value = keys.pop(drop) if drop else next(iter(keys.values()))
        if add:
            keys[add] = value
    return edit


def _reshaped(key, shape):
    """A state edit: put zeros of `shape` in place of the head ("head"), a
    paradigm tensor, or the rows of a buffer ("buffer/<site>")."""
    def edit(state):
        if key == "head":
            state["head"] = np.zeros(shape)
        elif key.startswith("buffer/"):
            site = key[len("buffer/"):]
            state["buffers"][site] = pj.FeatureBuffer(site, shape[1], np.zeros(shape))
        else:
            state["pet"].params[key] = np.zeros(shape)
    return edit


@pytest.mark.filterwarnings("ignore::orthopet.projection.EmptyBasisWarning")
def test_resume_state_must_fit_the_run(tmp_path):
    """`continual_run` refuses a state from another paradigm or stream
    length, one whose tensors or buffers are not keyed by the routes of the
    model (naming the missing and extra keys), one whose tensors, head or
    buffer rows have shapes the model does not take (naming the key and
    both shapes), and one with no task left to run."""
    spec = dm.ScenarioSpec(scenario="cil", tasks=2, classes_per_task=2,
                           samples_per_class=12, feature_dim=64, noise=0.1,
                           separation=4.0)
    stream = dm.gen_stream(spec, dm.make_tokenizer(64, MODEL.seq_len, MODEL.dim, 0), 0)
    cfg = tr.TrainConfig(epochs=1, batch_size=8, lr=0.05, optimizer="sgd",
                         scenario="cil", seed=0, backbone_seed=0)
    for paradigm in ("lora", "prompt"):
        tr.continual_run(stream, MODEL, paradigm, cfg, out_dir=tmp_path / paradigm, config_hash="h")
    other = "holds a lora run of 2 tasks, not a {} run of {} tasks"
    unfit = "its {} do not fit a {} model of depth {}: missing {}, extra {}"
    lora_layer_1 = [r.name for r in pm.routes("lora", 2) if r.layer == 1]
    for saved, t, paradigm, tasks, model, edit, match in (
        ("lora", 0, "prompt", 2, MODEL, None, other.format("prompt", 2)),
        ("lora", 0, "lora", 1, MODEL, None, other.format("lora", 1)),
        ("lora", 1, "lora", 2, MODEL, None, "task 1 is the last of 2 tasks; every task is already done"),
        ("prompt", 0, "prompt", 2, MODEL, _keyed("buffers", drop="embed"),
         unfit.format("buffers", "prompt", 2, ["embed"], [])),
        ("prompt", 0, "prompt", 2, MODEL, _keyed("buffers", add="attn_in.0"),
         unfit.format("buffers", "prompt", 2, [], ["attn_in.0"])),
        ("lora", 0, "lora", 2, MODEL, _keyed("params", drop="lora_v_up.1", add="lora_v_up.2"),
         unfit.format("tensors", "lora", 2, ["lora_v_up.1"], ["lora_v_up.2"])),
        ("lora", 0, "lora", 2, replace(MODEL, depth=1), None,
         unfit.format("tensors", "lora", 1, [], lora_layer_1)),
        ("lora", 0, "lora", 2, MODEL, _reshaped("buffer/attn_in.0", (5, 8)),
         "its buffer attn_in.0 has shape (5, 8), not (5, 16)"),
        ("lora", 0, "lora", 2, MODEL, _reshaped("lora_q_up.0", (16, 16)),
         "its tensor lora_q_up.0 has shape (16, 16), not (4, 16)"),
        ("lora", 0, "lora", 2, MODEL, _reshaped("head", (16, 5)),
         "its head has shape (16, 5), not (16, 4)"),
        ("prompt", 0, "prompt", 2, MODEL, _reshaped("prompt", (4,)),
         "its tensor prompt has shape (4,), not (4, 16)"),
        ("lora", 0, "lora", 2, replace(MODEL, rank=8), None,
         "its tensor lora_q_down.0 has shape (16, 4), not (16, 8)"),
    ):
        state = ck.load_checkpoint(ck.task_path(tmp_path / saved, t))
        if edit:
            edit(state)
        with pytest.raises(ValueError, match=re.escape(match)):
            tr.continual_run(stream[:tasks], model, paradigm, cfg, resume=state)
    assert ck.last_task_path(tmp_path / "lora") == tmp_path / "lora" / "task_1.npz"


def test_last_task_path_counts_only_names_task_path_writes(tmp_path):
    for name in ("task_01.npz", "task_007.npz", "task_x.npz", "task_\u00b2.npz", "task_-1.npz"):
        (tmp_path / name).write_bytes(b"")
    assert ck.last_task_path(tmp_path) is None
    for t in (0, 3, 10):
        ck.task_path(tmp_path, t).write_bytes(b"")
    assert ck.last_task_path(tmp_path) == tmp_path / "task_10.npz"
