"""Checkpoint round-trips must be lossless and version-gated."""

import json

import numpy as np
import pytest

import orthopet.backbone as bb
import orthopet.checkpoint as ck
import orthopet.data as dm
import orthopet.metrics as mt
import orthopet.pet as pm
import orthopet.projection as pj
import orthopet.trainer as tr

MODEL = bb.TransformerConfig(dim=16, depth=2, heads=2, mlp_ratio=2.0, seq_len=4,
                             num_classes=4, prompt_len=4, prefix_len=4, rank=4)


def _handmade_state():
    rng = np.random.default_rng(7)
    pet = pm.init_pet(MODEL, "adapter", 3)
    head = rng.normal(size=(MODEL.dim, MODEL.num_classes))
    opt = tr.init_optimizer("adam", pet, head)
    # nonzero moments so the optimizer slot round-trip is exercised
    grads = {name: rng.normal(size=arr.shape) for name, arr in pet.params.items()}
    tr.apply_updates(opt, pet, head, grads, rng.normal(size=head.shape), lr=0.01)

    # two tasks' worth of rows per site
    buffers = tr.init_buffers("adapter", MODEL)
    for site, buf in buffers.items():
        buf.add(rng.normal(size=(6, buf.width)))
        buf.add(rng.normal(size=(4, buf.width)))

    bases = {
        site: pj.build_basis(buf.rows, 0.5, site)
        for site, buf in buffers.items()
    }
    # one deliberately empty basis: zero allowed directions must survive a save
    bases["mlp_in.0"] = pj.ProjectionBasis(b=np.zeros((MODEL.dim, 0)))

    matrix = mt.AccuracyMatrix(tasks=3)
    matrix.set(0, 0, 0.9375)
    matrix.set(1, 0, 0.8125)
    matrix.set(1, 1, 0.96875)
    return pet, head, opt, buffers, bases, matrix


def test_round_trip_exact(tmp_path):
    pet, head, opt, buffers, bases, matrix = _handmade_state()
    path = tmp_path / "task_1.json"
    ck.save_checkpoint(path, config_hash="abc123", task_index=1, pet=pet, head=head,
                       opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    state = ck.load_checkpoint(path)

    assert state["config_hash"] == "abc123"
    assert state["task_index"] == 1
    assert state["pet"].paradigm == "adapter"
    assert state["pet"].version == pet.version
    for name, arr in pet.params.items():
        assert np.array_equal(state["pet"].params[name], arr)
    assert np.array_equal(state["head"], head)
    assert state["optimizer"].kind == "adam"
    assert state["optimizer"].step == opt.step
    for name in opt.m:
        assert np.array_equal(state["optimizer"].m[name], opt.m[name])
        assert np.array_equal(state["optimizer"].v[name], opt.v[name])
    for site, buf in buffers.items():
        got = state["buffers"][site]
        assert got.site == site and got.width == buf.width
        assert got.rows.shape == (10, buf.width)
        assert np.array_equal(got.rows, buf.rows)
    for key, basis in bases.items():
        got = state["bases"][key]
        assert got.b.shape == basis.b.shape
        assert np.array_equal(got.b, basis.b)
    assert np.array_equal(
        np.isfinite(state["matrix"].values), np.isfinite(matrix.values))
    filled = np.isfinite(matrix.values)
    assert np.array_equal(state["matrix"].values[filled], matrix.values[filled])


def test_resave_is_byte_identical(tmp_path):
    pet, head, opt, buffers, bases, matrix = _handmade_state()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    ck.save_checkpoint(first, config_hash="h", task_index=1, pet=pet, head=head,
                       opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    state = ck.load_checkpoint(first)
    ck.save_checkpoint(second, config_hash=state["config_hash"],
                       task_index=state["task_index"], pet=state["pet"],
                       head=state["head"], opt=state["optimizer"],
                       buffers=state["buffers"], bases=state["bases"],
                       matrix=state["matrix"])
    assert first.read_bytes() == second.read_bytes()


def test_bases_carry_no_side_field(tmp_path):
    pet, head, opt, buffers, bases, matrix = _handmade_state()
    path = tmp_path / "e.json"
    ck.save_checkpoint(path, config_hash="h", task_index=0, pet=pet, head=head,
                       opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    doc = json.loads(path.read_text())
    assert doc["version"] == ck.CHECKPOINT_VERSION == 3
    assert all(set(b) == {"width", "b"} for b in doc["bases"].values())


def test_two_task_buffer_round_trips(tmp_path):
    """A version-3 buffer is its width and every row, in sampling order."""
    pet, head, opt, buffers, bases, matrix = _handmade_state()
    rows = np.arange(5.0 * MODEL.dim).reshape(5, MODEL.dim) / 7.0
    buffers["mlp_in.1"] = pj.FeatureBuffer(site="mlp_in.1", width=MODEL.dim)
    buffers["mlp_in.1"].add(rows[:3])
    buffers["mlp_in.1"].add(rows[3:])
    path = tmp_path / "task_1.json"
    ck.save_checkpoint(path, config_hash="h", task_index=1, pet=pet, head=head,
                       opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    doc = json.loads(path.read_text())
    assert all(set(b) == {"width", "rows"} for b in doc["buffers"].values())
    assert set(doc["pet"]) == {"paradigm", "pet_version", "params"}
    got = ck.load_checkpoint(path)["buffers"]["mlp_in.1"]
    assert np.array_equal(got.rows, rows)


def test_version_2_checkpoint_rejected(tmp_path):
    pet, head, opt, buffers, bases, matrix = _handmade_state()
    path = tmp_path / "task_0.json"
    ck.save_checkpoint(path, config_hash="h", task_index=0, pet=pet, head=head,
                       opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    doc = json.loads(path.read_text())
    doc["version"] = 2
    doc["pet"]["lora_scale"] = 1.0
    for b in doc["buffers"].values():
        b.update(cap=1024, seen=len(b["rows"]), tasks=[0] * len(b["rows"]))
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
        ck.load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    pet, head, opt, buffers, bases, matrix = _handmade_state()
    path = tmp_path / "task_0.json"
    ck.save_checkpoint(path, config_hash="h", task_index=0, pet=pet, head=head,
                       opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    before = path.read_bytes()

    def dump_then_fail(doc, fh, **kwargs):
        fh.write(json.dumps(doc, **kwargs)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(ck.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        ck.save_checkpoint(path, config_hash="other", task_index=1, pet=pet, head=head,
                           opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["task_0.json"]


def test_unsupported_version_rejected(tmp_path):
    pet, head, opt, buffers, bases, matrix = _handmade_state()
    path = tmp_path / "task_0.json"
    ck.save_checkpoint(path, config_hash="h", task_index=0, pet=pet, head=head,
                       opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    doc = json.loads(path.read_text())
    doc["version"] = ck.CHECKPOINT_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        ck.load_checkpoint(path)


def test_empty_rows_buffer_round_trips(tmp_path):
    pet, head, opt, buffers, bases, matrix = _handmade_state()
    buffers["mlp_in.0"] = pj.FeatureBuffer(site="mlp_in.0", width=MODEL.dim)
    path = tmp_path / "c.json"
    ck.save_checkpoint(path, config_hash="h", task_index=0, pet=pet, head=head,
                       opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    got = ck.load_checkpoint(path)["buffers"]["mlp_in.0"]
    assert got.rows.shape == (0, MODEL.dim)


def test_empty_basis_round_trips(tmp_path):
    pet, head, opt, buffers, bases, matrix = _handmade_state()
    path = tmp_path / "d.json"
    ck.save_checkpoint(path, config_hash="h", task_index=0, pet=pet, head=head,
                       opt=opt, buffers=buffers, bases=bases, matrix=matrix)
    got = ck.load_checkpoint(path)["bases"]["mlp_in.0"]
    assert got.b.shape == (MODEL.dim, 0)


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
    for t in range(spec.tasks):
        state = ck.load_checkpoint(tmp_path / f"task_{t}.json")
        assert state["config_hash"] == "deadbeef"
        assert state["task_index"] == t
        assert state["pet"].paradigm == "adapter"
        vals = state["matrix"].values
        for j in range(t + 1):
            for i in range(j + 1):
                assert 0.0 <= vals[j, i] <= 1.0
    final = ck.load_checkpoint(tmp_path / "task_1.json")
    filled = np.isfinite(matrix.values)
    assert np.array_equal(final["matrix"].values[filled], matrix.values[filled])
