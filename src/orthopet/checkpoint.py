"""Versioned checkpoints for continual runs: one binary `.npz` per task.

A checkpoint holds exactly what a resume at the next task boundary
needs: the paradigm tensors, the trainable head, every feature buffer's
rows, the accuracy matrix so far and the state of the `shuffle` and
`sampling` generators.  Arrays are stored as exact float64 `.npy`
members; everything else sits in one JSON string member, `meta`.

Two things a run keeps are left out because a resume rebuilds them:
optimizer moments (`continual_run` starts a fresh optimizer for every
task) and projection bases (`trainer.rebuild_bases` derives them bit for
bit from the buffers and the paradigm tensors).

A save replaces the file at its path atomically, and the same state
always gives the same file bytes.  Only version 4 loads; a file that is
no `.npz`, the JSON of versions 1-3 included, is refused as unreadable.
A load opens the file once and checks it against the run that resumes
from it, member by member.
"""

import json
import zipfile
from pathlib import Path

import numpy as np

from . import metrics as mt
from . import pet as pm
from . import projection as pj

CHECKPOINT_VERSION = 4
_PET = "pet/"
_BUFFER = "buffer/"


def task_path(directory, task_index: int) -> Path:
    """Where a run keeps the checkpoint written after task `task_index`."""
    return Path(directory) / f"task_{task_index}.npz"


def last_task_path(directory):
    """The highest-numbered checkpoint in `directory` named by `task_path`, or None."""
    done = [p.stem[len("task_"):] for p in Path(directory).glob("task_*.npz")]
    done = [int(t) for t in done if t.isdecimal() and str(int(t)) == t]
    return task_path(directory, max(done)) if done else None


def save_checkpoint(path, *, config_hash, task_index, pet, head, buffers, matrix, rngs) -> Path:
    """Write the state after task `task_index` to `path`; returns `path`.

    `rngs` maps generator name (`shuffle`, `sampling`) to the generator
    whose state a resume continues from.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "task_index": task_index,
        "paradigm": pet.paradigm,
        "pet_version": pet.version,
        "accuracy_rows": matrix.to_lists()[: task_index + 1],
        "matrix_tasks": matrix.tasks,
        "rng_states": {name: g.bit_generator.state for name, g in sorted(rngs.items())},
    }
    arrays = {"meta": np.array(json.dumps(meta, sort_keys=True)), "head": head}
    arrays.update((_PET + name, arr) for name, arr in sorted(pet.params.items()))
    arrays.update((_BUFFER + site, buf.rows) for site, buf in sorted(buffers.items()))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mt.write_replacing(path, lambda tmp: _write_npz(tmp, arrays))
    return path


def _write_npz(path: Path, arrays: dict) -> None:
    """An uncompressed `.npz` that `np.load` reads, with fixed member dates.

    `np.savez` stamps every member header with the wall clock; a bare
    `ZipInfo` carries 1980-01-01, so the same state always gives the same
    file bytes.
    """
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in arrays.items():
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as out:
                np.lib.format.write_array(out, np.asanyarray(arr), allow_pickle=False)


# The keys of `meta` and the JSON type of each; a bool is no int here.
_META = {"version": int, "config_hash": str, "task_index": int, "paradigm": str,
         "pet_version": int, "accuracy_rows": list, "matrix_tasks": int, "rng_states": dict}
# The generators whose states a checkpoint keeps.
RNG_NAMES = ("sampling", "shuffle")


def _under(prefix, members) -> dict:
    """The members whose names start with `prefix`, keyed without it."""
    return {k[len(prefix):]: v for k, v in members.items() if k.startswith(prefix)}


def load_checkpoint(path, paradigm, model_cfg, tasks: int) -> dict:
    """The state saved at `path`, checked against the `paradigm` run of
    `tasks` tasks on a `model_cfg` model that resumes from it; the state
    `trainer.continual_run(resume=...)` takes as it is.

    Raises ValueError naming what is wrong: a file that is no readable
    `.npz` or of another version; a missing member or meta key, a meta
    that is not JSON or holds a value of the wrong JSON type; a saved run
    of another paradigm or length; paradigm tensors or buffers not keyed
    by the routes of this model (naming the missing and extra keys); a
    member that is pickled or no array, has a shape the model does not
    take (naming the key and both shapes), is not finite float64 or is an
    empty buffer; or an rng state that does not load into a `PCG64`.
    """
    # Not `np.load`: it hands back a bare `.npy` as an array, and leaks its
    # file when the zip reader fails.
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as data:
            for member in ("meta", "head"):
                if member not in data.files:
                    raise ValueError(f"it has no member {member}")
            meta = json.loads(str(data["meta"]))
            arrays = {k: data[k] for k in data.files if k == "head" or k.startswith((_PET, _BUFFER))}
    except json.JSONDecodeError as exc:
        raise ValueError(f"its meta is not JSON ({exc})") from exc
    # zipfile raises RuntimeError for an encrypted member, and its subclass
    # NotImplementedError for a zip version or method it does not read.
    except (OSError, EOFError, RuntimeError, zipfile.BadZipFile) as exc:
        raise ValueError(f"it is not a readable .npz file ({exc})") from exc
    if not isinstance(meta, dict):
        raise ValueError("its meta is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
    for key, kind in _META.items():
        if key not in meta:
            raise ValueError(f"its meta has no key {key}")
        if type(meta[key]) is not kind:
            raise ValueError(f"its meta {key} is {json.dumps(meta[key])}, not of type {kind.__name__}")
    acc_rows = meta["accuracy_rows"]
    if not acc_rows or len(acc_rows) != meta["task_index"] + 1 or not all(
        isinstance(row, list) and len(row) == j + 1 and all(type(a) in (int, float) for a in row)
        for j, row in enumerate(acc_rows)
    ):
        raise ValueError(
            f"its meta accuracy_rows is {json.dumps(acc_rows)}, not task_index + 1 rows of 1, 2, ... numbers"
        )
    missing = sorted(set(RNG_NAMES) - set(meta["rng_states"]))
    if missing:
        raise ValueError(f"its meta rng_states has no state for {', '.join(missing)}")
    saved = (meta["paradigm"], meta["matrix_tasks"])
    if saved != (paradigm, tasks):
        raise ValueError(
            f"it holds a {saved[0]} run of {saved[1]} tasks, not a {paradigm} run of {tasks} tasks"
        )

    # The array members this run takes: member -> (its name in a message,
    # its shape); a buffer takes any number of rows.
    want = {"head": ("head", (model_cfg.dim, model_cfg.num_classes))}
    for r in pm.routes(paradigm, model_cfg.depth):
        want[_PET + r.name] = (f"tensor {r.name}", tuple(getattr(model_cfg, f) for f in r.spec.shape))
        want[_BUFFER + r.site] = (f"buffer {r.site}", (None, pj.site_width(r, model_cfg)))
    for what, prefix in (("tensors", _PET), ("buffers", _BUFFER)):
        have, need = set(_under(prefix, arrays)), set(_under(prefix, want))
        if have != need:
            raise ValueError(
                f"its {what} do not fit a {paradigm} model of depth {model_cfg.depth}: "
                f"missing {sorted(need - have)}, extra {sorted(have - need)}"
            )
    for member, (what, shape) in want.items():
        arr = arrays[member]
        if not isinstance(arr, np.ndarray):
            raise ValueError(f"its {what} is not an array")
        if shape[0] is None:
            shape = arr.shape[:1] + shape[1:] if arr.ndim == 2 else "(rows, width)"
        if arr.shape != shape:
            raise ValueError(f"its {what} has shape {arr.shape}, not {shape}")
        if arr.dtype != np.float64:
            raise ValueError(f"its {what} is {arr.dtype}, not float64")
        if arr.size == 0:
            raise ValueError(f"its {what} has no rows")
        if not np.isfinite(arr).all():
            raise ValueError(f"its {what} holds a value that is not finite")
    for name, rng_state in sorted(meta["rng_states"].items()):
        try:
            np.random.PCG64().state = rng_state
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ValueError(f"its rng state {name} does not load into PCG64 ({exc!r})") from exc

    matrix = mt.AccuracyMatrix(tasks=meta["matrix_tasks"])
    for j, row in enumerate(acc_rows):
        for i, acc in enumerate(row):
            matrix.set(j, i, acc)
    return {
        "config_hash": meta["config_hash"],
        "task_index": meta["task_index"],
        "pet": pm.PetState(paradigm=paradigm, params=_under(_PET, arrays), version=meta["pet_version"]),
        "head": arrays["head"],
        "buffers": {
            site: pj.FeatureBuffer(site=site, width=rows.shape[1], rows=rows)
            for site, rows in _under(_BUFFER, arrays).items()
        },
        "matrix": matrix,
        "rng_states": meta["rng_states"],
    }
