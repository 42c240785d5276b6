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
always gives the same file bytes.  Only version 4 loads; versions 1-3
were one JSON document each and are rejected by version.
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


def _legacy_version(path: Path):
    """The version a pre-4 JSON checkpoint names, or None for other files."""
    with open(path, "rb") as fh:
        if fh.read(1) != b"{":
            return None
    with open(path) as fh:
        return json.load(fh).get("version")


# The keys of `meta` and the JSON type of each; a bool is no int here.
_META = {"version": int, "config_hash": str, "task_index": int, "paradigm": str,
         "pet_version": int, "accuracy_rows": list, "matrix_tasks": int, "rng_states": dict}
# The generators whose states a checkpoint keeps.
RNG_NAMES = ("sampling", "shuffle")


def load_checkpoint(path) -> dict:
    """The state saved at `path`.  A file that is no readable `.npz`, of
    another version, or without a member or meta key a resume needs, a
    meta value of the wrong JSON type, a pickled member or a buffer member
    that is not 2-D raises ValueError naming what is wrong."""
    path = Path(path)
    legacy = _legacy_version(path)
    if legacy is not None:
        raise ValueError(
            f"unsupported checkpoint version {legacy!r} (a JSON checkpoint); "
            f"only version {CHECKPOINT_VERSION} .npz checkpoints load"
        )
    try:
        with np.load(path, allow_pickle=False) as data:
            for member in ("meta", "head"):
                if member not in data.files:
                    raise ValueError(f"it has no member {member}")
            meta = json.loads(str(data["meta"]))
            if not isinstance(meta, dict):
                raise ValueError("its meta is not a JSON object")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
            params = {k[len(_PET):]: data[k] for k in data.files if k.startswith(_PET)}
            buffers = {
                k[len(_BUFFER):]: data[k] for k in data.files if k.startswith(_BUFFER)
            }
            head = data["head"]
    except (EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"it is not a readable .npz file ({exc})") from exc
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
    for site, rows in buffers.items():
        if rows.ndim != 2:
            raise ValueError(f"its buffer {site} has shape {rows.shape}, not (rows, width)")

    matrix = mt.AccuracyMatrix(tasks=meta["matrix_tasks"])
    for j, row in enumerate(acc_rows):
        for i, acc in enumerate(row):
            matrix.set(j, i, acc)
    return {
        "version": meta["version"],
        "config_hash": meta["config_hash"],
        "task_index": meta["task_index"],
        "pet": pm.PetState(paradigm=meta["paradigm"], params=params, version=meta["pet_version"]),
        "head": head,
        "buffers": {
            site: pj.FeatureBuffer(site=site, width=rows.shape[1], rows=rows)
            for site, rows in buffers.items()
        },
        "matrix": matrix,
        "rng_states": meta["rng_states"],
    }
