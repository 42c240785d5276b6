"""Versioned JSON checkpoint bundles for continual runs.

Everything a run needs to resume mid-stream: the paradigm tensors, the
trainable head, optimizer moments, feature buffers, projection bases and
the accuracy matrix so far.  Arrays are stored as nested lists; float
repr round-trips exactly, so save/load is lossless.  A save replaces the
file at its path atomically.  Version 2 dropped the per-basis `side`
field: the gradient axis a basis acts on is read from the paradigm table.
"""

import json
import os
from pathlib import Path

import numpy as np

from . import metrics as mt
from . import pet as pm
from . import projection as pj

CHECKPOINT_VERSION = 2


def _arr(a: np.ndarray) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def save_checkpoint(path, *, config_hash, task_index, pet, head, opt, buffers, bases, matrix) -> Path:
    doc = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "task_index": task_index,
        "pet": {
            "paradigm": pet.paradigm,
            "lora_scale": pet.lora_scale,
            "pet_version": pet.version,
            "params": {name: _arr(arr) for name, arr in sorted(pet.params.items())},
        },
        "head": _arr(head),
        "optimizer": {
            "kind": opt.kind,
            "step": opt.step,
            "m": {name: _arr(arr) for name, arr in sorted(opt.m.items())},
            "v": {name: _arr(arr) for name, arr in sorted(opt.v.items())},
        },
        "buffers": {
            site: {
                "width": buf.width,
                "cap": buf.cap,
                "seen": buf.seen,
                "tasks": buf.tasks.tolist(),
                "rows": _arr(buf.rows),
            }
            for site, buf in sorted(buffers.items())
        },
        "bases": {
            key: {"width": b.width, "b": _arr(b.b)}
            for key, b in sorted(bases.items())
        },
        "accuracy_rows": [
            [matrix.values[j, i] for i in range(j + 1) if np.isfinite(matrix.values[j, i])]
            for j in range(task_index + 1)
        ],
        "matrix_tasks": matrix.tasks,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write beside the target and rename over it, so an interrupted write
    # leaves the previous checkpoint at `path` untouched.
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_checkpoint(path) -> dict:
    path = Path(path)
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")

    from . import trainer as tr

    pet = pm.PetState(
        paradigm=doc["pet"]["paradigm"],
        params={name: np.array(v) for name, v in doc["pet"]["params"].items()},
        lora_scale=doc["pet"]["lora_scale"],
        version=doc["pet"]["pet_version"],
    )
    opt = tr.OptimizerState(
        kind=doc["optimizer"]["kind"],
        m={name: np.array(v) for name, v in doc["optimizer"]["m"].items()},
        v={name: np.array(v) for name, v in doc["optimizer"]["v"].items()},
        step=doc["optimizer"]["step"],
    )
    buffers = {}
    for site, b in doc["buffers"].items():
        rows = np.array(b["rows"]) if b["rows"] else np.zeros((0, b["width"]))
        buffers[site] = pj.FeatureBuffer(
            site=site,
            width=b["width"],
            cap=b["cap"],
            rows=rows.reshape(-1, b["width"]),
            tasks=np.array(b["tasks"], dtype=np.int64),
            seen=b["seen"],
        )
    bases = {
        key: pj.ProjectionBasis(
            b=np.array(v["b"]).reshape(v["width"], -1) if v["b"] else np.zeros((v["width"], 0)),
        )
        for key, v in doc["bases"].items()
    }
    matrix = mt.AccuracyMatrix(tasks=doc["matrix_tasks"])
    for j, row in enumerate(doc["accuracy_rows"]):
        for i, acc in enumerate(row):
            matrix.set(j, i, acc)
    return {
        "version": doc["version"],
        "config_hash": doc["config_hash"],
        "task_index": doc["task_index"],
        "pet": pet,
        "head": np.array(doc["head"]),
        "optimizer": opt,
        "buffers": buffers,
        "bases": bases,
        "matrix": matrix,
    }
