"""Span tracer that times orthopet's public functions from outside the package.

`Tracer.install` replaces each target function (a module attribute, or a
method on a class) with a wrapper that records one span per call: which
target, start and end on CLOCK_MONOTONIC in nanoseconds, the enclosing span
and an optional amount (input elements of an SVD, bytes of a checkpoint).
Spans stay in memory until `save` writes them out, and `uninstall` puts the
original functions back.  The program itself is not edited.

`layer_metrics` turns a span table into the benchmark's per-layer metrics.
A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

import importlib
import os
import time
from array import array

import numpy as np


def _svd_elems(args, kwargs, result):
    return int(np.prod(np.shape(args[0] if args else kwargs["a"])))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(result)


# (module, attribute, optional amount).  The span name is "<layer>.<attribute>"
# with the layer taken from the module name.
TARGETS = (
    ("orthopet.data", "make_tokenizer", None),
    ("orthopet.data", "gen_stream", None),
    ("orthopet.backbone", "forward", None),
    ("orthopet.backbone", "backward", None),
    ("orthopet.pet", "apply_prompt", None),
    ("orthopet.pet", "apply_prefix", None),
    ("orthopet.pet", "apply_adapter", None),
    ("orthopet.pet", "apply_lora", None),
    ("orthopet.pet", "gelu", None),
    ("orthopet.pet", "gelu_grad", None),
    ("orthopet.trainer", "continual_run", None),
    ("orthopet.trainer", "train_task", None),
    ("orthopet.trainer", "masked_cross_entropy", None),
    ("orthopet.trainer", "apply_updates", None),
    ("orthopet.trainer", "project_grads", None),
    ("orthopet.trainer", "evaluate_task", None),
    ("orthopet.trainer", "update_buffers", None),
    ("orthopet.trainer", "rebuild_bases", None),
    ("orthopet.projection", "sample_features", None),
    ("orthopet.projection", "build_basis", None),
    ("orthopet.projection", "FeatureBuffer.add", None),
    ("orthopet.linalg", "svd", _svd_elems),
    ("orthopet.checkpoint", "save_checkpoint", _file_bytes),
    ("orthopet.eval", "verify_all", None),
    ("orthopet.eval", "svd_suite", None),
    ("orthopet.eval", "gradient_check", None),
    ("orthopet.eval", "orthogonality_check", None),
    ("orthopet.eval", "eta_scaling_probe", None),
    ("orthopet.eval", "metrics_oracle_check", None),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def resolve(module: str, attr: str):
    """The object that owns the target attribute, and the attribute's name."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans for calls into TARGETS while installed."""

    def __init__(self):
        self.names = [span_name(module, attr) for module, attr, _ in TARGETS]
        self.name_ix = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.amount = array("q")
        self._stack = []
        self._originals = []

    def install(self) -> "Tracer":
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for ix, (module, attr, amount) in enumerate(TARGETS):
            owner, name = resolve(module, attr)
            original = getattr(owner, name)
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(ix, original, amount))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, ix, fn, amount):
        clock = time.monotonic_ns
        stack, name_ix, start, end, parent, amounts = (
            self._stack, self.name_ix, self.start, self.end, self.parent, self.amount,
        )

        def traced(*args, **kwargs):
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            amounts.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if amount is not None:
                amounts[sid] = amount(args, kwargs, result)
            return result

        return traced

    def spans(self) -> dict:
        """The span table as numpy arrays plus the list of span names."""
        return {
            "names": list(self.names),
            "name_ix": np.asarray(self.name_ix, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.int64),
            "end": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "amount": np.asarray(self.amount, dtype=np.int64),
        }

    def save(self, path) -> None:
        table = self.spans()
        table["names"] = np.asarray(table["names"])
        with open(path, "wb") as fh:
            np.savez(fh, **table)


def load(path) -> dict:
    with np.load(path) as data:
        table = {key: data[key] for key in data.files}
    table["names"] = [str(n) for n in table["names"]]
    return table


def self_ns(table: dict) -> np.ndarray:
    """Per-span duration minus the durations of its direct children."""
    dur = table["end"] - table["start"]
    child = np.zeros_like(dur)
    nested = table["parent"] >= 0
    np.add.at(child, table["parent"][nested], dur[nested])
    return dur - child


def _ids(table: dict, names) -> np.ndarray:
    wanted = [table["names"].index(n) for n in names]
    return np.flatnonzero(np.isin(table["name_ix"], wanted))


def _outermost(table: dict, ids: np.ndarray, name: str) -> np.ndarray:
    """The spans in `ids` with no ancestor called `name` (recursion counted once)."""
    ix = table["names"].index(name)
    parent, name_ix = table["parent"], table["name_ix"]
    keep = []
    for sid in ids:
        p = parent[sid]
        while p >= 0 and name_ix[p] != ix:
            p = parent[p]
        if p < 0:
            keep.append(sid)
    return np.asarray(keep, dtype=np.int64)


# Per-layer metrics: name -> (kind, span names).  Kinds:
#   self_s        summed self time in seconds
#   calls         number of spans
#   calls_under   spans whose parent span is the second name
#   outer_calls   spans not nested in a span of the same name
#   outer_amount  summed amount of those outermost spans
#   amount        summed amount
LAYER_METRICS = {
    "data.gen_stream_s": ("self_s", ["data.make_tokenizer", "data.gen_stream"]),
    "backbone.forward_calls": ("calls", ["backbone.forward"]),
    "backbone.forward_s": ("self_s", ["backbone.forward"]),
    "backbone.forward_sample_calls": ("calls_under", ["backbone.forward", "projection.sample_features"]),
    "backbone.backward_calls": ("calls", ["backbone.backward"]),
    "backbone.backward_s": ("self_s", ["backbone.backward"]),
    "pet.insert_calls": ("calls", ["pet.apply_prompt", "pet.apply_prefix", "pet.apply_adapter", "pet.apply_lora"]),
    "pet.insert_s": ("self_s", ["pet.apply_prompt", "pet.apply_prefix", "pet.apply_adapter", "pet.apply_lora"]),
    "pet.gelu_calls": ("calls", ["pet.gelu", "pet.gelu_grad"]),
    "pet.gelu_s": ("self_s", ["pet.gelu", "pet.gelu_grad"]),
    "trainer.train_task_s": ("self_s", ["trainer.train_task"]),
    "trainer.loss_s": ("self_s", ["trainer.masked_cross_entropy"]),
    "trainer.optimizer_steps": ("calls", ["trainer.apply_updates"]),
    "trainer.apply_updates_s": ("self_s", ["trainer.apply_updates"]),
    "trainer.project_grads_s": ("self_s", ["trainer.project_grads"]),
    "trainer.evaluate_task_s": ("self_s", ["trainer.evaluate_task"]),
    "trainer.update_buffers_s": ("self_s", ["trainer.update_buffers"]),
    "trainer.rebuild_bases_s": ("self_s", ["trainer.rebuild_bases"]),
    "projection.sample_features_s": ("self_s", ["projection.sample_features"]),
    "projection.build_basis_s": ("self_s", ["projection.build_basis"]),
    "projection.buffer_add_s": ("self_s", ["projection.add"]),
    "linalg.svd_calls": ("outer_calls", ["linalg.svd"]),
    "linalg.svd_s": ("self_s", ["linalg.svd"]),
    "linalg.svd_input_elems": ("outer_amount", ["linalg.svd"]),
    "checkpoint.save_calls": ("calls", ["checkpoint.save_checkpoint"]),
    "checkpoint.save_s": ("self_s", ["checkpoint.save_checkpoint"]),
    "checkpoint.bytes": ("amount", ["checkpoint.save_checkpoint"]),
    "eval.svd_suite_s": ("self_s", ["eval.svd_suite"]),
    "eval.gradient_check_s": ("self_s", ["eval.gradient_check"]),
    "eval.orthogonality_check_s": ("self_s", ["eval.orthogonality_check"]),
    "eval.eta_scaling_probe_s": ("self_s", ["eval.eta_scaling_probe"]),
    "eval.metrics_oracle_check_s": ("self_s", ["eval.metrics_oracle_check"]),
}


def layer_metrics(table: dict) -> dict:
    """Every LAYER_METRICS value for one span table; absent layers read 0."""
    own = self_ns(table)
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        ids = _ids(table, names[:1] if kind == "calls_under" else names)
        if kind == "self_s":
            out[metric] = float(own[ids].sum()) / 1e9
        elif kind == "calls":
            out[metric] = int(ids.size)
        elif kind == "calls_under":
            parents = table["parent"][ids]
            out[metric] = int(np.isin(parents, _ids(table, names[1:])).sum())
        elif kind == "outer_calls":
            out[metric] = int(_outermost(table, ids, names[0]).size)
        elif kind == "outer_amount":
            out[metric] = int(table["amount"][_outermost(table, ids, names[0])].sum())
        else:
            out[metric] = int(table["amount"][ids].sum())
    return out


def attributed_s(table: dict) -> float:
    """Summed self time of every span, in seconds."""
    return float(self_ns(table).sum()) / 1e9
