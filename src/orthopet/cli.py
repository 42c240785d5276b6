"""Command-line front end: train, ablate, verify, report.

Configs are JSON with explicit keys; unknown keys are hard errors so a
typo cannot silently fall back to a default mid-experiment, and each
value must have the JSON type of its dataclass field.  Every
artifact records the sha256 hash of the effective config (after flag
overrides, output path excluded), and report files contain no
timestamps or absolute paths, so the same config and seed reproduce a
report byte for byte.  `train --resume` continues a stopped run from its
last checkpoint and gives the same report bytes.  `ablate --sweep`
takes a key of `eval.SWEEP_KEYS`: `epsilon` or `beta` with numbers, or
`projection=on,off` to compare the two arms; `beta` only for a paradigm
with a merging tensor, the one basis it weighs.  Importing this module
keeps OpenSSL's `_hashlib` out of the process unless it is already
loaded, so `hashlib` runs on CPython's builtin hashes, and sets
`OPENBLAS_NUM_THREADS=1` unless it is already set, so that OpenBLAS,
loaded after it, starts no thread.  It also fixes glibc's heap trim
threshold at `TRIM_THRESHOLD` (4 MiB) unless `MALLOC_TRIM_THRESHOLD_` is
set, so that memory a training step frees stays in the heap for the next
step; setting it turns off glibc's dynamic mmap threshold, which then
stays at 128 KiB.

Exit codes: 0 success, 1 runtime failure, 2 invalid config or usage.
"""

# numpy.random imports secrets, hmac and so `_hashlib`, which maps
# OpenSSL's libcrypto (3.4 MB resident) for a sha256 and a
# compare_digest that CPython's builtin `_sha256` and `_operator` give
# bit for bit.  A None entry makes `import _hashlib` fail, and hashlib,
# hmac and secrets fall back as on a build without OpenSSL.  The CLI owns
# its process; setdefault leaves a host's loaded `_hashlib` alone.
import os
import sys

sys.modules.setdefault("_hashlib", None)
# The worker pool forks this process.  A fork while other threads run is
# unsafe (a lock one of them holds stays held in the child), and Python
# 3.12 and later warn about it.  OpenBLAS starts a thread per extra core
# when numpy loads unless this is set first; a host's setting is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# glibc gives the free memory at the top of its heap back to the kernel
# once it exceeds M_TRIM_THRESHOLD, 128 KiB at start.  A training step
# frees its forward's activations before the next step allocates as much
# again, so at that threshold every step would unmap the pages and fault
# them back.  A fixed threshold above one step's transient memory keeps
# them; a host's MALLOC_TRIM_THRESHOLD_ is kept, and a libc without
# mallopt is left alone.  Forked workers inherit the setting.
TRIM_THRESHOLD = 4 << 20
if "MALLOC_TRIM_THRESHOLD_" not in os.environ:
    import ctypes

    _mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if _mallopt is not None:
        _mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        _mallopt.restype = ctypes.c_int
        _mallopt(-1, TRIM_THRESHOLD)  # -1 is M_TRIM_THRESHOLD

import argparse
import hashlib
import json
from dataclasses import asdict, fields
from pathlib import Path

from . import data as dm
from . import backbone as bb
from . import checkpoint as ck
from . import eval as ev
from . import metrics as mt
from . import pet as pm
from . import projection as pj
from . import trainer as tr


class ConfigError(ValueError):
    """Invalid run config; the message names the offending field."""


_SECTIONS = {
    "model": bb.TransformerConfig,
    "data": dm.ScenarioSpec,
    "train": tr.TrainConfig,
    "projection": pj.ProjectionConfig,
}
_TOP_KEYS = {"paradigm", "out", "data_seed", "sweep_seeds", *_SECTIONS}
# Filled from the scenario and projection sections instead.
_TRAIN_SKIP = {"scenario", "proj"}


class RunConfig:
    """Effective settings for one command, already validated."""

    def __init__(self, paradigm, model_cfg, spec, train_cfg, out, data_seed, sweep_seeds):
        self.paradigm = paradigm
        self.model_cfg = model_cfg
        self.spec = spec
        self.train_cfg = train_cfg
        self.out = Path(out)
        self.data_seed = data_seed
        self.sweep_seeds = sweep_seeds

    def effective(self) -> dict:
        """Plain-dict view of everything that determines the run's output."""
        return {
            "paradigm": self.paradigm,
            "data_seed": self.data_seed,
            "sweep_seeds": self.sweep_seeds,
            "model": asdict(self.model_cfg),
            "data": asdict(self.spec),
            "train": asdict(self.train_cfg),
        }

    def stream(self) -> list:
        """The task stream of this config; `data_seed` fixes the tokenizer and data."""
        tok = dm.make_tokenizer(self.spec.feature_dim, self.model_cfg.seq_len, self.model_cfg.dim, self.data_seed)
        return dm.gen_stream(self.spec, tok, self.data_seed)

    def config_hash(self) -> str:
        canon = json.dumps(self.effective(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


# A value must have exactly its field's type, so a bool is no int; float
# fields also take ints, kept as ints so that config hashes do not move.
_JSON_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", type(None): "null"}


def _section(raw: dict, name: str, cls):
    body = raw.get(name, {})
    if not isinstance(body, dict):
        raise ConfigError(f"{name}: must be an object")
    skip = _TRAIN_SKIP if name == "train" else set()
    field_types = {f.name: f.type for f in fields(cls) if f.name not in skip}
    for key, value in body.items():
        if key not in field_types:
            raise ConfigError(f"{name}.{key}: unknown key")
        wanted = getattr(field_types[key], "__args__", (field_types[key],))
        if type(value) not in wanted + ((int,) if float in wanted else ()):
            names = " or ".join(_JSON_NAMES[t] for t in wanted)
            raise ConfigError(f"{name}.{key}: must be {names}, got {json.dumps(value)}")
        # numpy indexes and sizes arrays with int64; a larger integer
        # overflows a float product or an array shape.
        if type(value) is int and not -2**63 <= value < 2**63:
            raise ConfigError(f"{name}.{key}: integer out of the 64-bit range [-2**63, 2**63)")
    return dict(body)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file, applying any flag overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"{key}: unknown key")

    overrides = overrides or {}
    paradigm = overrides.get("paradigm", raw.get("paradigm", "prompt"))
    try:
        pm.check_paradigm(paradigm)
    except ValueError as exc:
        raise ConfigError(f"paradigm: {exc}") from exc

    model_kw = _section(raw, "model", bb.TransformerConfig)
    data_kw = _section(raw, "data", dm.ScenarioSpec)
    train_kw = _section(raw, "train", tr.TrainConfig)
    proj_kw = _section(raw, "projection", pj.ProjectionConfig)
    if "scenario" in overrides:
        data_kw["scenario"] = overrides["scenario"]
    if "seed" in overrides:
        train_kw["seed"] = overrides["seed"]
    if "projection" in overrides:
        train_kw["projection"] = overrides["projection"]

    try:
        model_cfg = bb.TransformerConfig(**model_kw)
        spec = dm.ScenarioSpec(**data_kw)
        proj_cfg = pj.ProjectionConfig(**proj_kw)
        train_cfg = tr.TrainConfig(scenario=spec.scenario, proj=proj_cfg, **train_kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    if spec.feature_dim % model_cfg.seq_len != 0:
        raise ConfigError(
            f"data.feature_dim: {spec.feature_dim} not divisible by model.seq_len {model_cfg.seq_len}"
        )
    if model_cfg.num_classes < spec.total_classes:
        raise ConfigError(
            f"model.num_classes: {model_cfg.num_classes} < the {spec.total_classes} classes the stream needs"
        )
    for tensor in pm.PARADIGM_TENSORS[paradigm]:
        for size in tensor.shape:
            if getattr(model_cfg, size) < 1:
                raise ConfigError(f"model.{size}: {paradigm} paradigm needs {size} >= 1")

    data_seed = raw.get("data_seed", 0)
    if type(data_seed) is not int or data_seed < 0:
        raise ConfigError(f"data_seed: must be a non-negative integer, got {data_seed!r}")
    sweep_seeds = raw.get("sweep_seeds", [train_cfg.seed])
    if (
        not isinstance(sweep_seeds, list)
        or not sweep_seeds
        or not all(type(s) is int and s >= 0 for s in sweep_seeds)
    ):
        raise ConfigError("sweep_seeds: must be a non-empty list of non-negative integers")
    out = overrides.get("out", raw.get("out", "runs/run"))
    if type(out) is not str:
        raise ConfigError(f"out: must be a string, got {json.dumps(out)}")
    return RunConfig(paradigm, model_cfg, spec, train_cfg, out, data_seed, sweep_seeds)


def _parse_sweep(text: str):
    key, sep, rest = text.partition("=")
    if not sep or not rest:
        raise ConfigError(f"--sweep: expected key=v1,v2,..., got {text!r}")
    if key not in ev.SWEEP_KEYS:
        raise ConfigError(f"--sweep: key must be one of {', '.join(ev.SWEEP_KEYS)}, got {key!r}")
    items = rest.split(",")
    if len(items) < 2:
        raise ConfigError("--sweep: needs at least two values")
    if key == "projection":
        if not set(items) <= {"on", "off"}:
            raise ConfigError(f"--sweep: projection values must be on or off, got {rest!r}")
        return key, [item == "on" for item in items]
    try:
        values = [float(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"--sweep: {exc}") from exc
    for value in values:
        try:
            pj.ProjectionConfig(**{key: value})
        except ValueError as exc:
            raise ConfigError(f"--sweep: {exc}") from exc
    return key, values


def _resume_state(ckpt_dir: Path, config_hash: str, paradigm: str, model_cfg, tasks: int) -> dict:
    """The last checkpoint under `ckpt_dir`, checked against this run, with a task left to run."""
    path = ck.last_task_path(ckpt_dir)
    if path is None:
        raise ConfigError(f"--resume: no task_<t>.npz checkpoint under {ckpt_dir}")
    try:
        state = ck.load_checkpoint(path, paradigm, model_cfg, tasks)
    except ValueError as exc:
        raise ConfigError(f"--resume: {path}: {exc}") from exc
    if state["config_hash"] != config_hash:
        raise ConfigError(
            f"--resume: {path} was written by config {state['config_hash'][:12]}, "
            f"not by this config {config_hash[:12]}"
        )
    if state["task_index"] + 1 >= tasks:
        raise ConfigError(f"--resume: {path}: task {state['task_index']} is the last of {tasks} "
                          "tasks; every task is already done")
    return state


def cmd_train(cfg: RunConfig, resume: bool = False) -> int:
    stream = cfg.stream()
    ckpt_dir = cfg.out / "checkpoints"
    config_hash = cfg.config_hash()
    state = (_resume_state(ckpt_dir, config_hash, cfg.paradigm, cfg.model_cfg, len(stream))
             if resume else None)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    matrix, info = tr.continual_run(
        stream, cfg.model_cfg, cfg.paradigm, cfg.train_cfg,
        out_dir=str(ckpt_dir), config_hash=config_hash, resume=state,
    )
    record = {
        "config_hash": config_hash,
        "paradigm": cfg.paradigm,
        "scenario": cfg.spec.scenario,
        "seed": cfg.train_cfg.seed,
        "projection": cfg.train_cfg.projection,
        "accuracy_rows": matrix.to_lists(),
        "final_basis_columns": info["basis_sizes"][-1],
        **mt.summarize(matrix),
    }
    report = mt.emit_report([record], cfg.out / "report.jsonl")
    print(f"run {config_hash[:12]}: " + ", ".join(
        f"{k}={record[k]:.4f}" for k in mt.METRICS
    ))
    print(f"report: {report}")
    return 0


def cmd_ablate(cfg: RunConfig, sweep_key: str, sweep_values: list) -> int:
    config_hash = cfg.config_hash()
    rows = ev.ablation_sweep(
        cfg.stream(), cfg.model_cfg, cfg.paradigm, cfg.train_cfg,
        sweep_key, sweep_values, cfg.sweep_seeds,
    )
    # A record is its sweep row, with the swept value under "value".
    records = [{"config_hash": config_hash, "paradigm": cfg.paradigm,
                "scenario": cfg.spec.scenario, "sweep": sweep_key,
                "value": row.pop(sweep_key), **row} for row in rows]
    report = mt.emit_report(records, cfg.out / "ablation.jsonl")
    for rec in records:
        fgt_lo, fgt_hi = ev.seed_range(rec, "forgetting")
        new_lo, new_hi = ev.seed_range(rec, "new_acc")
        print(
            f"{sweep_key}={mt.sweep_label(rec['value'])}: columns {rec['basis_columns']:.1f}, "
            f"avg_acc {rec['avg_acc']:.4f}, "
            f"forgetting {rec['forgetting']:.4f} (seeds {fgt_lo:.4f}-{fgt_hi:.4f}), "
            f"new_acc {rec['new_acc']:.4f} (seeds {new_lo:.4f}-{new_hi:.4f})"
        )
    print(f"report: {report}")
    return 0


def cmd_verify() -> int:
    rows = ev.verify_all()
    for row in rows:
        print(f"{'PASS' if row['ok'] else 'FAIL'} {row['name']}: {row['detail']}")
    failed = [row["name"] for row in rows if not row["ok"]]
    if failed:
        print(f"{len(failed)} properties failed: {', '.join(failed)}")
        return 1
    print(f"all {len(rows)} properties hold")
    return 0


def cmd_report(path) -> int:
    runs, summary = mt.load_report(path)
    sys.stdout.write(mt.render_report(runs, summary))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthopet",
        description="continual-learning lab for projected parameter-efficient tuning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, help="override train.seed")
        p.add_argument("--projection", choices=("on", "off"), help="override projection arm")
        p.add_argument("--paradigm", choices=pm.PARADIGMS, help="override paradigm")
        p.add_argument("--scenario", choices=dm.SCENARIOS, help="override scenario")
        p.add_argument("--out", help="output directory")

    train = sub.add_parser("train", help="run one continual stream")
    add_run_flags(train)
    train.add_argument("--resume", action="store_true",
                       help="continue from the last checkpoint under <out>/checkpoints")
    ablate = sub.add_parser("ablate", help="sweep a projection setting over seeds")
    add_run_flags(ablate)
    ablate.add_argument("--sweep", required=True,
                        help="epsilon=v1,v2,..., beta=v1,v2,... or projection=on,off")
    sub.add_parser("verify", help="run the named property checks")
    report = sub.add_parser("report", help="print the summary of a report file")
    report.add_argument("path", help="report file written by train or ablate")
    return parser


def _overrides(args) -> dict:
    out = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if args.projection is not None:
        out["projection"] = args.projection == "on"
    if args.paradigm is not None:
        out["paradigm"] = args.paradigm
    if args.scenario is not None:
        out["scenario"] = args.scenario
    if args.out is not None:
        out["out"] = args.out
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify()
        if args.command == "report":
            return cmd_report(args.path)
        cfg = load_config(args.config, _overrides(args))
        if args.command == "train":
            return cmd_train(cfg, args.resume)
        sweep_key, sweep_values = _parse_sweep(args.sweep)
        if sweep_key == "projection" and args.projection is not None:
            # The flag would be overridden, yet still move the config hash.
            raise ConfigError("--projection: --sweep projection=... sets the arm of every run")
        if sweep_key == "beta" and not any(s.merge for s in pm.PARADIGM_TENSORS[cfg.paradigm]):
            # beta only weighs merged bases: every value would give the same rows.
            raise ConfigError(f"--sweep: beta only acts on a merging tensor, and {cfg.paradigm} has none")
        return cmd_ablate(cfg, sweep_key, sweep_values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
