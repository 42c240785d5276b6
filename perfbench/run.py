"""orthopet benchmark: fixed CLI workloads, each run as fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's `src`, the workloads read the shipped `configs`.  One invocation
  1. starts SETUP_PROBES children that stop at the command's entry point,
     for set-up time;
  2. repeats the whole command, one child at a time, until `--seconds` is
     spent (at least once).
With `--trace 1` it skips the probes and alternates untraced repetitions
with repetitions under the span tracer (tracer.py), then reports per-layer
metrics and the tracing overhead against the untraced median.
Every child's output is checked (see `check_rep`); the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
`--all` prints tables only.  Full results, with run metadata, go to
perfbench/out/results/.
Exit code: 0 when the benchmark ran (with `--all`: and no child failed),
2 when the checkout lacks the program.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Why each workload exists is recorded in BENCHMARK.json and DESIGN.md.
WORKLOADS = {
    "cil_prompt": "configs/cil_prompt.json",
    "oil_lora": "configs/oil_lora.json",
    "verify": None,
}
SETUP_PROBES = 5
# `orthopet verify` must report at least this many properties, all holding.
VERIFY_PROPERTIES = 15
# Children must be done this long after the runner starts, so that the
# whole invocation ends within three minutes.
DEADLINE_S = 165.0

# name -> unit.  E2E_METRICS are the end-to-end metrics of BENCHMARK.json;
# RECORDED_METRICS are not defined on every workload, or are 0 by design, so
# they are only printed and written to the results.
E2E_METRICS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
RECORDED_METRICS = {"artifact_mb": "MB", "avg_acc": "share", "forgetting": "share",
                    "ops_failed": "share"}
TRACE_METRICS = {
    "trace.command_s": "s",
    "trace.run_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "trace.other_s": "s",
}


def layer_unit(name: str) -> str:
    if name in TRACE_METRICS:
        return TRACE_METRICS[name]
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("bytes") else "count"


def source_sha256() -> str:
    """Hash of the program and configs, so results name the code they measured."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "configs").glob("*.json")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _git(*args):
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(workloads, seed) -> dict:
    import numpy as np
    from orthopet import cli

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    sha = _git("rev-parse", "HEAD") if in_repo else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(_git("status", "--porcelain")),
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
        "config_hash": {
            name: cli.load_config(ROOT / cfg, {"seed": seed}).config_hash() if cfg else None
            for name, cfg in WORKLOADS.items() if name in workloads
        },
    }


def cli_args(workload: str, seed: int, out: Path) -> list:
    cfg = WORKLOADS[workload]
    if cfg is None:
        return ["verify"]
    return ["train", "--config", str(ROOT / cfg), "--seed", str(seed), "--out", str(out)]


def run_child(workload, seed, mode, rep_dir: Path, deadline: float) -> dict:
    """Start one child, wait for it, and return its timings and resources."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    timing_path = rep_dir / "timing.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(timing_path), mode, "--",
           *cli_args(workload, seed, rep_dir / "out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(rep_dir / "stdout.txt", "w") as out, open(rep_dir / "stderr.txt", "w") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        t1 = time.monotonic_ns()
    rep = {
        "mode": mode,
        "rc": proc.returncode,
        "wall_s": (t1 - t0) / 1e9,
        "dir": str(rep_dir.relative_to(ROOT)),
    }
    try:
        timing = json.loads(timing_path.read_text())
    except (OSError, ValueError):
        timing = {}
    rep["orthopet"] = timing.get("orthopet")
    if "peak_rss_bytes" in timing:
        rep["peak_rss_mb"] = timing["peak_rss_bytes"] / 1e6
    if "entry_ns" in timing:
        rep["setup_s"] = (timing["entry_ns"] - t0) / 1e9
    if "entry_ns" in timing and "return_ns" in timing:
        rep["run_s"] = (timing["return_ns"] - timing["entry_ns"]) / 1e9
        rep["command_s"] = (timing["return_ns"] - t0) / 1e9
    out_dir = rep_dir / "out"
    if out_dir.is_dir():
        rep["artifact_mb"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) / 1e6
    return rep


def _finite(record: dict, keys) -> bool:
    return all(isinstance(record.get(k), (int, float)) and math.isfinite(record[k]) for k in keys)


def check_rep(workload: str, rep: dict, config_hash) -> list:
    """Reasons this repetition's output is wrong; empty when it is right."""
    rep_dir = ROOT / rep["dir"]
    errors = []
    if rep["rc"] != 0:
        errors.append(f"exit code {rep['rc']}")
    if "setup_s" not in rep:
        errors.append("entry point never reached")
    if rep["orthopet"] is not None and Path(rep["orthopet"]).resolve() != SRC / "orthopet":
        errors.append(f"imported orthopet from {rep['orthopet']}, not from this checkout")
    if rep["mode"] == "setup" or errors:
        return errors
    if "run_s" not in rep:
        return errors + ["command did not return"]
    if WORKLOADS[workload] is None:
        lines = (rep_dir / "stdout.txt").read_text().split("\n")
        last = next((line for line in reversed(lines) if line.strip()), "")
        m = re.fullmatch(r"all (\d+) properties hold", last.strip())
        if m is None or int(m.group(1)) < VERIFY_PROPERTIES:
            errors.append(f"verify ended with {last!r}")
        return errors
    report = rep_dir / "out" / "report.jsonl"
    try:
        data = report.read_bytes()
        records = [json.loads(line) for line in data.decode().splitlines() if line.strip()]
    except (OSError, ValueError) as exc:
        return errors + [f"unreadable report.jsonl: {exc}"]
    runs = [r for r in records if isinstance(r, dict) and r.get("record") == "run"]
    summaries = [r for r in records if isinstance(r, dict) and r.get("record") == "summary"]
    if not runs or len(summaries) != 1:
        return errors + ["report.jsonl lacks its run or summary record"]
    if not all(_finite(r, ("avg_acc", "forgetting", "new_acc")) for r in runs) or not _finite(
        summaries[0], ("mean_avg_acc", "mean_forgetting", "mean_new_acc")
    ):
        errors.append("report.jsonl has a non-finite metric")
    if any(r.get("config_hash") != config_hash for r in runs):
        errors.append("report.jsonl names another config hash")
    rep["report_sha256"] = hashlib.sha256(data).hexdigest()
    rep["avg_acc"] = runs[0].get("avg_acc")
    rep["forgetting"] = runs[0].get("forgetting")
    return errors


def check_determinism(workload: str, seed: int, reps: list, source_sha: str) -> None:
    """Every report of one source tree and seed must have the same bytes.

    The first report seen for a key is kept in out/report_sha.json, so runs
    in later invocations are compared with it too.
    """
    registry_path = OUT / "report_sha.json"
    try:
        registry = json.loads(registry_path.read_text())
    except (OSError, ValueError):
        registry = {}
    key = f"{source_sha}:{workload}:{seed}"
    for rep in reps:
        sha = rep.get("report_sha256")
        if sha is None or rep["errors"]:
            continue
        expected = registry.setdefault(key, sha)
        if sha != expected:
            rep["errors"].append(f"report.jsonl sha256 {sha[:12]} differs from {expected[:12]}")
    registry_path.write_text(json.dumps(registry, indent=1, sort_keys=True) + "\n")


def stats(values) -> dict:
    values = sorted(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def repeat(workload, seed, modes, seconds, deadline) -> list:
    """Run whole commands, cycling through `modes`, until one more cycle
    would take longer than `seconds` in all; at least one cycle."""
    reps = []
    start = time.monotonic()
    while True:
        for mode in modes:
            rep_dir = OUT / "runs" / workload / f"{mode}{sum(r['mode'] == mode for r in reps)}"
            reps.append(run_child(workload, seed, mode, rep_dir, deadline))
        now = time.monotonic()
        cycle = (now - start) * len(modes) / len(reps)
        if now - start + cycle > seconds or now + cycle > deadline:
            return reps


def run_workload(workload: str, seed: int, seconds: float, trace: bool, meta: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    config_hash = meta["config_hash"][workload]
    if trace:
        # Untraced and traced repetitions alternate, so that the overhead
        # compares runs made under the same machine load.
        reps = repeat(workload, seed, ("run", "trace"), seconds, deadline)
    else:
        reps = [run_child(workload, seed, "setup", OUT / "runs" / workload / f"setup{i}", deadline)
                for i in range(SETUP_PROBES)]
        reps += repeat(workload, seed, ("run",), seconds, deadline)
    for rep in reps:
        rep["errors"] = check_rep(workload, rep, config_hash)
    check_determinism(workload, seed, reps, meta["source_sha256"])

    ok = [r for r in reps if not r["errors"]]
    runs = [r for r in ok if r["mode"] == "run"]
    traced = [r for r in ok if r["mode"] == "trace"]
    failed = sum(1 for r in reps if r["errors"])
    e2e = {
        "setup_s": stats(r["setup_s"] for r in ok),
        "run_s": stats(r["run_s"] for r in runs),
        "peak_rss_mb": stats(r["peak_rss_mb"] for r in runs),
        "ops_failed": stats([failed / len(reps)]),
    }
    if WORKLOADS[workload] is not None:
        for name in ("artifact_mb", "avg_acc", "forgetting"):
            e2e[name] = stats(r[name] for r in runs)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "metadata": meta,
        "attempted": len(reps),
        "failed": failed,
        "report_sha256": sorted({r["report_sha256"] for r in ok if "report_sha256" in r}),
        "end_to_end": e2e,
        "reps": reps,
    }
    if trace and traced:
        result["per_layer"] = per_layer(traced, e2e["run_s"]["median"])
        result["layer_share_pct"] = layer_shares(result["per_layer"])
    return result


def per_layer(traced: list, untraced_run_s) -> dict:
    """Median over traced repetitions of every per-layer metric."""
    rows = []
    for rep in traced:
        table = tracer.load(ROOT / rep["dir"] / "timing.json.spans.npz")
        row = tracer.layer_metrics(table)
        row["trace.command_s"] = rep["command_s"]
        row["trace.run_s"] = rep["run_s"]
        row["trace.spans"] = int(table["name_ix"].size)
        row["trace.other_s"] = rep["command_s"] - tracer.attributed_s(table)
        rows.append(row)
    # Counts repeat exactly; median_low keeps them whole numbers.
    out = {
        name: (statistics.median if layer_unit(name) in ("s", "%") else statistics.median_low)(
            [row[name] for row in rows]
        )
        for name in rows[0]
    }
    if untraced_run_s:
        out["trace.overhead_pct"] = 100.0 * (out["trace.run_s"] / untraced_run_s - 1.0)
    return out


def layer_shares(layers: dict) -> dict:
    """Self time of each layer, and of no layer, in % of the traced command."""
    shares = {}
    for name, value in layers.items():
        if layer_unit(name) == "s" and not name.startswith("trace."):
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + value
    shares["other"] = layers["trace.other_s"]
    return {k: 100.0 * v / layers["trace.command_s"] for k, v in shares.items()}


def print_result(result: dict) -> None:
    w = result["workload"]
    print(f"{w}: seed {result['seed']}, {result['attempted']} children, "
          f"{result['failed']} failed, report sha256 {result['report_sha256'] or '-'}")
    for name, s in result["end_to_end"].items():
        unit = {**E2E_METRICS, **RECORDED_METRICS}[name]
        if s["median"] is not None:
            print(f"  {name:<14} {s['median']:12.6g} {unit:<6} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    layers = result.get("per_layer", {})
    for name in sorted(layers):
        print(f"  {name:<32} {layers[name]:14.6g} {layer_unit(name)}")
    if "layer_share_pct" in result:
        print("  self time, % of traced command: " + ", ".join(
            f"{k} {v:.1f}" for k, v in sorted(result["layer_share_pct"].items(), key=lambda kv: -kv[1])
        ))


def result_line(result: dict, trace: bool) -> dict:
    if trace:
        names = [*TRACE_METRICS, *tracer.LAYER_METRICS]
        metrics = {n: {"value": result["per_layer"][n], "unit": layer_unit(n)}
                   for n in names if n in result.get("per_layer", {})}
    else:
        metrics = {n: {"value": result["end_to_end"][n]["median"], "unit": E2E_METRICS[n]}
                   for n in E2E_METRICS if result["end_to_end"][n]["median"] is not None}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ["src/orthopet/cli.py", *filter(None, WORKLOADS.values())]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an orthopet checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = sorted(WORKLOADS) if args.all else [args.workload]
    meta = metadata(workloads, args.seed)
    (OUT / "results").mkdir(parents=True, exist_ok=True)

    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), meta)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / "results" / name).write_text(json.dumps(result, indent=1) + "\n")
        print_result(result)
        results.append(result)
    if args.all:
        # Without the per-repetition records, so that it can serve as a baseline.
        summary = [{k: v for k, v in r.items() if k != "reps"} for r in results]
        name = f"all-seed{args.seed}-trace{args.trace}.json"
        (OUT / "results" / name).write_text(json.dumps(summary, indent=1) + "\n")
        return 0 if all(r["failed"] == 0 for r in results) else 1
    print(json.dumps(result_line(results[0], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
