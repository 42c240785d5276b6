"""Continual-learning metrics and the run report format.

The accuracy matrix stores A[j, i]: accuracy of task i's test split under
the model as it stood after training task j, so only the lower triangle
is ever filled.  Forgetting follows the tables' convention (best historic
accuracy minus final accuracy, positive when the model degrades), not the
sign the printed formula would produce.

Reports are line-delimited JSON with sorted keys and no timestamps so a
rerun of the same config and seed is byte-identical; a text rendering
sits next to the machine file for humans.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class AccuracyMatrix:
    tasks: int
    values: np.ndarray = None

    def __post_init__(self):
        if self.tasks < 1:
            raise ValueError("tasks must be >= 1")
        if self.values is None:
            self.values = np.full((self.tasks, self.tasks), np.nan)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.tasks, self.tasks):
            raise ValueError(f"values must be ({self.tasks}, {self.tasks})")

    def set(self, model_row: int, task_col: int, acc: float) -> None:
        if not 0 <= task_col <= model_row < self.tasks:
            raise ValueError(f"entry ({model_row}, {task_col}) is outside the lower triangle")
        if not 0.0 <= acc <= 1.0:
            raise ValueError(f"accuracy {acc} outside [0, 1]")
        self.values[model_row, task_col] = acc

    def get(self, model_row: int, task_col: int) -> float:
        if not 0 <= task_col <= model_row < self.tasks:
            raise ValueError(f"entry ({model_row}, {task_col}) is outside the lower triangle")
        return float(self.values[model_row, task_col])

    def is_complete(self) -> bool:
        lower = np.tril_indices(self.tasks)
        return bool(np.all(np.isfinite(self.values[lower])))

    def to_lists(self) -> list[list[float]]:
        return [[float(self.values[j, i]) for i in range(j + 1)] for j in range(self.tasks)]


def _require_complete(matrix: AccuracyMatrix) -> None:
    if not matrix.is_complete():
        raise ValueError("accuracy matrix is not completely filled")


def avg_accuracy(matrix: AccuracyMatrix) -> float:
    """Mean of the final row: how every task fares under the last model."""
    _require_complete(matrix)
    t = matrix.tasks
    return float(matrix.values[t - 1, :t].mean())


def forgetting(matrix: AccuracyMatrix) -> float:
    """Mean over earlier tasks of (best historic accuracy - final accuracy)."""
    _require_complete(matrix)
    t = matrix.tasks
    if t < 2:
        raise ValueError("forgetting is undefined for a single task")
    total = 0.0
    for i in range(t - 1):
        best = float(matrix.values[i : t - 1, i].max())
        total += best - float(matrix.values[t - 1, i])
    return total / (t - 1)


def new_task_accuracy(matrix: AccuracyMatrix) -> float:
    """Mean of the diagonal: each task right after its own training."""
    _require_complete(matrix)
    return float(np.diagonal(matrix.values).mean())


def summarize(matrix: AccuracyMatrix) -> dict:
    """The three metrics plus the T=1 forgetting flag, ready for a report."""
    defined = matrix.tasks >= 2
    return {
        "avg_acc": avg_accuracy(matrix),
        "forgetting": forgetting(matrix) if defined else 0.0,
        "forgetting_defined": defined,
        "new_acc": new_task_accuracy(matrix),
    }


def emit_report(records: list[dict], path) -> Path:
    """Write run records as JSON lines plus a trailing summary record, and
    a human-readable rendering next to it.  Returns the machine path."""
    path = Path(path)
    runs = [dict(r) for r in records]
    for r in runs:
        r["record"] = "run"
    summary = {"record": "summary", "runs": len(runs)}
    for key in ("avg_acc", "forgetting", "new_acc"):
        vals = [r[key] for r in runs if key in r]
        if vals:
            summary[f"mean_{key}"] = float(np.mean(vals))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for r in runs:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    text_path = path.with_suffix(".txt")
    with open(text_path, "w") as fh:
        fh.write(render_report(runs, summary))
    return path


def render_report(runs: list[dict], summary: dict) -> str:
    lines = [f"runs: {summary['runs']}"]
    for r in runs:
        bits = [str(r.get(k, "-")) for k in ("paradigm", "scenario", "seed")]
        metrics = ", ".join(
            f"{k}={r[k]:.4f}" for k in ("avg_acc", "forgetting", "new_acc") if k in r
        )
        lines.append(f"  [{'/'.join(bits)}] {metrics}")
    for key in ("mean_avg_acc", "mean_forgetting", "mean_new_acc"):
        if key in summary:
            lines.append(f"{key}: {summary[key]:.6f}")
    return "\n".join(lines) + "\n"


def load_report(path) -> tuple[list[dict], dict]:
    """Parse a report file back into (run records, summary record)."""
    runs, summary = [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if not isinstance(rec, dict) or "record" not in rec:
                raise ValueError(f"{path}:{lineno}: not a report record")
            if rec["record"] == "summary":
                summary = rec
            elif rec["record"] == "run":
                runs.append(rec)
            else:
                raise ValueError(f"{path}:{lineno}: unknown record kind {rec['record']!r}")
    if summary is None:
        raise ValueError(f"{path}: missing summary record")
    return runs, summary
