"""Metric formulas against brute-force oracles, plus report round-trips."""

import re
from pathlib import Path

import numpy as np
import pytest

from orthopet import metrics as mt


def random_matrix(rng, t):
    m = mt.AccuracyMatrix(tasks=t)
    for j in range(t):
        for i in range(j + 1):
            m.set(j, i, float(rng.uniform()))
    return m


def avg_oracle(m):
    t = m.tasks
    return sum(m.values[t - 1, i] for i in range(t)) / t


def forgetting_oracle(m):
    t = m.tasks
    total = 0.0
    for i in range(t - 1):
        best = max(m.values[j, i] for j in range(i, t - 1))
        total += best - m.values[t - 1, i]
    return total / (t - 1)


def new_acc_oracle(m):
    return sum(m.values[i, i] for i in range(m.tasks)) / m.tasks


def test_metrics_match_oracles_on_1000_random_matrices():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        t = int(rng.integers(2, 8))
        m = random_matrix(rng, t)
        assert abs(mt.avg_accuracy(m) - avg_oracle(m)) <= 1e-15
        assert abs(mt.forgetting(m) - forgetting_oracle(m)) <= 1e-15
        assert abs(mt.new_task_accuracy(m) - new_acc_oracle(m)) <= 1e-15


def test_hand_case():
    m = mt.AccuracyMatrix(tasks=2)
    m.set(0, 0, 0.9)
    m.set(1, 0, 0.8)
    m.set(1, 1, 0.7)
    assert abs(mt.avg_accuracy(m) - 0.75) <= 1e-15
    assert abs(mt.forgetting(m) - 0.1) <= 1e-15
    assert abs(mt.new_task_accuracy(m) - 0.8) <= 1e-15


def test_no_degradation_means_zero_forgetting():
    m = mt.AccuracyMatrix(tasks=2)
    m.set(0, 0, 0.9)
    m.set(1, 0, 0.9)
    m.set(1, 1, 0.6)
    assert mt.forgetting(m) == 0.0


def test_three_task_hand_case():
    m = mt.AccuracyMatrix(tasks=3)
    rows = [[0.9], [0.85, 0.8], [0.7, 0.75, 0.95]]
    for j, row in enumerate(rows):
        for i, acc in enumerate(row):
            m.set(j, i, acc)
    # best(task0)=0.9 over rows 0..1, final 0.7; best(task1)=0.8, final 0.75
    assert abs(mt.forgetting(m) - ((0.9 - 0.7) + (0.8 - 0.75)) / 2) <= 1e-15
    assert abs(mt.avg_accuracy(m) - (0.7 + 0.75 + 0.95) / 3) <= 1e-15
    assert abs(mt.new_task_accuracy(m) - (0.9 + 0.8 + 0.95) / 3) <= 1e-15


def test_single_task_edges():
    m = mt.AccuracyMatrix(tasks=1)
    m.set(0, 0, 1.0)
    assert mt.avg_accuracy(m) == 1.0
    with pytest.raises(ValueError):
        mt.forgetting(m)
    s = mt.summarize(m)
    assert s["forgetting"] == 0.0 and s["forgetting_defined"] is False


def test_matrix_validation():
    m = mt.AccuracyMatrix(tasks=3)
    with pytest.raises(ValueError):
        m.set(0, 1, 0.5)
    with pytest.raises(ValueError):
        m.set(1, 0, 1.5)
    with pytest.raises(ValueError):
        mt.avg_accuracy(m)
    assert not m.is_complete()


def test_is_complete_reads_only_the_lower_triangle():
    m = mt.AccuracyMatrix(tasks=3)
    for j in range(3):
        for i in range(j + 1):
            m.set(j, i, 0.5)
    assert m.is_complete()
    for bad in (np.nan, np.inf):
        m.values[2, 1] = bad
        assert not m.is_complete()
    m.values[2, 1] = 0.5
    m.values[0, 2] = np.nan
    m.values[1, 2] = np.inf
    assert m.is_complete()


def test_matrix_list_round_trip():
    rng = np.random.default_rng(1)
    m = random_matrix(rng, 4)
    rows = m.to_lists()
    assert [len(row) for row in rows] == [1, 2, 3, 4]
    again = mt.AccuracyMatrix(len(rows))
    for j, row in enumerate(rows):
        for i, acc in enumerate(row):
            again.set(j, i, acc)
    assert np.array_equal(
        np.nan_to_num(again.values, nan=-1.0), np.nan_to_num(m.values, nan=-1.0)
    )


def test_report_round_trip(tmp_path):
    records = [
        {"seed": 1, "paradigm": "adapter", "scenario": "cil", "avg_acc": 0.8, "forgetting": 0.05, "new_acc": 0.9},
        {"seed": 2, "paradigm": "adapter", "scenario": "cil", "avg_acc": 0.82, "forgetting": 0.03, "new_acc": 0.88},
    ]
    path = mt.emit_report(records, tmp_path / "report.jsonl")
    runs, summary = mt.load_report(path)
    assert len(runs) == 2
    assert runs[0]["avg_acc"] == 0.8 and runs[1]["seed"] == 2
    assert summary["runs"] == 2
    assert abs(summary["mean_avg_acc"] - 0.81) <= 1e-15
    assert (tmp_path / "report.txt").exists()


def test_render_report_shows_the_swept_value():
    """A run line shows paradigm/scenario/seed; an ablation row shows its
    sweep=value in the seed's place, so the rows of a sweep differ."""
    metrics = {"avg_acc": 0.5, "forgetting": 0.25, "new_acc": 1.0}
    runs = [
        {"paradigm": "prompt", "scenario": "cil", "seed": 0, "projection": True, **metrics},
        {"paradigm": "lora", "scenario": "oil", "sweep": "epsilon", "value": 0.6, **metrics},
        {"paradigm": "lora", "scenario": "oil", "sweep": "epsilon", "value": 0.0001, **metrics},
        {"paradigm": "adapter", "scenario": "oil", "sweep": "projection", "value": False, **metrics},
        {"paradigm": "adapter", "scenario": "oil", "sweep": "projection", "value": True, **metrics},
    ]
    text = mt.render_report(runs, {"runs": len(runs)})
    tail = "avg_acc=0.5000, forgetting=0.2500, new_acc=1.0000"
    assert text.splitlines() == [
        "runs: 5",
        f"  [prompt/cil/0] {tail}",
        f"  [lora/oil/epsilon=0.6] {tail}",
        f"  [lora/oil/epsilon=0.0001] {tail}",
        f"  [adapter/oil/projection=off] {tail}",
        f"  [adapter/oil/projection=on] {tail}",
    ]


def test_report_byte_identical_and_empty(tmp_path):
    records = [{"seed": 3, "avg_acc": 1 / 3, "forgetting": 0.0, "new_acc": 2 / 3}]
    a = mt.emit_report(records, tmp_path / "a.jsonl")
    b = mt.emit_report(records, tmp_path / "b.jsonl")
    assert a.read_bytes() == b.read_bytes()

    empty = mt.emit_report([], tmp_path / "empty.jsonl")
    runs, summary = mt.load_report(empty)
    assert runs == [] and summary["runs"] == 0


def test_load_report_rejects_garbage(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"no_record_key": 1}\n')
    with pytest.raises(ValueError):
        mt.load_report(p)
    p.write_text('{"record": "run"}\n')
    with pytest.raises(ValueError, match="missing summary"):
        mt.load_report(p)


def test_a_failed_report_write_keeps_the_previous_files(tmp_path, monkeypatch):
    """A write that fails after its temporary file is written, or a record
    that will not serialize, leaves report.jsonl and report.txt with their
    previous bytes and no temporary file."""
    records = [{"seed": 0, "avg_acc": 0.5, "forgetting": 0.25, "new_acc": 1.0}]
    path = mt.emit_report(records, tmp_path / "report.jsonl")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["report.jsonl", "report.txt"]
    written = []

    def fail(src, dst):
        written.append(Path(src).read_text())
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(mt.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            mt.emit_report([{**records[0], "seed": 1}], path)
    assert len(written) == 1 and '"seed": 1' in written[0]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    with pytest.raises(TypeError, match="not JSON serializable"):
        mt.emit_report([{**records[0], "seed": 1}, {"seed": object()}], path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_truncated_report_is_refused_by_file_and_line(tmp_path):
    records = [{"seed": s, "avg_acc": 0.5, "forgetting": 0.25, "new_acc": 1.0} for s in (0, 1)]
    path = mt.emit_report(records, tmp_path / "report.jsonl")
    text = path.read_text()
    path.write_text(text[:-9])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: not JSON"):
        mt.load_report(path)
    path.write_text(text.replace('"seed": 1', '"seed": 1,,', 1))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: not JSON"):
        mt.load_report(path)
