"""Metric formulas against brute-force oracles, plus report round-trips."""

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
    return sum(m.get(t - 1, i) for i in range(t)) / t


def forgetting_oracle(m):
    t = m.tasks
    total = 0.0
    for i in range(t - 1):
        best = max(m.get(j, i) for j in range(i, t - 1))
        total += best - m.get(t - 1, i)
    return total / (t - 1)


def new_acc_oracle(m):
    return sum(m.get(i, i) for i in range(m.tasks)) / m.tasks


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
