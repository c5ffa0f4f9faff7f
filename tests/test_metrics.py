import csv
import json

import numpy as np
import pytest

from promptcl import metrics as mt


def full_matrix(a):
    a = np.asarray(a, float)
    m = mt.AccuracyMatrix(a.shape[0])
    for t in range(a.shape[0]):
        for j in range(t + 1):
            m.record(t, j, a[t, j])
    return m


def test_faa_hand_cases():
    assert mt.faa(full_matrix([[1, 0, 0], [1, 1, 0], [1, 1, 1]])) == 1.0
    m = full_matrix([[0.9, 0], [0.8, 0.6]])
    assert abs(mt.faa(m) - 0.7) < 1e-15
    single = full_matrix([[0.42]])
    assert mt.faa(single) == 0.42


def test_faa_incomplete_row_errors():
    m = mt.AccuracyMatrix(2)
    m.record(0, 0, 0.5)
    m.record(1, 0, 0.5)
    with pytest.raises(mt.MetricError):
        mt.faa(m)


def test_forgetting_hand_cases():
    m = full_matrix([[0.9, 0.0], [0.5, 0.8]])
    assert abs(mt.final_forgetting(m) - 0.4) < 1e-15
    # monotone non-decreasing columns -> no forgetting
    m = full_matrix([[0.5, 0, 0], [0.6, 0.7, 0], [0.9, 0.7, 0.8]])
    assert mt.final_forgetting(m) == 0.0
    with pytest.raises(mt.MetricError):
        mt.final_forgetting(full_matrix([[1.0]]))


def brute_force(a):
    # recompute both metrics straight from the definition
    T = len(a)
    faa = sum(a[T - 1][j] for j in range(T)) / T
    ff = None
    if T > 1:
        total = 0.0
        for j in range(T - 1):
            best = max(a[t][j] for t in range(j, T - 1))
            total += max(0.0, best - a[T - 1][j])
        ff = total / (T - 1)
    return faa, ff


def test_metrics_match_brute_force_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        T = int(rng.integers(1, 7))
        a = np.tril(rng.uniform(size=(T, T)))
        m = full_matrix(a)
        f_ref, g_ref = brute_force(a.tolist())
        assert abs(mt.faa(m) - f_ref) < 1e-12
        if T > 1:
            assert abs(mt.final_forgetting(m) - g_ref) < 1e-12


def test_record_validation():
    m = mt.AccuracyMatrix(2)
    with pytest.raises(mt.MetricError):
        m.record(0, 1, 0.5)
    with pytest.raises(mt.MetricError):
        m.record(1, 0, 1.5)


def test_retrieval_confusion_rows():
    owner = {0: 0, 1: 0, 2: 1, 3: 1}
    sels = [[0, 1, 1, 2], [2, 3, 3, 3]]
    C = mt.retrieval_confusion(owner, sels)
    np.testing.assert_allclose(C.sum(axis=1), [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(C, [[0.75, 0.25], [0.0, 1.0]])
    assert mt.retrieval_confusion({0: 0}, [[0, 0]]).tolist() == [[1.0]]
    with pytest.raises(mt.MetricError):
        mt.retrieval_confusion(owner, [[]])


def test_report_round_trip_and_summary(tmp_path):
    m1 = full_matrix([[0.9, 0.0], [0.8, 0.6]])
    m2 = full_matrix([[0.7, 0.0], [0.8, 0.8]])
    C = np.array([[1.0, 0.0], [0.25, 0.75]])
    paths = mt.report(tmp_path, {1993: m1, 1996: m2}, confusions={1993: C})
    with open(tmp_path / "accuracy_seed1993.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    back = [[float(c) if c else np.nan for c in row[1:]] for row in rows]
    np.testing.assert_array_equal(np.nan_to_num(back), np.nan_to_num(m1.a))
    with open(tmp_path / "summary.json") as f:
        summary = json.load(f)
    assert abs(summary["faa_mean"] - 0.75) < 1e-12
    assert summary["faa_std"] > 0.0
    assert "ff_mean" in summary and set(summary["seeds"]) == {1993, 1996}
    assert any(str(p).endswith("confusion_seed1993.csv") for p in paths)


def test_report_identical_seeds_zero_std(tmp_path):
    m = full_matrix([[0.5]])
    mt.report(tmp_path, {1: m, 2: full_matrix([[0.5]])})
    with open(tmp_path / "summary.json") as f:
        assert json.load(f)["faa_std"] == 0.0


def test_raw_forgetting_goes_negative_where_a_task_improves():
    # task 0 improves 0.5 -> 0.8: clamped forgetting is 0, the standard
    # (unclamped) definition reports the gain as -0.3
    m = full_matrix([[0.5, 0.0], [0.8, 0.9]])
    assert mt.final_forgetting(m) == 0.0
    assert abs(mt.raw_forgetting(m) - (-0.3)) < 1e-15
    # one task forgets 0.4, another improves 0.2: the clamp drops the gain
    m = full_matrix([[0.9, 0, 0], [0.9, 0.4, 0], [0.5, 0.6, 1.0]])
    assert abs(mt.final_forgetting(m) - 0.2) < 1e-15
    assert abs(mt.raw_forgetting(m) - 0.1) < 1e-15
    with pytest.raises(mt.MetricError):
        mt.raw_forgetting(full_matrix([[1.0]]))


def test_summary_reports_forgetting_clamped_and_raw(tmp_path):
    improves = full_matrix([[0.5, 0.0], [0.8, 0.9]])
    forgets = full_matrix([[0.9, 0.0], [0.5, 0.8]])
    mt.report(tmp_path, {1: improves, 2: forgets})
    with open(tmp_path / "summary.json") as f:
        summary = json.load(f)
    assert summary["ff_per_seed"] == {"1": 0.0, "2": mt.final_forgetting(forgets)}
    assert summary["ff_raw_per_seed"] == {"1": mt.raw_forgetting(improves),
                                          "2": mt.raw_forgetting(forgets)}
    assert summary["ff_raw_per_seed"]["1"] < 0.0
    raw = [mt.raw_forgetting(improves), mt.raw_forgetting(forgets)]
    assert summary["ff_raw_mean"] == float(np.mean(raw))
    assert summary["ff_raw_std"] == float(np.std(raw))
    assert "ff_raw_mean" not in mt.summarize({1: full_matrix([[0.5]])})
