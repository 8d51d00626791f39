"""Metric primitives against hand-computed values and grid-row serialization."""
import csv
import json
import math
import types

import numpy as np
import pytest

import crowdaug.diffcore as dc
from crowdaug import evalsuite as ev
from helpers import decile_points, entropy_accuracy_curve, nonincreasing_fraction, spearman


class StubClassifier:
    """Fixed probability table looked up by the first feature column."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def probs(self, x, rng=None):
        idx = np.asarray(x, dtype=np.int64).reshape(len(x), -1)[:, 0]
        return dc.Tensor(self.table[idx])


def id_features(n):
    return np.arange(n, dtype=np.float64).reshape(-1, 1)


# ---------------------------------------------------------------------------
# accuracy


def test_predictions_tie_breaks_to_smallest_class():
    clf = StubClassifier([[0.5, 0.5], [0.3, 0.7]])
    assert ev.predictions(clf, id_features(2)).tolist() == [0, 1]


def test_accuracy_hand_case():
    clf = StubClassifier([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.1, 0.9]])
    acc = ev.accuracy(clf, id_features(4), [0, 1, 1, 0])
    assert acc == pytest.approx(0.5)


def test_accuracy_rejects_empty_split():
    clf = StubClassifier([[1.0, 0.0]])
    with pytest.raises(ValueError, match="empty"):
        ev.accuracy(clf, np.empty((0, 1)), [])


def test_split_accuracy_is_nan_without_truth_or_rows():
    clf = StubClassifier([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    splits = np.array([0, 0, 1])
    ds = types.SimpleNamespace(features=id_features(3),
                               ground_truth=np.array([0, 0, -1]),
                               split_indices=lambda s: np.flatnonzero(splits == s))
    assert ev.split_accuracy(clf, ds, 0) == 0.5
    assert math.isnan(ev.split_accuracy(clf, ds, 1))  # an unknown label
    assert math.isnan(ev.split_accuracy(clf, ds, 2))  # an empty split
    ds.ground_truth = None
    assert math.isnan(ev.split_accuracy(clf, ds, 0))


# ---------------------------------------------------------------------------
# entropy-confidence diagnostics


def test_entropy_accuracy_curve_hand_case():
    # confidence aligned with correctness: the curve starts at 1 and decays
    clf = StubClassifier([[0.9, 0.1], [0.8, 0.2], [0.6, 0.4], [0.55, 0.45]])
    labels = [0, 0, 1, 1]  # the two uncertain rows are wrong
    ents, cum = entropy_accuracy_curve(clf, id_features(4), labels)
    assert np.all(np.diff(ents) >= 0)
    assert cum.tolist() == pytest.approx([1.0, 1.0, 2 / 3, 0.5])
    assert cum[-1] == pytest.approx(ev.accuracy(clf, id_features(4), labels))


def test_decile_points_regular_grid():
    cum = np.arange(1, 101, dtype=np.float64)  # cum[i] = i + 1
    assert decile_points(cum).tolist() == [10, 20, 30, 40, 50,
                                           60, 70, 80, 90, 100]


def test_decile_points_short_sequence_ends_at_last():
    cum = np.array([0.5, 0.6, 0.7, 0.8, 0.9])
    pts = decile_points(cum)
    assert len(pts) == 10
    assert pts[-1] == cum[-1]
    assert set(pts.tolist()) <= set(cum.tolist())


def test_nonincreasing_fraction_hand_cases():
    assert nonincreasing_fraction([3.0, 2.0, 2.0, 1.0]) == 1.0
    assert nonincreasing_fraction([1.0, 2.0, 1.0]) == 0.5
    assert nonincreasing_fraction([1.0]) == 1.0
    # increases within tolerance count as non-increasing
    assert nonincreasing_fraction([1.0, 1.0 + 1e-13]) == 1.0


# ---------------------------------------------------------------------------
# rank statistics


def test_auc_perfect_separation():
    assert ev.auc([3.0, 5.0], [1.0, 2.0]) == 1.0
    assert ev.auc([1.0, 2.0], [3.0, 5.0]) == 0.0


def test_auc_hand_case_with_tie():
    # pairs: (1,1)->0.5, (1,0)->1, (2,1)->1, (2,0)->1 => 3.5/4
    assert ev.auc([1.0, 2.0], [1.0, 0.0]) == pytest.approx(0.875)


def test_auc_complement_symmetry():
    rng = np.random.default_rng(3)
    pos, neg = rng.normal(size=20), rng.normal(size=30)
    assert ev.auc(pos, neg) + ev.auc(neg, pos) == pytest.approx(1.0)


def test_auc_requires_both_sides():
    with pytest.raises(ValueError):
        ev.auc([], [1.0])


def test_spearman_hand_cases():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)
    assert spearman([1, 2, 3, 4], [1, 1, 1, 1]) == 0.0  # zero variance


def test_spearman_is_rank_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y))


def test_spearman_rejects_mismatched_input():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# sweep rows


def test_sweep_table_aggregates(monkeypatch):
    from crowdaug import cli
    accs = {("a", 0): 0.5, ("a", 1): 0.7, ("b", 0): 0.9, ("b", 1): 0.9}
    monkeypatch.setattr(cli, "run_grid", lambda jobs: [
        types.SimpleNamespace(test_acc=accs[(method, seed)])
        for _, _, method, seed, _ in jobs])
    rows = cli._grid_rows("fraction", [(0.3, 0.3, "a", {}), (0.3, 0.3, "b", {})],
                          ds=None, seeds=(0, 1))
    assert [(row["fraction"], row["method"]) for row in rows] == [(0.3, "a"), (0.3, "b")]
    assert rows[0]["mean_acc"] == pytest.approx(0.6)
    assert rows[0]["std_acc"] == pytest.approx(0.1)
    assert rows[1]["std_acc"] == 0.0
    assert [row["num_seeds"] for row in rows] == [2, 2]


def test_sweep_table_serializes(tmp_path):
    from crowdaug import cli
    rows = [{"fraction": 0.0, "method": "m", "mean_acc": 1.0, "std_acc": 0.0, "num_seeds": 1},
            {"fraction": 0.5, "method": "m", "mean_acc": 0.5, "std_acc": 0.0, "num_seeds": 1}]
    cli._write_rows(tmp_path, "t", rows)
    with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
        read = list(csv.DictReader(fh))
    assert len(read) == 2
    assert float(read[1]["mean_acc"]) == 0.5
    payload = json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))
    assert payload == rows
    assert payload[0]["num_seeds"] == 1
