"""Metrics: accuracy, AUC and ranks. The reports and the experiment grid are
written by ``cli``; nothing here trains, so the trainer imports it freely.
"""
from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .data import CrowdDataset


# ---------------------------------------------------------------------------
# metric primitives


@dc.no_grad()
def predictions(classifier, x: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the smallest class index."""
    probs = classifier.probs(np.asarray(x, dtype=np.float64)).data
    return probs.argmax(axis=1)


def accuracy(classifier, x: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("cannot compute accuracy on an empty split")
    return float(np.mean(predictions(classifier, x) == labels))


def split_truth(ds: CrowdDataset, split: int) -> np.ndarray | None:
    """Ground-truth labels of one split; None when it is empty or lacks ground truth."""
    idx = ds.split_indices(split)
    if ds.ground_truth is None or idx.size == 0:
        return None
    labels = ds.ground_truth[idx]
    return None if np.any(labels < 0) else labels


def split_accuracy(classifier, ds: CrowdDataset, split: int) -> float:
    """Accuracy on one split; NaN when it is empty or lacks ground truth."""
    labels = split_truth(ds, split)
    if labels is None:
        return float("nan")
    return accuracy(classifier, ds.features[ds.split_indices(split)], labels)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    # return_index makes the sort stable, so NaNs (each its own value) rank in
    # input order; a group of tied values holds ranks cumsum - count + 1 .. cumsum
    _, _, inverse, counts = np.unique(np.asarray(values, dtype=np.float64), return_index=True,
                                      return_inverse=True, return_counts=True, equal_nan=False)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def auc(positive_scores, negative_scores) -> float:
    """Rank-based AUC: P(random positive outranks random negative)."""
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auc needs both positive and negative scores")
    ranks = _ranks(np.concatenate([pos, neg]))
    rank_sum = ranks[:len(pos)].sum()
    return float((rank_sum - len(pos) * (len(pos) + 1) / 2.0) / (len(pos) * len(neg)))
