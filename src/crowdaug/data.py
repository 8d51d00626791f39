"""Crowd-annotation datasets: loading, synthesis, co-occurrence, and removal.

An annotation is a triplet (instance, annotator, label). Datasets keep the
triplets as an (M, 3) int array next to dense instance/annotator feature
matrices, an optional hidden ground truth, and a train/val/test split tag per
instance. Objects are treated as immutable after construction; every
transformation returns a new dataset.
"""
from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import ConfigError, check_finite

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = ("train", "val", "test")


class DatasetError(ValueError):
    """Invalid dataset contents: bad files, broken invariants, infeasible ops."""


@dataclass(frozen=True)
class AnnotatorModel:
    """Ground-truth behavior of one simulated annotator.

    ``confusion`` is row-stochastic: row = true class, column = emitted label.
    ``difficulty_sensitivity`` mixes in instance-difficulty-driven flips.
    """

    confusion: np.ndarray
    difficulty_sensitivity: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.confusion, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DatasetError(f"confusion matrix must be square, got {c.shape}")
        if np.any(c < 0):
            raise DatasetError("confusion matrix has negative entries")
        if not np.allclose(c.sum(axis=1), 1.0, atol=1e-9):
            raise DatasetError("confusion matrix rows must sum to 1 within 1e-9")
        if not 0.0 <= self.difficulty_sensitivity <= 1.0:
            raise DatasetError("difficulty_sensitivity must lie in [0, 1]")
        object.__setattr__(self, "confusion", c)


@dataclass(frozen=True)
class CrowdDataset:
    """Instances, annotators, sparse annotation triplets, and split tags."""

    num_classes: int
    features: np.ndarray            # (N, d) float64
    annotator_features: np.ndarray  # (R, d_a) float64
    annotations: np.ndarray         # (M, 3) int64 rows of (instance, annotator, label)
    ground_truth: np.ndarray | None = None   # (N,) int64, -1 = unknown
    splits: np.ndarray | None = None          # (N,) int8 of TRAIN/VAL/TEST
    annotator_models: tuple[AnnotatorModel, ...] | None = None
    instance_difficulty: np.ndarray | None = None  # (N,) in [0,1], synthetic only

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        afeat = np.asarray(self.annotator_features, dtype=np.float64)
        ann = np.asarray(self.annotations, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "annotator_features", afeat)
        object.__setattr__(self, "annotations", ann)
        if self.splits is None:
            object.__setattr__(self, "splits", np.zeros(len(feats), dtype=np.int8))
        else:
            object.__setattr__(self, "splits", np.asarray(self.splits, dtype=np.int8))
        if self.ground_truth is not None:
            object.__setattr__(self, "ground_truth",
                               np.asarray(self.ground_truth, dtype=np.int64))
        self.validate()

    # -- derived sizes ------------------------------------------------------

    @property
    def num_instances(self) -> int:
        return self.features.shape[0]

    @property
    def num_annotators(self) -> int:
        return self.annotator_features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def annotator_dim(self) -> int:
        return self.annotator_features.shape[1]

    @property
    def num_annotations(self) -> int:
        return self.annotations.shape[0]

    def split_indices(self, split: int) -> np.ndarray:
        return np.flatnonzero(self.splits == split)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if self.num_classes < 2:
            raise DatasetError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.features.ndim != 2:
            raise DatasetError("features must be a 2-D matrix")
        if self.annotator_features.ndim != 2:
            raise DatasetError("annotator features must be a 2-D matrix")
        if not np.all(np.isfinite(self.features)):
            raise DatasetError("features contain a non-finite value")
        if not np.all(np.isfinite(self.annotator_features)):
            raise DatasetError("annotator features contain a non-finite value")
        if self.splits.shape != (self.num_instances,):
            raise DatasetError("splits must tag every instance")
        if self.splits.size and not np.all((self.splits >= TRAIN) & (self.splits <= TEST)):
            raise DatasetError("split tags must be train/val/test")

        ann = self.annotations
        if ann.size:
            if ann[:, 0].min() < 0 or ann[:, 0].max() >= self.num_instances:
                raise DatasetError("annotation instance id out of range")
            if ann[:, 1].min() < 0 or ann[:, 1].max() >= self.num_annotators:
                raise DatasetError("annotation annotator id out of range")
            if ann[:, 2].min() < 0 or ann[:, 2].max() >= self.num_classes:
                raise DatasetError(
                    f"annotation label out of range [0, {self.num_classes})")
            # a repeated pair sits next to its twin in the sorted keys: the
            # sort np.unique would do, without its copy of the distinct keys
            pair_keys = np.sort(ann[:, 0] * self.num_annotators + ann[:, 1])
            if np.any(pair_keys[1:] == pair_keys[:-1]):
                raise DatasetError("duplicate annotation for an (instance, annotator) pair")

        annotated = np.zeros(self.num_instances, dtype=bool)
        if ann.size:
            annotated[ann[:, 0]] = True
        bare = np.flatnonzero((self.splits == TRAIN) & ~annotated)
        if bare.size:
            raise DatasetError(
                f"train instance {int(bare[0])} has no annotations")

        if self.ground_truth is not None:
            gt = self.ground_truth
            if gt.shape != (self.num_instances,):
                raise DatasetError("ground truth must cover every instance")
            # -1 marks an instance whose truth is unknown
            if gt.size and (gt.min() < -1 or gt.max() >= self.num_classes):
                raise DatasetError("ground-truth label out of range")

    def with_annotations(self, annotations: np.ndarray) -> "CrowdDataset":
        return replace(self, annotations=np.asarray(annotations, dtype=np.int64))


# ---------------------------------------------------------------------------
# synthesis


@dataclass
class SynthConfig:
    """Knobs for the synthetic crowd generator.

    ``num_instances`` counts the *train* split; validation and test splits are
    added on top at ``val_fraction``/``test_fraction`` of the combined total.
    Instance features come from per-class Gaussians; each train instance gets
    ``avg_annotations`` annotators on average, and each annotation either
    follows the annotator's confusion matrix or, with probability
    ``difficulty_sensitivity``, an instance-difficulty-driven flip toward the
    nearest competing class.
    """

    num_classes: int = 4
    num_instances: int = 500
    num_annotators: int = 20
    feature_dim: int = 2
    reliability_low: float = 0.55
    reliability_high: float = 0.85
    avg_annotations: float = 2.0
    difficulty_sensitivity: float = 0.0
    class_sep: float = 2.0
    noise_scale: float = 1.0
    val_fraction: float = 0.15
    test_fraction: float = 0.15

    def __post_init__(self) -> None:
        check_finite(self)
        c = self.num_classes
        if c < 2:
            raise ConfigError(f"num_classes must be >= 2, got {c}")
        if self.num_instances < 1 or self.num_annotators < 1 or self.feature_dim < 1:
            raise ConfigError("num_instances, num_annotators, feature_dim must be >= 1")
        if self.avg_annotations < 1.0:
            raise ConfigError(
                f"avg_annotations must be >= 1 (every instance needs an annotation), "
                f"got {self.avg_annotations}")
        lo, hi = self.reliability_low, self.reliability_high
        if not (1.0 / c < lo <= hi <= 1.0):
            raise ConfigError(
                f"reliability range [{lo}, {hi}] must sit inside (1/{c}, 1]")
        if not 0.0 <= self.difficulty_sensitivity <= 1.0:
            raise ConfigError("difficulty_sensitivity must lie in [0, 1]")
        if not (0.0 <= self.val_fraction and 0.0 <= self.test_fraction
                and self.val_fraction + self.test_fraction < 1.0):
            raise ConfigError("val_fraction + test_fraction must lie in [0, 1)")


def _instance_difficulty(features: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Difficulty in [0,1] plus each instance's nearest competing class.

    Difficulty is 1 minus the normalized gap between the distances to the two
    nearest class centroids: instances near a decision boundary score ~1.
    """
    dists = np.linalg.norm(features[:, None, :] - centroids[None, :, :], axis=2)
    order = np.argsort(dists, axis=1)
    d1 = dists[np.arange(len(features)), order[:, 0]]
    d2 = dists[np.arange(len(features)), order[:, 1]]
    difficulty = 1.0 - (d2 - d1) / np.maximum(d2 + d1, 1e-12)
    return np.clip(difficulty, 0.0, 1.0), order


def synthesize_dataset(cfg: SynthConfig, seed: int) -> CrowdDataset:
    """Draw a full synthetic crowd dataset; ground truth is retained."""
    rng = np.random.default_rng(seed)
    c, d, r = cfg.num_classes, cfg.feature_dim, cfg.num_annotators

    train_frac = 1.0 - cfg.val_fraction - cfg.test_fraction
    n_train = cfg.num_instances
    n_val = int(round(n_train * cfg.val_fraction / train_frac))
    n_test = int(round(n_train * cfg.test_fraction / train_frac))
    n_total = n_train + n_val + n_test
    splits = np.concatenate([
        np.full(n_train, TRAIN), np.full(n_val, VAL), np.full(n_test, TEST),
    ]).astype(np.int8)

    centroids = rng.normal(size=(c, d)) * cfg.class_sep
    truth = rng.integers(0, c, size=n_total)
    features = centroids[truth] + rng.normal(size=(n_total, d)) * cfg.noise_scale
    difficulty, nearest = _instance_difficulty(features, centroids)
    # nearest competing class: closest centroid that is not the true class
    competitor = np.where(nearest[:, 0] == truth, nearest[:, 1], nearest[:, 0])

    reliability = rng.uniform(cfg.reliability_low, cfg.reliability_high, size=r)
    s = cfg.difficulty_sensitivity
    models = []
    for p in reliability:
        conf = np.full((c, c), (1.0 - p) / (c - 1))
        np.fill_diagonal(conf, p)
        models.append(AnnotatorModel(confusion=conf, difficulty_sensitivity=s))

    k_base = int(np.floor(cfg.avg_annotations))
    k_frac = cfg.avg_annotations - k_base
    triplets: list[tuple[int, int, int]] = []
    for n in range(n_train):
        k = k_base + (1 if rng.random() < k_frac else 0)
        k = max(1, min(k, r))
        chosen = rng.choice(r, size=k, replace=False)
        for ann_id in np.sort(chosen):
            if rng.random() < s:
                # difficulty branch: flip toward the competing class
                if rng.random() < difficulty[n]:
                    y = competitor[n]
                else:
                    y = truth[n]
            else:
                y = rng.choice(c, p=models[ann_id].confusion[truth[n]])
            triplets.append((n, int(ann_id), int(y)))

    return CrowdDataset(
        num_classes=c,
        features=features,
        annotator_features=np.eye(r),
        annotations=np.asarray(triplets, dtype=np.int64),
        ground_truth=truth,
        splits=splits,
        annotator_models=tuple(models),
        instance_difficulty=difficulty,
    )


# ---------------------------------------------------------------------------
# aggregation / adjacency


def _label_counts(ds: CrowdDataset) -> np.ndarray:
    """(instance x class) matrix of annotation counts."""
    counts = np.zeros((ds.num_instances, ds.num_classes), dtype=np.int64)
    np.add.at(counts, (ds.annotations[:, 0], ds.annotations[:, 2]), 1)
    return counts


def majority_vote(ds: CrowdDataset) -> np.ndarray:
    """Plurality label per instance (ties -> smallest class index; -1 = none)."""
    votes = _label_counts(ds)
    labels = votes.argmax(axis=1).astype(np.int64)
    labels[votes.sum(axis=1) == 0] = -1
    return labels


def build_cooccurrence(ds: CrowdDataset) -> np.ndarray:
    """The (C, C) label propagation matrix P = D^{-1/2} (A + I) D^{-1/2}, where
    A counts unordered same-instance label pairs (same-label pairs on the
    diagonal) and D holds the row sums of A + I.

    With H the (instance x class) label counts, instance n holds
    H[n, a] * H[n, b] pairs of labels a != b and H[n, a] choose 2 of label a.
    """
    h = _label_counts(ds)
    pairs = h.T @ h
    np.fill_diagonal(pairs, (np.diag(pairs) - h.sum(axis=0)) // 2)
    counts = pairs.astype(np.float64)
    a_hat = counts + np.eye(ds.num_classes)
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


# ---------------------------------------------------------------------------
# annotation removal


def check_removal(ds: CrowdDataset, fraction: float) -> int:
    """Number of triplets ``remove_annotations`` drops for ``fraction``.

    Raises ``DatasetError`` when the fraction lies outside [0, 1) or the
    removal would leave some annotated instance without an annotation.
    """
    if not 0.0 <= fraction < 1.0:
        raise DatasetError(f"removal fraction must lie in [0, 1), got {fraction}")
    m = ds.num_annotations
    target = int(np.floor(fraction * m))
    if target == 0:
        return 0
    counts = np.bincount(ds.annotations[:, 0], minlength=ds.num_instances)
    max_removable = int(m - np.count_nonzero(counts))
    if target > max_removable:
        raise DatasetError(
            f"removal infeasible: requested {target} removals but only "
            f"{max_removable} annotations are removable while every instance "
            f"keeps one (max feasible fraction {max_removable / m:.4f})")
    return target


def remove_annotations(ds: CrowdDataset, fraction: float, seed: int) -> CrowdDataset:
    """Drop ``floor(fraction * M)`` triplets, keeping >= 1 per instance.

    Each removal draws uniformly among the currently removable triplets (those
    whose instance still holds >= 2 annotations): draw k pops the k-th of them
    from an ascending list of their indices. A pop shifts O(M) list entries;
    at 200k annotations and fraction 0.6 the whole removal takes about 2 s.
    """
    target = check_removal(ds, fraction)
    if target == 0:
        return ds
    inst = ds.annotations[:, 0]
    counts = np.bincount(inst, minlength=ds.num_instances)
    rng = np.random.default_rng(seed)
    alive = np.ones(ds.num_annotations, dtype=bool)
    removable = np.flatnonzero(counts[inst] >= 2).tolist()
    # each instance's triplets, to find its last one when it becomes unremovable
    by_instance = np.argsort(inst, kind="stable")
    starts = np.searchsorted(inst[by_instance], np.arange(ds.num_instances + 1))
    for _ in range(target):
        pick = removable.pop(int(rng.integers(len(removable))))
        alive[pick] = False
        i = inst[pick]
        counts[i] -= 1
        if counts[i] == 1:
            group = by_instance[starts[i]:starts[i + 1]]
            del removable[bisect_left(removable, group[alive[group]][0])]
    return ds.with_annotations(ds.annotations[alive])


# ---------------------------------------------------------------------------
# file I/O


def _read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise DatasetError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:  # a directory, or a file that cannot be read
        raise DatasetError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise DatasetError(f"empty file: {path}")
    return rows[0], rows[1:]


def _as_table(body: list[list[str]], width: int, dtype) -> np.ndarray | None:
    """``body`` as one (rows, width) array from a single NumPy conversion (an
    empty body gives the empty table); None when a row has another width or a
    value does not convert. numpy's str-to-int64/float64 casts give Python's
    ``int()``/``float()`` values.
    """
    try:
        table = np.array(body or np.empty((0, width)), dtype=dtype)
    except (ValueError, OverflowError):
        return None
    return table if table.shape == (len(body), width) else None


def _read_table(path: Path, header: list[str] | None, dtype, row_error,
                convert=lambda table: table):
    """``convert`` of the file's body as one table, once its header is checked
    (None means ``f0..f{d-1}``). When the conversion fails or ``convert``
    returns None, the first row for which ``row_error(i, row, width)`` gives a
    message is named in a ``DatasetError``.
    """
    got, body = _read_csv_rows(path)
    if header is None and got != [f"f{i}" for i in range(len(got))]:
        raise DatasetError(f"{path}: header must be f0..f{{d-1}}, got {got[:4]}...")
    if header is not None and got != header:
        raise DatasetError(f"{path}: bad header {got}")
    table = _as_table(body, len(got), dtype)
    out = None if table is None else convert(table)
    if out is None:
        for i, row in enumerate(body):
            if error := row_error(i, row, len(got)):
                raise DatasetError(f"{path}: {error}")
    return out


def _float_row_error(i: int, row: list[str], width: int) -> str | None:
    if len(row) != width:
        return f"ragged feature row {i} (expected {width} columns, got {len(row)})"
    if _as_table([row], width, np.float64) is None:
        return f"non-numeric value in row {i}"
    return None


def _int_row_error(i: int, row: list[str], width: int, n: int | None = None) -> str | None:
    """With ``n``, the row's first value is an instance id in [0, n)."""
    if len(row) != width:
        return f"row {i} has {len(row)} columns, expected {width}"
    try:
        inst = np.array(row, dtype=np.int64)[0]
    except OverflowError:
        return f"integer out of range in row {i}"
    except ValueError:
        return f"non-integer value in row {i}"
    return None if n is None or 0 <= inst < n else f"instance id {inst} out of range"


def _split_row_error(i: int, row: list[str], width: int, n: int) -> str | None:
    if len(row) != width:
        return f"row {i} must be instance_id,split"
    try:
        inst = int(np.array(row[:1], dtype=object).astype(np.int64)[0])
    except OverflowError:  # an integer outside int64, so out of range too
        inst = int(row[0])
    except ValueError:
        return f"non-integer id in row {i}"
    if row[1] not in SPLIT_NAMES:
        return f"unknown split {row[1]!r}"
    return None if 0 <= inst < n else f"instance id {inst} out of range"


def _last_wins(n: int, ids: np.ndarray, values: np.ndarray) -> np.ndarray | None:
    """An n-vector of -1 with ``out[ids[i]] = values[i]`` in row order (a
    repeated id keeps its last row); None when an id lies outside [0, n)."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        return None
    _, first_from_end = np.unique(ids[::-1], return_index=True)
    last = len(ids) - 1 - first_from_end
    out = np.full(n, -1, dtype=values.dtype)
    out[ids[last]] = values[last]
    return out


def _splits_of(table: np.ndarray, n: int) -> np.ndarray | None:
    """Split codes from an object table of (id, name) rows; None on an id that
    is not an integer in [0, n) or on an unknown name."""
    try:
        ids = table[:, 0].astype(np.int64)
    except (ValueError, OverflowError):
        return None
    codes = np.full(len(table), -1, dtype=np.int8)
    for code, name in enumerate(SPLIT_NAMES):
        codes[table[:, 1] == name] = code
    return None if np.any(codes < 0) else _last_wins(n, ids, codes)


def _read_matrix(path: Path) -> np.ndarray:
    matrix = _read_table(path, None, np.float64, _float_row_error)
    if not np.all(np.isfinite(matrix)):
        raise DatasetError(f"{path}: non-finite value in features")
    return matrix


def load_dataset(data_dir: str | Path) -> CrowdDataset:
    """Load a dataset directory written by ``save_dataset`` or by hand.

    Required: ``features.csv``, ``annotations.csv``. Optional:
    ``annotators.csv`` (else annotators get one-hot vectors),
    ``truth.csv``, ``splits.csv`` (else every instance is train).
    ``num_classes`` is inferred from the labels.

    Each file is read by ``csv.reader`` (its quoting, blank-line and line-end
    rules) and its body converted in one NumPy call. Only a file that fails
    that conversion or the check of its ids and split names is walked again,
    one row cast at a time, to name its first bad row. A repeated instance id
    in ``truth.csv`` or ``splits.csv`` keeps its last row.
    """
    data_dir = Path(data_dir)
    features = _read_matrix(data_dir / "features.csv")
    n = len(features)
    triplets = _read_table(data_dir / "annotations.csv", ["instance_id", "annotator_id", "label"],
                           np.int64, _int_row_error)

    annot_path = data_dir / "annotators.csv"
    if annot_path.exists():
        annotator_features = _read_matrix(annot_path)
    else:
        r = int(triplets[:, 1].max()) + 1 if triplets.size else 1
        annotator_features = np.eye(r)

    truth = None
    truth_path = data_dir / "truth.csv"
    if truth_path.exists():
        truth = _read_table(truth_path, ["instance_id", "label"], np.int64,
                            partial(_int_row_error, n=n),
                            lambda table: _last_wins(n, table[:, 0], table[:, 1]))

    splits = None
    splits_path = data_dir / "splits.csv"
    if splits_path.exists():
        splits = _read_table(splits_path, ["instance_id", "split"], object,
                             partial(_split_row_error, n=n), partial(_splits_of, n=n))
        if np.any(splits < 0):
            raise DatasetError(f"{splits_path}: split missing for some instances")

    observed = [triplets[:, 2].max()] if triplets.size else []
    if truth is not None and np.any(truth >= 0):
        observed.append(truth.max())
    if not observed:
        raise DatasetError("cannot infer num_classes from an unlabeled dataset")

    return CrowdDataset(
        num_classes=int(max(observed)) + 1,
        features=features,
        annotator_features=annotator_features,
        annotations=triplets,
        ground_truth=truth,
        splits=splits,
    )


DATASET_FILES = ("features.csv", "annotators.csv", "annotations.csv",
                 "truth.csv", "splits.csv")


def write_csv(path: str | Path, rows) -> None:
    """``rows``, the first of them the header, as ``csv.writer`` lines ending
    in "\\n"; no rows write an empty file. The one CSV writer of the dataset
    files, the training report and the grid rows (a Python float is written
    by its ``repr``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def save_dataset(ds: CrowdDataset, out_dir: str | Path) -> None:
    """Write the dataset's ``DATASET_FILES`` in canonical order (``truth.csv``
    only with ground truth)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "features.csv",
              [[f"f{i}" for i in range(ds.feature_dim)], *ds.features.tolist()])
    write_csv(out_dir / "annotators.csv",
              [[f"f{i}" for i in range(ds.annotator_dim)], *ds.annotator_features.tolist()])
    order = np.lexsort((ds.annotations[:, 1], ds.annotations[:, 0]))
    write_csv(out_dir / "annotations.csv",
              [["instance_id", "annotator_id", "label"], *ds.annotations[order].tolist()])
    if ds.ground_truth is not None:
        write_csv(out_dir / "truth.csv",
                  [["instance_id", "label"], *enumerate(ds.ground_truth.tolist())])
    write_csv(out_dir / "splits.csv",
              [["instance_id", "split"], *((i, SPLIT_NAMES[s]) for i, s in enumerate(ds.splits))])
