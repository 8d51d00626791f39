"""Dataset loading, synthesis, co-occurrence, vote, and removal tests."""
import csv
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdaug.config import ConfigError
from crowdaug.data import (
    SPLIT_NAMES,
    TRAIN,
    VAL,
    TEST,
    CrowdDataset,
    DatasetError,
    SynthConfig,
    build_cooccurrence,
    load_dataset,
    majority_vote,
    remove_annotations,
    save_dataset,
    synthesize_dataset,
)


def write_dir(tmp_path, features, annotations, truth=None, splits=None, annotators=None):
    d = len(features[0])
    lines = [",".join(f"f{i}" for i in range(d))]
    lines += [",".join(str(v) for v in row) for row in features]
    (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
    lines = ["instance_id,annotator_id,label"]
    lines += [",".join(str(v) for v in row) for row in annotations]
    (tmp_path / "annotations.csv").write_text("\n".join(lines) + "\n")
    if truth is not None:
        lines = ["instance_id,label"] + [f"{i},{v}" for i, v in enumerate(truth)]
        (tmp_path / "truth.csv").write_text("\n".join(lines) + "\n")
    if splits is not None:
        lines = ["instance_id,split"] + [f"{i},{s}" for i, s in enumerate(splits)]
        (tmp_path / "splits.csv").write_text("\n".join(lines) + "\n")
    if annotators is not None:
        da = len(annotators[0])
        lines = [",".join(f"f{i}" for i in range(da))]
        lines += [",".join(str(v) for v in row) for row in annotators]
        (tmp_path / "annotators.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


BASIC_FEATURES = [[0.5, 1.0], [1.5, -1.0], [2.5, 0.25]]
BASIC_ANNOTATIONS = [[0, 0, 1], [0, 1, 0], [1, 0, 1], [2, 1, 0]]


def test_load_small_handwritten_dataset(tmp_path):
    ds = load_dataset(write_dir(tmp_path, BASIC_FEATURES, BASIC_ANNOTATIONS))
    assert ds.num_instances == 3
    assert ds.num_annotators == 2
    assert ds.num_annotations == 4
    assert ds.num_classes == 2
    np.testing.assert_array_equal(ds.annotator_features, np.eye(2))


def test_load_label_out_of_range(tmp_path):
    write_dir(tmp_path, BASIC_FEATURES, BASIC_ANNOTATIONS, truth=[0, 1, 0])
    ds = load_dataset(tmp_path)
    assert ds.num_classes == 2
    bad = BASIC_ANNOTATIONS + [[1, 1, -1]]
    write_dir(tmp_path, BASIC_FEATURES, bad)
    with pytest.raises(DatasetError, match="label out of range"):
        load_dataset(tmp_path)
    # -1 marks an unknown truth; anything below it is a bad label
    write_dir(tmp_path, BASIC_FEATURES, BASIC_ANNOTATIONS, truth=[0, -5, 1])
    with pytest.raises(DatasetError, match="ground-truth label out of range"):
        load_dataset(tmp_path)


def test_load_duplicate_pair(tmp_path):
    bad = BASIC_ANNOTATIONS + [[0, 0, 0]]
    write_dir(tmp_path, BASIC_FEATURES, bad)
    with pytest.raises(DatasetError, match="duplicate annotation"):
        load_dataset(tmp_path)


def test_load_unannotated_train_instance(tmp_path):
    write_dir(tmp_path, BASIC_FEATURES, [[0, 0, 1], [1, 0, 1]])
    with pytest.raises(DatasetError, match="has no annotations"):
        load_dataset(tmp_path)
    # same instance tagged test is fine
    write_dir(tmp_path, BASIC_FEATURES, [[0, 0, 1], [1, 0, 1]],
              splits=["train", "train", "test"])
    ds = load_dataset(tmp_path)
    assert list(ds.splits) == [TRAIN, TRAIN, TEST]


def test_load_ragged_feature_row(tmp_path):
    write_dir(tmp_path, BASIC_FEATURES, BASIC_ANNOTATIONS)
    (tmp_path / "features.csv").write_text("f0,f1\n1.0,2.0\n3.0\n")
    with pytest.raises(DatasetError, match="ragged"):
        load_dataset(tmp_path)


def test_load_rejects_nonfinite(tmp_path):
    write_dir(tmp_path, [[0.5, float("nan")], [1.0, 2.0]], [[0, 0, 0], [1, 0, 1]])
    with pytest.raises(DatasetError, match="non-finite"):
        load_dataset(tmp_path)
    write_dir(tmp_path, [[0.5, float("inf")], [1.0, 2.0]], [[0, 0, 0], [1, 0, 1]])
    with pytest.raises(DatasetError, match="non-finite"):
        load_dataset(tmp_path)


def test_save_load_round_trip_byte_identical(tmp_path):
    ds = synthesize_dataset(SynthConfig(num_classes=3, num_instances=40,
                                        num_annotators=6, feature_dim=3,
                                        reliability_low=0.6, reliability_high=0.9,
                                        avg_annotations=2.5), seed=11)
    dir1 = tmp_path / "a"
    dir2 = tmp_path / "b"
    save_dataset(ds, dir1)
    loaded = load_dataset(dir1)
    save_dataset(loaded, dir2)
    for name in ("features.csv", "annotations.csv", "annotators.csv",
                 "truth.csv", "splits.csv"):
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes(), name
    np.testing.assert_array_equal(loaded.features, ds.features)

    def canon(a):
        return a[np.lexsort((a[:, 1], a[:, 0]))]

    np.testing.assert_array_equal(canon(loaded.annotations), canon(ds.annotations))
    np.testing.assert_array_equal(loaded.ground_truth, ds.ground_truth)
    np.testing.assert_array_equal(loaded.splits, ds.splits)


def test_save_dataset_writes_each_float_by_its_repr(tmp_path):
    # a subnormal, 1e17, -0.0, the largest float and inexact decimals are
    # written as Python's repr and load back bit for bit
    features = np.array([[5e-324, 1e17, -0.0], [sys.float_info.max, 0.1, -1.0 / 3.0]])
    ds = CrowdDataset(num_classes=2, features=features,
                      annotator_features=np.array([[2.5e-308], [-7e22]]),
                      annotations=[[0, 0, 1], [1, 1, 0]], ground_truth=[1, 0])
    save_dataset(ds, tmp_path)
    lines = (tmp_path / "features.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["f0,f1,f2", *(",".join(map(repr, row)) for row in features.tolist())]
    loaded = load_dataset(tmp_path)
    assert loaded.features.tobytes() == features.tobytes()
    assert loaded.annotator_features.tobytes() == ds.annotator_features.tobytes()


def load_by_rows(data_dir):
    """(features, annotator features, triplets, truth, splits) parsed row by
    row with Python's ``float()``/``int()``, a repeated truth or split id taking
    its last row: the reference for ``load_dataset``'s one-call conversion."""
    def body(name):
        with open(data_dir / name, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if row][1:]

    features = np.array([[float(v) for v in row] for row in body("features.csv")])
    annotators = np.array([[float(v) for v in row] for row in body("annotators.csv")])
    triplets = np.array([[int(v) for v in row] for row in body("annotations.csv")],
                        dtype=np.int64)
    truth = np.full(len(features), -1, dtype=np.int64)
    for inst, label in body("truth.csv"):
        truth[int(inst)] = int(label)
    splits = np.full(len(features), -1, dtype=np.int8)
    for inst, name in body("splits.csv"):
        splits[int(inst)] = SPLIT_NAMES.index(name)
    return features, annotators, triplets, truth, splits


def assert_loads_as_rows(data_dir):
    ds = load_dataset(data_dir)
    got = (ds.features, ds.annotator_features, ds.annotations, ds.ground_truth, ds.splits)
    for name, a, b in zip(("features", "annotators", "annotations", "truth", "splits"),
                          got, load_by_rows(data_dir)):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def rewrite_quoted_crlf(src, dst):
    """Every file of ``src`` with each field quoted, CRLF line ends and a blank
    line after every third row."""
    dst.mkdir()
    for path in src.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        lines = [",".join(f'"{v}"' for v in row) + ("\r\n" if i % 3 == 2 else "")
                 for i, row in enumerate(rows)]
        (dst / path.name).write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    return dst


def test_load_equals_row_parse_on_saved_and_reformatted_files(tmp_path):
    ds = synthesize_dataset(SynthConfig(num_classes=3, num_instances=300,
                                        num_annotators=7, feature_dim=3,
                                        reliability_low=0.6, reliability_high=0.9,
                                        avg_annotations=2.5), seed=4)
    saved = tmp_path / "saved"
    save_dataset(ds, saved)
    assert_loads_as_rows(saved)
    reformatted = rewrite_quoted_crlf(saved, tmp_path / "quoted")
    assert b'"\r\n\r\n"' in (reformatted / "features.csv").read_bytes()
    assert_loads_as_rows(reformatted)
    loaded = load_dataset(reformatted)
    for field in ("features", "annotator_features", "annotations", "ground_truth", "splits"):
        assert getattr(loaded, field).tobytes() == getattr(ds, field).tobytes(), field


def test_load_equals_row_parse_on_unusual_values(tmp_path):
    # whitespace, digit separators, signs, non-ASCII digits, -0.0, a subnormal;
    # instance 0's truth and split rows repeat, and the last row wins
    (tmp_path / "features.csv").write_text(
        "f0,f1\n 1.5 ,1_0\n-0.0,1e-320\n\u0663.5,+2\n", encoding="utf-8")
    (tmp_path / "annotators.csv").write_text("f0\n0.25\n\t1\n", encoding="utf-8")
    (tmp_path / "annotations.csv").write_text(
        "instance_id,annotator_id,label\n 0,0,1\n0,+1,0\n1,0,\u0661\n2, 1 ,0\n",
        encoding="utf-8")
    (tmp_path / "truth.csv").write_text(
        "instance_id,label\n0,1\n1,0\n2,1\n0,0\n", encoding="utf-8")
    (tmp_path / "splits.csv").write_text(
        "instance_id,split\n0,test\n1,train\n2,val\n0,train\n", encoding="utf-8")
    assert_loads_as_rows(tmp_path)
    ds = load_dataset(tmp_path)
    assert ds.ground_truth[0] == 0 and ds.splits[0] == TRAIN
    assert ds.features[0, 1] == 10.0 and str(ds.features[1, 0]) == "-0.0"


BAD_FILES = [  # (file, body after the header, message after "<path>: ")
    ("features.csv", "1.0,2.0\n3.0\n",
     "ragged feature row 1 (expected 2 columns, got 1)"),
    ("features.csv", "1,2,3\n4,5,6\n", "ragged feature row 0 (expected 2 columns, got 3)"),
    ("features.csv", "1.0,x\n3.0\n", "non-numeric value in row 0"),
    ("features.csv", "1.0,2.0\n0x1p3,1\n", "non-numeric value in row 1"),
    ("features.csv", "1.0,nan\n1,2\n3,4\n", "non-finite value in features"),
    ("annotations.csv", "0,0\n", "row 0 has 2 columns, expected 3"),
    ("annotations.csv", "0,0,1\n0,1,1.0\n1,0\n", "non-integer value in row 1"),
    ("annotations.csv", "0,0,99999999999999999999999x\n", "non-integer value in row 0"),
    ("annotations.csv", "0,0,1\n0,1,99999999999999999999\n", "integer out of range in row 1"),
    ("truth.csv", "0,1\n9,0\n", "instance id 9 out of range"),
    ("truth.csv", "-1,0\n0,x\n", "instance id -1 out of range"),
    ("truth.csv", "0,1\n1,x\n5,0\n", "non-integer value in row 1"),
    ("truth.csv", "0\n", "row 0 has 1 columns, expected 2"),
    ("truth.csv", "0,1\n1,-99999999999999999999\n", "integer out of range in row 1"),
    ("splits.csv", "0,train,x\n", "row 0 must be instance_id,split"),
    ("splits.csv", "0,train\na,train\n", "non-integer id in row 1"),
    ("splits.csv", "5,dev\n1,train\n", "unknown split 'dev'"),
    ("splits.csv", "0,dev\nb,train\n", "unknown split 'dev'"),
    ("splits.csv", "0,train\n7,train\n", "instance id 7 out of range"),
    ("splits.csv", "0,train\n1,train\n", "split missing for some instances"),
]
HEADERS = {"features.csv": "f0,f1", "annotations.csv": "instance_id,annotator_id,label",
           "truth.csv": "instance_id,label", "splits.csv": "instance_id,split"}


@pytest.mark.parametrize("name, body, message", BAD_FILES)
def test_load_names_the_bad_row(tmp_path, name, body, message):
    write_dir(tmp_path, BASIC_FEATURES, BASIC_ANNOTATIONS, truth=[0, 1, 0],
              splits=["train", "train", "test"])
    (tmp_path / name).write_text(f"{HEADERS[name]}\n{body}", encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        load_dataset(tmp_path)
    assert str(info.value) == f"{tmp_path / name}: {message}"


@pytest.mark.parametrize("name, body, message", [
    # an id outside int64 is still an integer: out of range, after the name check
    ("splits.csv", "0,train\n99999999999999999999,train\n",
     "instance id 99999999999999999999 out of range"),
    # a row is cast in one NumPy call, which reports the first bad value it meets
    ("annotations.csv", "0,0,1\n99999999999999999999,x,1\n", "integer out of range in row 1"),
])
def test_load_names_the_bad_value_of_a_row(tmp_path, name, body, message):
    test_load_names_the_bad_row(tmp_path, name, body, message)


@pytest.mark.parametrize("name, files, message", [
    ("truth.csv", {"truth": [0, 1, 0]}, None),
    ("splits.csv", {"splits": ["train"] * 3}, "{path}: split missing for some instances"),
    ("annotators.csv", {"annotators": [[1.0], [0.5]]}, "annotation annotator id out of range"),
    ("annotations.csv", {"truth": [0, 1, 0], "splits": ["test"] * 3}, None),
    ("features.csv", {}, "annotation instance id out of range"),
])
def test_load_header_only_file(tmp_path, name, files, message):
    # a header with no rows is an empty table, checked like any other
    write_dir(tmp_path, BASIC_FEATURES, BASIC_ANNOTATIONS, **files)
    path = tmp_path / name
    path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    if message is not None:
        with pytest.raises(DatasetError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == message.format(path=path)
        return
    ds = load_dataset(tmp_path)
    assert ds.num_classes == 2 and ds.annotations.dtype == np.int64
    if name == "truth.csv":
        np.testing.assert_array_equal(ds.ground_truth, [-1, -1, -1])
        np.testing.assert_array_equal(ds.annotations, BASIC_ANNOTATIONS)
    else:
        assert ds.annotations.shape == (0, 3)
        np.testing.assert_array_equal(ds.ground_truth, [0, 1, 0])


# ---------------------------------------------------------------------------
# synthesis


def test_synth_identity_confusion_majority_vote_perfect():
    cfg = SynthConfig(num_classes=3, num_instances=60, num_annotators=5,
                      reliability_low=1.0, reliability_high=1.0,
                      difficulty_sensitivity=0.0, avg_annotations=2.0)
    ds = synthesize_dataset(cfg, seed=0)
    mv = majority_vote(ds)
    train = ds.split_indices(TRAIN)
    assert np.array_equal(mv[train], ds.ground_truth[train])


def test_synth_annotation_accuracy_tracks_reliability():
    # |C|=4, N=500, R=20, reliability U[0.55, 0.85]: empirical accuracy of the
    # generated annotations should land inside the configured range
    accs = []
    for seed in range(5):
        cfg = SynthConfig(num_classes=4, num_instances=500, num_annotators=20,
                          reliability_low=0.55, reliability_high=0.85,
                          avg_annotations=2.0)
        ds = synthesize_dataset(cfg, seed=seed)
        acc = float(np.mean(ds.annotations[:, 2]
                            == ds.ground_truth[ds.annotations[:, 0]]))
        accs.append(acc)
    mean = float(np.mean(accs))
    assert 0.55 - 0.03 <= mean <= 0.85 + 0.03


def test_synth_music_shaped_counts():
    cfg = SynthConfig(num_classes=10, num_instances=700, num_annotators=44,
                      reliability_low=0.5, reliability_high=0.9,
                      avg_annotations=4.2)
    ds = synthesize_dataset(cfg, seed=3)
    assert ds.num_annotators == 44
    train = ds.split_indices(TRAIN)
    assert len(train) == 700
    avg = ds.num_annotations / len(train)
    assert abs(avg - 4.2) < 0.15


def test_synth_splits_sized_by_fractions():
    ds = synthesize_dataset(SynthConfig(num_instances=70, num_annotators=4,
                                        reliability_low=0.6, reliability_high=0.9),
                            seed=1)
    assert len(ds.split_indices(TRAIN)) == 70
    assert len(ds.split_indices(VAL)) == 15
    assert len(ds.split_indices(TEST)) == 15
    # annotations only on the train split
    assert set(ds.annotations[:, 0]).issubset(set(ds.split_indices(TRAIN)))


def test_synth_per_annotator_accuracy_binomial(seed=7):
    # with difficulty_sensitivity 0 each annotator's empirical accuracy must sit
    # within 3 binomial sigmas of its configured reliability
    cfg = SynthConfig(num_classes=4, num_instances=3000, num_annotators=5,
                      reliability_low=0.6, reliability_high=0.9,
                      avg_annotations=3.0, difficulty_sensitivity=0.0)
    ds = synthesize_dataset(cfg, seed=seed)
    correct = ds.annotations[:, 2] == ds.ground_truth[ds.annotations[:, 0]]
    for r, model in enumerate(ds.annotator_models):
        mask = ds.annotations[:, 1] == r
        count = int(mask.sum())
        p = float(model.confusion[0, 0])
        sigma = np.sqrt(p * (1 - p) / count)
        assert abs(correct[mask].mean() - p) <= 3 * sigma


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(avg_annotations=0.5)
    with pytest.raises(ConfigError):
        SynthConfig(num_classes=4, reliability_low=0.2, reliability_high=0.9)
    with pytest.raises(ConfigError):
        SynthConfig(reliability_low=0.6, reliability_high=1.2)
    for name in ("avg_annotations", "class_sep", "noise_scale"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                SynthConfig(**{name: value})
    SynthConfig()


def test_synth_deterministic():
    cfg = SynthConfig(num_instances=50, num_annotators=6,
                      reliability_low=0.6, reliability_high=0.9)
    a = synthesize_dataset(cfg, seed=5)
    b = synthesize_dataset(cfg, seed=5)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.annotations, b.annotations)
    c = synthesize_dataset(cfg, seed=6)
    assert not np.array_equal(a.features, c.features)


# ---------------------------------------------------------------------------
# majority vote


def test_majority_vote_plurality_and_tiebreak():
    ds = CrowdDataset(
        num_classes=3,
        features=np.zeros((2, 1)),
        annotator_features=np.eye(3),
        annotations=np.array([[0, 0, 1], [0, 1, 1], [0, 2, 2],
                              [1, 0, 0], [1, 1, 1]]),
    )
    mv = majority_vote(ds)
    assert mv[0] == 1  # plurality
    assert mv[1] == 0  # tie -> smallest class index


# ---------------------------------------------------------------------------
# co-occurrence


def _tiny_ds(annotations, num_classes=4, n=3, r=3):
    splits = np.full(n, TEST, dtype=np.int8)
    ann = np.asarray(annotations, dtype=np.int64).reshape(-1, 3)
    if ann.size:
        splits[np.unique(ann[:, 0])] = TRAIN
    return CrowdDataset(num_classes=num_classes, features=np.zeros((n, 2)),
                        annotator_features=np.eye(r), annotations=ann,
                        splits=splits)


def _propagation(counts):
    """P = D^{-1/2} (A + I) D^{-1/2} of the pair counts A, D the row sums of A + I."""
    a_hat = np.asarray(counts, dtype=np.float64) + np.eye(len(counts))
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def test_cooccurrence_single_pair():
    ds = _tiny_ds([[0, 0, 2], [0, 1, 3]])
    expected = np.zeros((4, 4))
    expected[2, 3] = expected[3, 2] = 1
    np.testing.assert_allclose(build_cooccurrence(ds), _propagation(expected),
                               rtol=1e-15, atol=0)


def test_cooccurrence_no_pairs_gives_identity_propagation():
    ds = _tiny_ds([[0, 0, 1], [1, 0, 2], [2, 1, 3]])
    np.testing.assert_allclose(build_cooccurrence(ds), np.eye(4), atol=1e-15)


def test_cooccurrence_triple_with_repeat():
    # labels (1,1,2) on one instance: pairs (1,1),(1,2),(1,2)
    ds = _tiny_ds([[0, 0, 1], [0, 1, 1], [0, 2, 2]])
    counts = np.zeros((4, 4))
    counts[1, 1] = 1
    counts[1, 2] = counts[2, 1] = 2
    prop = build_cooccurrence(ds)
    np.testing.assert_allclose(prop, _propagation(counts), rtol=1e-15, atol=0)
    # by hand: row sums of A + I are 1, 4, 3, 1
    assert prop[1, 1] == pytest.approx(2 / 4)
    assert prop[1, 2] == pytest.approx(2 / np.sqrt(12))
    assert prop[0, 0] == prop[3, 3] == 1.0


def test_cooccurrence_normalization_rows():
    ds = _tiny_ds([[0, 0, 1], [0, 1, 1], [0, 2, 2], [1, 0, 0], [1, 1, 3]])
    counts = np.zeros((4, 4))
    counts[1, 1] = 1
    counts[1, 2] = counts[2, 1] = 2
    counts[0, 3] = counts[3, 0] = 1
    prop = build_cooccurrence(ds)
    np.testing.assert_allclose(prop, _propagation(counts), rtol=1e-15, atol=0)
    np.testing.assert_allclose(prop, prop.T, atol=1e-15)
    # D^{1/2} P D^{1/2} gives back A + I, whose rows sum to D
    deg = (counts + np.eye(4)).sum(axis=1)
    a_hat = np.sqrt(deg)[:, None] * prop * np.sqrt(deg)[None, :]
    np.testing.assert_allclose(a_hat.sum(axis=1), deg, rtol=1e-14)


def test_cooccurrence_equals_pair_loop():
    # reference: enumerate every unordered same-instance pair of annotations
    for seed in range(5):
        ds = synthesize_dataset(SynthConfig(num_classes=4, num_instances=120,
                                            num_annotators=10, avg_annotations=3.0),
                                seed=seed)
        expected = np.zeros((4, 4))
        for n in range(ds.num_instances):
            labels = ds.annotations[ds.annotations[:, 0] == n, 2]
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    a, b = labels[i], labels[j]
                    expected[a, b] += 1.0
                    if a != b:
                        expected[b, a] += 1.0
        np.testing.assert_allclose(build_cooccurrence(ds), _propagation(expected),
                                   rtol=1e-15, atol=0)


def test_cooccurrence_order_invariant():
    rows = [[0, 0, 1], [0, 1, 2], [1, 0, 3], [1, 1, 3], [1, 2, 0]]
    a = build_cooccurrence(_tiny_ds(rows))
    b = build_cooccurrence(_tiny_ds(rows[::-1]))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# removal


def base_removal_ds():
    cfg = SynthConfig(num_classes=3, num_instances=80, num_annotators=8,
                      reliability_low=0.6, reliability_high=0.9,
                      avg_annotations=3.0)
    return synthesize_dataset(cfg, seed=13)


def test_remove_zero_fraction_no_change():
    ds = base_removal_ds()
    out = remove_annotations(ds, 0.0, seed=0)
    np.testing.assert_array_equal(out.annotations, ds.annotations)


def test_remove_exact_count_and_floor():
    ds = base_removal_ds()
    m = ds.num_annotations
    out = remove_annotations(ds, 0.35, seed=2)
    assert out.num_annotations == m - int(np.floor(0.35 * m))


def test_remove_keeps_one_per_instance():
    ds = base_removal_ds()
    out = remove_annotations(ds, 0.6, seed=4)
    counts = np.bincount(out.annotations[:, 0], minlength=ds.num_instances)
    train = ds.split_indices(TRAIN)
    assert counts[train].min() >= 1


def test_remove_deterministic_per_seed():
    ds = base_removal_ds()
    a = remove_annotations(ds, 0.4, seed=9)
    b = remove_annotations(ds, 0.4, seed=9)
    np.testing.assert_array_equal(a.annotations, b.annotations)
    c = remove_annotations(ds, 0.4, seed=10)
    assert not np.array_equal(a.annotations, c.annotations)


def test_remove_infeasible_reports_max_fraction():
    # every instance has exactly one annotation: nothing is removable
    rows = [[i, 0, 1] for i in range(10)]
    ds = _tiny_ds(rows, n=10)
    with pytest.raises(DatasetError, match="max feasible fraction 0.0000"):
        remove_annotations(ds, 0.1, seed=0)


def _remove_by_rescan(ds, fraction, seed):
    """The quadratic loop ``remove_annotations`` replaced: rescan every triplet
    for the removable ones before each draw."""
    target = int(np.floor(fraction * ds.num_annotations))
    counts = np.bincount(ds.annotations[:, 0], minlength=ds.num_instances)
    rng = np.random.default_rng(seed)
    alive = np.ones(ds.num_annotations, dtype=bool)
    inst = ds.annotations[:, 0]
    for _ in range(target):
        removable = np.flatnonzero(alive & (counts[inst] >= 2))
        pick = removable[rng.integers(len(removable))]
        alive[pick] = False
        counts[inst[pick]] -= 1
    return ds.annotations[alive]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fraction", [0.01, 0.2, 0.5, 0.62])
def test_remove_equals_rescan_reference(seed, fraction):
    ds = synthesize_dataset(SynthConfig(num_classes=3, num_instances=150 + 37 * seed,
                                        num_annotators=9, avg_annotations=3.0),
                            seed=seed)
    got = remove_annotations(ds, fraction, seed=seed + 100).annotations
    assert got.tobytes() == _remove_by_rescan(ds, fraction, seed + 100).tobytes()


@settings(max_examples=30, deadline=None)
@given(fraction=st.floats(0.0, 0.55), seed=st.integers(0, 10_000))
def test_remove_property_counts_and_validity(fraction, seed):
    ds = base_removal_ds()
    out = remove_annotations(ds, fraction, seed=seed)
    assert out.num_annotations == ds.num_annotations - int(np.floor(fraction * ds.num_annotations))
    out.validate()


def test_annotation_counts_per_annotator():
    ds = _tiny_ds([[0, 0, 1], [0, 1, 2], [1, 0, 3]])
    counts = np.bincount(ds.annotations[:, 1], minlength=ds.num_annotators)
    np.testing.assert_array_equal(counts, [2, 1, 0])
