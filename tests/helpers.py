"""Helpers shared by the test modules (not collected as tests)."""
import csv

import numpy as np

from crowdaug import diffcore as dc


def randomize(store, rng, scale):
    """Overwrite every parameter of ``store``, in store order, with N(0, scale^2) draws."""
    for _, tensor in store.items():
        tensor.data = rng.normal(scale=scale, size=tensor.data.shape)


def three_op_dense(x, w, b, relu=False):
    """The ``matmul``/``add``/``relu`` chain that ``diffcore.dense`` fuses.

    Patched in for ``diffcore.dense``, it rebuilds the nets as three graph
    nodes per layer: the reference for the fused op's byte-identity.
    """
    out = dc.add(dc.matmul(x, w), b)
    return dc.relu(out) if relu else out


def store_grads(*stores):
    """Every parameter's (name, value bytes, gradient bytes or None), in store order."""
    return [(name, t.data.tobytes(), None if t.grad is None else t.grad.tobytes())
            for store in stores for name, t in store.items()]


def read_augmented_file(path):
    """Read an export back as (triplets, authentic flags)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["instance_id", "annotator_id", "label", "authentic"]:
            raise ValueError(f"{path}: not an augmented annotation file")
        body = [[int(v) for v in row] for row in reader if row]
    arr = np.asarray(body, dtype=np.int64).reshape(-1, 4)
    return arr[:, :3], arr[:, 3].astype(bool)
