"""Helpers shared by the test modules (not collected as tests)."""
import csv
from typing import Callable, Iterable

import numpy as np

from crowdaug import diffcore as dc
from crowdaug import trainer as tr
from crowdaug.diffcore import ParamStore, Tensor, backward
from crowdaug.evalsuite import _ranks
from crowdaug.nets import NETS, NetworkBundle
from crowdaug.objectives import CLAMP_HI, CLAMP_LO, _clamp_count


def build_bundle(dims, adjacency, rng):
    """Fresh networks of all four kinds drawn from ``rng``, in ``NETS`` order."""
    return NetworkBundle(dims, *(net(dims, rng) for net in NETS.values()), adjacency)


def randomize(store, rng, scale):
    """Overwrite every parameter of ``store``, in store order, with N(0, scale^2) draws."""
    for _, tensor in store.items():
        tensor.data = rng.normal(scale=scale, size=tensor.data.shape)


def chain_mlp(parts, layers, dropout=None):
    """The op chain that ``diffcore.mlp`` is one node of: ``concat``, then
    ``matmul``, ``add``, ``relu`` and (given ``(rate, rng)``) ``dropout`` per
    hidden layer, and ``matmul`` and ``add`` for the last.

    Patched in for ``diffcore.mlp``, it rebuilds every net as three or four
    graph nodes per layer: the reference for the node's byte-identity.
    """
    h = dc.concat(parts)
    for k, (w, b) in enumerate(layers):
        h = dc.add(dc.matmul(h, w), b)
        if k < len(layers) - 1:
            h = dc.relu(h)
            if dropout is not None:
                h = dc.dropout(h, *dropout)
    return h


def chain_nll(log_probs, labels):
    """The op chain that ``diffcore.nll`` is one node of."""
    return dc.neg(dc.t_mean(dc.pick(log_probs, labels)))


def chain_discriminator_loss(authentic_scores, generated_scores, l2_coeff=1e-4):
    """``objectives.discriminator_loss`` as an op chain over two score
    tensors, whose backward is ``discriminator_score_grad``'s reference;
    returns (loss tensor, clamp count)."""
    auth = dc.clamp(authentic_scores, CLAMP_LO, CLAMP_HI)
    gen = dc.clamp(generated_scores, CLAMP_LO, CLAMP_HI)
    loss = dc.neg(dc.add(dc.t_mean(dc.t_log(auth)),
                         dc.t_mean(dc.t_log(dc.add(dc.neg(gen), Tensor(1.0))))))
    if l2_coeff > 0.0:
        both = dc.concat([auth, gen])
        loss = dc.add(loss, dc.mul(dc.t_mean(dc.mul(both, both)), Tensor(l2_coeff)))
    return loss, _clamp_count(authentic_scores.data) + _clamp_count(generated_scores.data)


def single_graph_disc_aux_step(opt, disc, aux, adj, ds, auth, gen, codes, what, epoch):
    """``trainer._disc_aux_step`` as one graph over every row of both sides
    of the index columns ``auth`` and ``gen``, with D's loss as its op chain:
    the reference for its row blocks and its seeded gradients."""
    mats = disc.decoded_matrices(adj)

    def encoding_of(cols):
        inst, annot, labels = cols
        return (*disc.encode(ds.features[inst], ds.annotator_features[annot]), mats, labels)

    auth_enc, gen_enc = encoding_of(auth), encoding_of(gen)
    d_loss, clamped = chain_discriminator_loss(disc.score(*auth_enc), disc.score(*gen_enc),
                                               tr.DISC_L2)
    loss = dc.add(d_loss, dc.nll(aux.log_posterior(*gen_enc), codes))
    opt.step(backward(loss))
    return loss.item(), clamped


class PerParameterAdam:
    """``diffcore.Adam`` as one moment pair per parameter, updated parameter by
    parameter: the reference for the flat moments' byte-identity."""

    def __init__(self, store, lr):
        self.store, self.lr, self.step_count = store, lr, 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}

    def step(self, grads):
        self.step_count += 1
        bc1 = 1.0 - dc.ADAM_BETA1**self.step_count
        bc2 = 1.0 - dc.ADAM_BETA2**self.step_count
        for name, t in self.store.items():
            g = grads[t] if t in grads else np.zeros_like(t.data)
            m, v = self.m[name], self.v[name]
            m *= dc.ADAM_BETA1
            m += (1.0 - dc.ADAM_BETA1) * g
            v *= dc.ADAM_BETA2
            v += (1.0 - dc.ADAM_BETA2) * (g * g)
            t.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + dc.ADAM_EPS)


def encoding(disc, x, e, y, adj):
    """``(u, v, mats, y)`` of one row batch: the input of both
    ``Discriminator.score`` and ``AuxNet.logits``."""
    return (*disc.encode(x, e), disc.decoded_matrices(adj), y)


def store_grads(grads, *stores):
    """Every parameter's (name, value bytes, bytes of its entry in the
    ``{leaf: gradient}`` dict ``grads`` or None), in store order."""
    return [(name, t.data.tobytes(), None if t not in grads else grads[t].tobytes())
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


def grad_check(fn: Callable[[], Tensor], params: ParamStore | Iterable[Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must rebuild the loss from the current parameter values and be
    deterministic (freeze any random inputs before calling). Relative error is
    |analytic - numeric| / (|numeric| + 1e-8), maximized over every entry of
    every parameter.
    """
    return difference_check(lambda: fn().item(), backward(fn()), params, eps)


def difference_check(value: Callable[[], float], grads: dict,
                     params: ParamStore | Iterable[Tensor], eps: float = 1e-5) -> float:
    """Max relative error, as ``grad_check`` gives it, between the
    ``{leaf: gradient}`` dict ``grads`` and central differences of ``value()``
    in every entry of ``params`` (a parameter without an entry has gradient 0)."""
    if not 0.0 < eps <= 1e-3:
        raise ValueError(f"eps must be in (0, 1e-3], got {eps}")
    if isinstance(params, ParamStore):
        named = list(params.items())
    else:
        named = [(f"param{i}", t) for i, t in enumerate(params)]
    analytic = {name: grads.get(t, np.zeros_like(t.data)) for name, t in named}

    worst = 0.0
    for name, t in named:
        flat = t.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = value()
            flat[i] = orig - eps
            f_minus = value()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(f"non-finite loss while perturbing parameter {name!r}")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(aflat[i] - numeric) / (abs(numeric) + 1e-8)
            worst = max(worst, rel)
    return worst


@dc.no_grad()
def entropy_accuracy_curve(classifier, x, labels) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative accuracy over instances sorted by ascending output entropy.

    Returns (sorted entropies, cumulative accuracy); point i covers the i+1
    lowest-entropy instances, so the final point equals overall accuracy.
    """
    labels = np.asarray(labels, dtype=np.int64)
    probs = classifier.probs(np.asarray(x, dtype=np.float64)).data
    ent = dc.entropy(probs)
    order = np.argsort(ent, kind="stable")
    correct = (probs.argmax(axis=1) == labels)[order]
    cum_acc = np.cumsum(correct) / np.arange(1, len(labels) + 1)
    return ent[order], cum_acc


def spearman(x, y) -> float:
    """Rank correlation via Pearson on average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("spearman needs two equal-length sequences of size >= 2")
    rx, ry = _ranks(x), _ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


def decile_points(cum_acc: np.ndarray) -> np.ndarray:
    """Cumulative-accuracy values at the 10 decile cut points."""
    n = len(cum_acc)
    idx = np.maximum((np.arange(1, 11) * n) // 10, 1) - 1
    return cum_acc[idx]


def nonincreasing_fraction(values: np.ndarray, tol: float = 1e-12) -> float:
    """Fraction of adjacent pairs where the sequence does not increase."""
    diffs = np.diff(np.asarray(values, dtype=np.float64))
    if diffs.size == 0:
        return 1.0
    return float(np.mean(diffs <= tol))
