"""Training procedures: baselines, pretraining, and the adversarial epoch loop.

One epoch of the main procedure:

1. with the current classifier+generator as the logging policy, sample one
   annotation per (train instance, annotator) pair with fresh noise, and
   record each sample's logging probability, code draw, and entropy;
2. select per-annotator count-balanced generated samples (weight 1/entropy)
   and update the discriminator and auxiliary net on selected + authentic;
3. score every logged sample into a loss delta;
4. split the logged pairs by their instance's normalized classifier entropy
   against the threshold t;
5. update the generator by the importance-weighted objective on low-entropy
   instances (classifier frozen);
6. update the classifier the same way on high-entropy instances using only
   the discriminator signal (generator frozen);
7. record metrics.

The Lagrange multiplier's coefficient is chosen per epoch from ``MU_GRID`` by
validation accuracy, and the run returns its best epoch by validation
accuracy. Both selections keep the classifier and the generator together,
as one snapshot of both nets and their Adam moments (``_snapshot``), under
one rule (``_improves``: NaN never wins, a tie keeps the earlier
candidate); so the returned generator is the one trained with the returned
classifier, the pretrained one when the pretrained classifier wins. A
one-step mode (generator and classifier updated jointly on all pairs) exists
only for the stability comparison. Steps 5 and 6 and the one-step mode run
one counterfactual-risk loop, ``_crm_update``, which differs only in the
networks it moves and the logged pairs it indexes; each inner step runs
forward and backward over pair blocks, keeps at most two pair blocks' graphs
alive at a time, and sums the gradient dicts that ``backward`` returns into
one, on which the optimizers step. The generator is one ``diffcore.mlp``
node, which frees each activation it keeps once its backward has read it;
the classifier's step runs it with its weights held fixed
(``Generator.logits(frozen=True)``), a node over the codes that keeps no
activation. Supervised training, generator pretraining and the D/Q warm-up
run one minibatch loop, ``_epoch_losses``; step 1, the D/Q warm-up and the
augmentation export draw generated labels through one sampling pass,
``_sample_generated``, which returns the labels, distributions and codes for
each caller to take its part (the warm-up's table holds every instance's
classifier probabilities).

The discriminator and the auxiliary net read pairs as index columns
(instances, annotators, labels), as every other pass over pairs does: one
forward (``_judge``) gathers a row block's features and encodes them once
for both judges. It serves the D/Q warm-up, the epoch's D/Q step, step 3's
one pass over the logged pairs and step 7. The D/Q step
(``_disc_aux_step``) decodes the class table once and hands it to three
leaves, one each for D's authentic scores, D's generated scores and Q; it
runs the authentic side, then the generated side, in row blocks, each block
backpropagated as soon as it is scored, and sends the leaves' summed
gradient through the decoder once. D's loss is a value of the two score
vectors; its gradient (``discriminator_score_grad``) seeds each block.

Every pass over all pairs or annotations runs in row blocks, so its memory
does not grow with the pair grid: one block below 8192 rows, and from 8192
rows on balanced blocks of 2048-4095 rows, two of them in flight at a time.
When at least two cores are usable and BLAS is pinned to one thread (see
``crowdaug/__init__.py``), the calling thread runs every other block and one
worker thread the rest (``_in_flight``); grid worker processes run theirs on
one thread. Each CRM block's ``backward`` returns its own gradient dict, and
the dicts are added in block order; each forward-only block slices its own
inputs and writes its own rows of the output (``_forward_in_blocks``). A run
therefore gives the same bits on one thread or two. The forward-only passes
(step 1, the step-3 scores, step 7's authentic scores and the augmentation
export) are bit-identical to one call over every row; the CRM and D/Q steps
are too below 8192 rows (a side), and above that only the order of the
gradient's sum over rows moves.

The epoch frees each per-pair array after its last reader: step 1's
entropies after the selection, the code draws after the step-3 pass, and the
step-3 scores, cut to the selected rows step 7 reads, once the deltas exist.
It keeps one delta per pair, the one of the step that trains on the pair.
The logged batch then holds only what the CRM steps read, its index columns
as int32.

The sampling pass keeps no per-pair code or noise array. The classifier
probabilities of step 1 and of the export depend only on the instance, so
``_instance_probs`` computes them once per distinct instance and each block
gathers its own pairs' rows, byte-equal to the pass per pair; every reader
takes pair ``i``'s code as ``codes[row_of[instances[i]]]`` from its table. The
classifier does not move between steps 1 and 5, so step 1's table, kept on
the logged batch, also gives step 4's entropy split, the generator step's
codes and step 7's code entropy. Step 1 draws every pair's noise, then its
label uniform, then its code uniform, and keeps the noise, which the CRM
steps replay.

The export streams its CSV one pair block at a time and holds no array with
an entry per grid pair or per missing pair, only columns of the annotations
and the instances and two blocks. Each block of the missing pairs derives
its pairs from the sorted authentic positions, replays its noise from a copy
of the generator (the stream is drawn past the noise in block-sized chunks
first) and draws its uniforms; ``_in_flight`` does both on the calling
thread in block order, so the draws are the same on one thread or two. As
each block comes back, the calling thread writes the grid rows through the
block's last missing pair from a NumPy formatter, byte-equal to
``csv.writer``.
"""
from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import BLAS_PINNED
from . import diffcore as dc
from . import evalsuite
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, check_finite
from .data import (TRAIN, VAL, TEST, CrowdDataset, DatasetError, build_cooccurrence,
                   majority_vote)
from .diffcore import Adam, ParamStore, Tensor, backward
from .evalsuite import split_accuracy
from .nets import (AuxNet, Classifier, Discriminator, Generator, NetDims, NetworkBundle,
                   checkpoint_arrays, checked_nets, restore_nets)
from .objectives import (
    compute_breakdown,
    crm_objective,
    discriminator_loss,
    discriminator_score_grad,
    per_annotation_delta,
)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


MU_GRID = (0.0, 0.5, 1.0)
LR_CRM = 3e-4       # the classifier's and the generator's CRM optimizers
LR_PRETRAIN = 1e-3  # supervised training and generator pretraining


@dataclass
class TrainConfig:
    """The training hyper-parameters a config file sets; the fixed ones are the
    constants above, ``nets.DROPOUT``, ``objectives.DISC_L2`` and ``NetDims``'
    defaults."""

    seed: int = 0
    # schedule
    pretrain_epochs: int = 60
    gen_pretrain_epochs: int = 30
    disc_pretrain_epochs: int = 5
    epochs: int = 40
    inner_steps: int = 5
    batch_size: int = 64
    two_step: bool = True
    # objective weights
    info_weight: float = 0.5        # weight of the information term
    entropy_threshold: float = 0.5  # split point on normalized entropy
    lr_discriminator: float = 3e-4
    # grid control and ablation switches
    max_grid_pairs: int = 0          # 0 = log the full instance x annotator grid
    gen_use_instance_features: bool = True
    gen_use_annotator_features: bool = True
    selection_mode: str = "entropy"  # or "uniform"

    def __post_init__(self) -> None:
        check_finite(self)
        if self.info_weight < 0:
            raise ConfigError("info_weight must be >= 0")
        if not 0.0 < self.entropy_threshold < 1.0:
            raise ConfigError("entropy_threshold must lie strictly in (0, 1)")
        if min(self.epochs, self.inner_steps, self.batch_size) < 1:
            raise ConfigError("epochs, inner_steps, and batch_size must be >= 1")
        if min(self.pretrain_epochs, self.gen_pretrain_epochs,
               self.disc_pretrain_epochs) < 0:
            raise ConfigError("pretraining epoch counts must be >= 0")
        if self.selection_mode not in ("entropy", "uniform"):
            raise ConfigError(f"unknown selection_mode {self.selection_mode!r}")
        if self.lr_discriminator <= 0:
            raise ConfigError("lr_discriminator must be positive")
        if self.max_grid_pairs < 0:
            raise ConfigError("max_grid_pairs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class LoggedBatch:
    """Column view of this epoch's logged annotations and their classifier table.

    The index columns are int32, half the bytes of NumPy's default ints.
    ``zhat_draws`` and ``entropies`` are read before the CRM steps alone:
    ``run_epoch`` sets each to None after its last reader (the step-3 judge
    pass and the selection), so the batch the CRM steps read holds only
    their columns."""

    instances: np.ndarray   # global instance ids, int32, shape (P,)
    annotators: np.ndarray  # annotator ids, int32, shape (P,)
    labels: np.ndarray      # sampled labels, int32, shape (P,)
    g0: np.ndarray          # logging probabilities, shape (P,)
    eps: np.ndarray         # noise at logging time, shape (P, k)
    zhat_draws: np.ndarray | None  # sampled code class per pair, int32, shape (P,)
    entropies: np.ndarray | None   # generator-distribution entropy per pair, shape (P,)
    codes: np.ndarray       # classifier probabilities per logged instance, shape (D, C)
    row_of: np.ndarray      # each instance's row of ``codes``, int32, shape (N,)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class TrainState:
    """Everything the epoch loop mutates."""

    bundle: NetworkBundle
    optimizers: dict
    epoch: int = 0
    history: list = field(default_factory=list)
    rng: np.random.Generator | None = None


@dataclass
class TrainResult:
    classifier: Classifier
    bundle: NetworkBundle | None
    history: list
    best_epoch: int
    best_val_acc: float
    test_acc: float


# ---------------------------------------------------------------------------
# shared helpers


def _check_finite(value: float, what: str, epoch: int) -> None:
    if not math.isfinite(value):
        raise DivergenceError(f"non-finite {what} at epoch {epoch}")


def _descend(opt: Adam, loss: Tensor, what: str, epoch: int) -> float:
    """One descent step of ``opt``'s store on a finite scalar ``loss``."""
    value = loss.item()
    _check_finite(value, what, epoch)
    opt.step(backward(loss))
    return value


def _dims_for(ds: CrowdDataset, cfg: TrainConfig) -> NetDims:
    return NetDims(num_classes=ds.num_classes, feature_dim=ds.feature_dim,
                   annotator_dim=ds.annotator_dim,
                   gen_use_instance_features=cfg.gen_use_instance_features,
                   gen_use_annotator_features=cfg.gen_use_annotator_features)


def _train_annotations(ds: CrowdDataset) -> np.ndarray:
    """Annotation triplets whose instance is in the train split."""
    mask = ds.splits[ds.annotations[:, 0]] == TRAIN
    return ds.annotations[mask]


def _epoch_losses(rng: np.random.Generator, count: int, cfg: TrainConfig,
                  epochs: int, step) -> list[float]:
    """Each epoch's mean of ``step(batch, epoch)`` over minibatches of a fresh
    permutation of ``range(count)``."""
    means = []
    for epoch in range(epochs):
        order = rng.permutation(count)
        means.append(float(np.mean([step(order[start:start + cfg.batch_size], epoch)
                                    for start in range(0, count, cfg.batch_size)])))
    return means


# Passes over pairs (forward-only ones and the CRM steps) run in one block
# below 8192 rows and in balanced blocks of 2048-4095 rows from there on, whose
# rows come out bit-identical to one call over all rows (a test checks every
# net). Smaller blocks are not safe: OpenBLAS uses a small-matrix kernel, which
# rounds differently, when M*N*K <= 1e6, and at 1,953 rows the 128 x 4 output
# layers fall under it. Constants, not settings.
_BLOCK_ROWS = 2048
_SPLIT_ROWS = 4 * _BLOCK_ROWS


def _row_blocks(n: int) -> list[slice]:
    """Row blocks of ``0..n``: one block when ``n`` < 8192, else balanced
    blocks of 2048-4095 rows."""
    count = n // _BLOCK_ROWS if n >= _SPLIT_ROWS else 1
    bounds = [n * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads that run a pass's row blocks: two when two cores are usable and BLAS
# is pinned to one thread, else one. Grid worker processes set it to one
# (``one_block_thread``), so processes and threads never multiply.
_BLOCK_THREADS = 2 if BLAS_PINNED and _usable_cores() >= 2 else 1


def one_block_thread() -> None:
    """Run every later pass's row blocks on the calling thread alone."""
    global _BLOCK_THREADS
    _BLOCK_THREADS = 1


def _in_flight(run, blocks: list[slice], feed=lambda rows: ()):
    """Yield ``run(rows, *feed(rows))`` of each block in block order.

    ``feed`` gives a block's own inputs drawn from a generator (the export's
    noise and uniforms): it runs on the calling thread, in block order, just
    before its block is handed out, so its draws come in the same order on one
    thread or two and only the blocks in flight hold theirs. On
    ``_BLOCK_THREADS`` = 2 two blocks are in flight at a time: the calling
    thread runs the even blocks and one worker thread, from a pool made for
    this pass (no thread outlives it), the odd ones. ``run`` must not switch
    the grad mode (see ``diffcore``)."""
    if _BLOCK_THREADS < 2 or len(blocks) < 2:
        for rows in blocks:
            yield run(rows, *feed(rows))
        return
    # imported here: the pool module costs every command's start-up (eval's too)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as pool:
        for at in range(0, len(blocks), 2):
            mine = feed(blocks[at])
            ahead = pool.submit(run, blocks[at + 1], *feed(blocks[at + 1])) \
                if at + 1 < len(blocks) else None
            yield run(blocks[at], *mine)
            if ahead is not None:
                yield ahead.result()


@dc.no_grad()
def _forward_in_blocks(n: int, forward):
    """``forward(rows)`` over ``_row_blocks(n)`` through ``_in_flight``: each
    block's array (or tuple of arrays) is written to its rows of one ``n``-row
    array per output. ``forward`` slices its own inputs and draws nothing."""
    blocks = _row_blocks(n)
    outs = None
    for rows, values in zip(blocks, _in_flight(forward, blocks)):
        parts = values if isinstance(values, tuple) else (values,)
        if outs is None:
            outs = tuple(np.empty((n, *p.shape[1:]), dtype=p.dtype) for p in parts)
        for out, part in zip(outs, parts):
            out[rows] = part
    return outs if isinstance(values, tuple) else outs[0]


def _instance_probs(clf: Classifier, ds: CrowdDataset, instances: np.ndarray,
                    pairs: int) -> tuple:
    """Classifier probabilities of the distinct ids in ``instances``, one
    forward pass each, and the instance -> row map into them: for a pass over
    ``pairs`` pairs of those instances, ``probs[row_of[inst]]`` is byte-equal
    to ``_forward_in_blocks`` over the pairs' instances, and each pair block
    gathers only its own rows.

    The distinct rows are repeated up to the pair pass's first block height,
    so every block is as tall as one of that pass and takes the same BLAS
    kernel (a shorter block would fall under OpenBLAS's small-matrix one; see
    ``_BLOCK_ROWS``).
    """
    distinct, row_of = _distinct(instances, len(ds.features))
    padded = np.resize(distinct, max(len(distinct), _row_blocks(pairs)[0].stop))
    probs = _forward_in_blocks(len(padded), lambda s: clf.probs(ds.features[padded[s]]).data)
    return probs[:len(distinct)], row_of


def _distinct(instances: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids in ``instances`` (of ``0..n``), ascending, and each
    id's position among them, from a presence map without a sort:
    ``np.unique``'s values and, read at ``instances``, its inverse (int32)."""
    present = np.zeros(n, dtype=bool)
    present[instances] = True
    return np.flatnonzero(present), np.cumsum(present, dtype=np.int32) - 1


def _sample_generated(gen: Generator, table: tuple, ds: CrowdDataset, inst: np.ndarray,
                      annot: np.ndarray, eps: np.ndarray, uniforms: np.ndarray) -> tuple:
    """One generated label per (``inst``, ``annot``) pair of one row block or
    minibatch, drawn with noise ``eps`` at its categorical uniform; returns
    (the int32 labels, the generator's distributions, the pairs' codes), from
    which each caller takes what it needs.

    ``table`` is ``_instance_probs``' (probabilities, instance -> row map):
    the block gathers its own codes from it, so no (pairs, classes) array is
    kept."""
    probs, row_of = table
    zhat = probs[row_of[inst]]
    dist = gen.distribution(ds.features[inst], ds.annotator_features[annot], zhat, eps).data
    return dc.categorical_at(dist, uniforms).astype(np.int32), dist, zhat


# ---------------------------------------------------------------------------
# supervised core (used by DL-MV and DL-CL's inner loop)


def _fit_classifier(clf: Classifier, x: np.ndarray, labels: np.ndarray,
                    cfg: TrainConfig, rng: np.random.Generator,
                    transforms: ParamStore | None = None,
                    annotators: np.ndarray | None = None) -> list[dict]:
    """Cross-entropy training for ``cfg.pretrain_epochs`` epochs, optionally
    through per-annotator transforms."""
    params = clf.store if transforms is None else ParamStore.union(clf.store, transforms)
    opt = Adam(params, lr=LR_PRETRAIN)

    def step(batch, epoch):
        logits = clf.logits(x[batch], rng)
        loss = crowd_layer_loss(logits, labels[batch], transforms,
                                None if transforms is None else annotators[batch])
        return _descend(opt, loss, "cross-entropy loss", epoch)

    return [{"epoch": epoch, "loss": loss}
            for epoch, loss in enumerate(_epoch_losses(rng, len(labels), cfg,
                                                       cfg.pretrain_epochs, step))]


def crowd_layer_loss(logits: Tensor, labels: np.ndarray,
                     transforms: ParamStore | None = None,
                     annotators: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy of ``labels``, through per-annotator transforms if given.

    Each row's predicted log-distribution is mapped by its annotator's matrix
    before the final normalization; identity matrices make this collapse to
    plain cross-entropy exactly.
    """
    log_probs = dc.log_softmax(logits)
    if transforms is not None:
        mats = dc.gather_rows(transforms["T"], annotators)
        log_probs = dc.log_softmax(dc.rowwise_matvec(mats, log_probs))
    return dc.nll(log_probs, labels)


def identity_transforms(num_annotators: int, num_classes: int) -> ParamStore:
    store = ParamStore()
    store.add("T", np.tile(np.eye(num_classes), (num_annotators, 1, 1)))
    return store


def pretrain_dl_cl(ds: CrowdDataset, cfg: TrainConfig,
                   rng: np.random.Generator | None = None) -> tuple[Classifier, list]:
    """Crowd-layer pretraining of a classifier through per-annotator label
    transforms; returns (classifier, history) and drops the transforms."""
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    clf = Classifier(_dims_for(ds, cfg), rng)
    transforms = identity_transforms(ds.num_annotators, ds.num_classes)
    ann = _train_annotations(ds)
    history = _fit_classifier(clf, ds.features[ann[:, 0]], ann[:, 2], cfg, rng,
                              transforms=transforms, annotators=ann[:, 1])
    return clf, history


def _baseline_result(ds: CrowdDataset, clf: Classifier, history: list) -> TrainResult:
    """A baseline's result: its classifier after the last epoch, scored on
    the validation and test splits."""
    return TrainResult(classifier=clf, bundle=None, history=history,
                       best_epoch=len(history) - 1,
                       best_val_acc=split_accuracy(clf, ds, VAL),
                       test_acc=split_accuracy(clf, ds, TEST))


def train_dl_mv(ds: CrowdDataset, cfg: TrainConfig) -> TrainResult:
    """Majority-vote aggregation followed by standard supervised training."""
    rng = np.random.default_rng(cfg.seed)
    mv = majority_vote(ds)
    train_idx = ds.split_indices(TRAIN)
    clf = Classifier(_dims_for(ds, cfg), rng)
    return _baseline_result(ds, clf, _fit_classifier(clf, ds.features[train_idx],
                                                     mv[train_idx], cfg, rng))


def train_dl_cl(ds: CrowdDataset, cfg: TrainConfig) -> TrainResult:
    """The crowd-layer baseline as a standalone method."""
    return _baseline_result(ds, *pretrain_dl_cl(ds, cfg))


# ---------------------------------------------------------------------------
# generator / discriminator pretraining


def pretrain_gen_disc(ds: CrowdDataset, clf: Classifier, cfg: TrainConfig,
                      rng: np.random.Generator, adjacency: np.ndarray,
                      ) -> tuple[Generator, Discriminator, AuxNet]:
    """Likelihood-pretrain the generator, then warm up D and Q against it."""
    dims = _dims_for(ds, cfg)
    gen = Generator(dims, rng)
    disc = Discriminator(dims, rng)
    aux = AuxNet(dims, rng)
    ann = _train_annotations(ds)
    with dc.no_grad():
        zhat_all = clf.probs(ds.features).data
    table = (zhat_all, np.arange(ds.num_instances))  # _instance_probs' layout
    opt_g = Adam(gen.store, lr=LR_PRETRAIN)
    opt_dq = Adam(ParamStore.union(disc.store, aux.store), lr=cfg.lr_discriminator)

    def gen_step(batch, epoch):
        inst, annot, labels = ann[batch].T
        log_dist = gen.log_distribution(ds.features[inst], ds.annotator_features[annot],
                                        zhat_all[inst], gen.draw_noise(rng, len(batch)))
        loss = dc.nll(log_dist, labels)
        return _descend(opt_g, loss, "generator pretraining loss", epoch)

    def disc_step(batch, epoch):
        inst, annot, labels = ann[batch].T
        # the stream's order: noise, label uniforms, then code uniforms
        eps = gen.draw_noise(rng, len(batch))
        uniforms, code_uniforms = rng.random(len(batch)), rng.random(len(batch))
        with dc.no_grad():
            fake_labels, _, zhat = _sample_generated(gen, table, ds, inst, annot, eps, uniforms)
        zdraws = dc.categorical_at(zhat, code_uniforms).astype(np.int32)
        return _disc_aux_step(opt_dq, disc, aux, adjacency, ds, (inst, annot, labels),
                              (inst, annot, fake_labels), zdraws,
                              "discriminator pretraining loss", epoch)[0]

    _epoch_losses(rng, len(ann), cfg, cfg.gen_pretrain_epochs, gen_step)
    _epoch_losses(rng, len(ann), cfg, cfg.disc_pretrain_epochs, disc_step)
    return gen, disc, aux


# ---------------------------------------------------------------------------
# epoch machinery


@dc.no_grad()
def log_generation_grid(gen: Generator, clf: Classifier, ds: CrowdDataset,
                        cfg: TrainConfig, rng: np.random.Generator) -> LoggedBatch:
    """Sample one annotation per (train instance, annotator) pair.

    The full grid is logged unless ``max_grid_pairs`` caps it, in which case
    instances are subsampled per annotator but never below that annotator's
    authentic count (selection balance stays feasible).
    """
    train_idx = ds.split_indices(TRAIN)
    r = ds.num_annotators
    counts = np.bincount(_train_annotations(ds)[:, 1], minlength=r)

    pairs_inst = []
    pairs_annot = []
    per_annot_cap = None
    if cfg.max_grid_pairs and len(train_idx) * r > cfg.max_grid_pairs:
        per_annot_cap = max(1, cfg.max_grid_pairs // r)
    for annot in range(r):
        chosen = train_idx
        if per_annot_cap is not None:
            keep = max(per_annot_cap, int(counts[annot]))
            if keep < len(train_idx):
                chosen = rng.choice(train_idx, size=keep, replace=False)
                chosen = np.sort(chosen)
        pairs_inst.append(chosen)
        pairs_annot.append(np.full(len(chosen), annot, dtype=np.int32))
    inst = np.concatenate(pairs_inst, dtype=np.int32)
    annot = np.concatenate(pairs_annot)

    # the stream's order: every pair's noise, label uniform, then code uniform
    eps = gen.draw_noise(rng, len(inst))
    uniforms = rng.random(len(inst))
    code_uniforms = rng.random(len(inst))
    codes, row_of = table = _instance_probs(clf, ds, inst, len(inst))

    def sample(rows):
        labels, dist, zhat = _sample_generated(gen, table, ds, inst[rows], annot[rows],
                                               eps[rows], uniforms[rows])
        return (labels, dist[np.arange(len(labels)), labels], dc.entropy(dist),
                dc.categorical_at(zhat, code_uniforms[rows]).astype(np.int32))

    labels, g0, entropies, zhat_draws = _forward_in_blocks(len(inst), sample)
    return LoggedBatch(instances=inst, annotators=annot, labels=labels, g0=g0, eps=eps,
                       zhat_draws=zhat_draws, entropies=entropies, codes=codes, row_of=row_of)


def select_for_discriminator(annotators: np.ndarray, entropies: np.ndarray,
                             authentic_counts: np.ndarray,
                             rng: np.random.Generator,
                             mode: str = "entropy") -> np.ndarray:
    """Per-annotator draw of generated samples matching authentic counts.

    ``annotators`` must be grouped in ascending order, as step 1 lays the
    pairs out (``log_generation_grid``), so each annotator's candidates are
    one run of it, found by ``np.searchsorted``; an unordered column raises
    ``ValueError``. Weights are 1/max(entropy, 1e-6) ("entropy" mode) or
    uniform; draws are without replacement, exactly ``authentic_counts[r]``
    per annotator, and annotators without authentic annotations contribute
    nothing. Returns the selected indices, ascending.
    """
    annotators = np.asarray(annotators)
    if np.any(annotators[1:] < annotators[:-1]):
        raise ValueError("generated samples must be grouped by ascending annotator")
    entropies = np.asarray(entropies, dtype=np.float64)
    authentic_counts = np.asarray(authentic_counts, dtype=np.int64)
    bounds = np.searchsorted(annotators, np.arange(len(authentic_counts) + 1,
                                                   dtype=annotators.dtype))
    selected = np.zeros(len(annotators), dtype=bool)
    for annot, count in enumerate(authentic_counts):
        if count == 0:
            continue
        lo, hi = bounds[annot], bounds[annot + 1]
        if hi - lo < count:
            raise ValueError(
                f"annotator {annot} has {hi - lo} generated samples "
                f"but {count} authentic annotations")
        if mode == "uniform":
            weights = np.ones(hi - lo)
        else:
            weights = 1.0 / np.maximum(entropies[lo:hi], 1e-6)
        probs = weights / weights.sum()
        selected[lo + rng.choice(hi - lo, size=int(count), replace=False, p=probs)] = True
    return np.flatnonzero(selected)


def _judge(disc: Discriminator, aux: AuxNet, ds: CrowdDataset, cols: tuple, rows,
           mats: Tensor, q_mats: Tensor | None = None) -> tuple:
    """D's scores of the pairs ``rows`` of the index columns ``cols``
    (instances, annotators, labels) and, given ``q_mats``, Q's log-posterior
    of them (else None). The pairs' features are gathered here and encoded
    once for both judges; D reads the decoded class table ``mats``, Q
    ``q_mats``."""
    inst, annot, labels = (column[rows] for column in cols)
    u, v = disc.encode(ds.features[inst], ds.annotator_features[annot])
    scores = disc.score(u, v, mats, labels)
    return scores, None if q_mats is None else aux.log_posterior(u, v, q_mats, labels)


def _seeded_root(seeds: list) -> Tensor:
    """A scalar node over the tensors of the ``(tensor, upstream gradient)``
    pairs ``seeds``: ``backward`` of it is one sweep that hands each tensor
    its gradient."""
    return Tensor(0.0, parents=tuple(t for t, _ in seeds),
                  backward_fn=lambda g: tuple(up for _, up in seeds))


def _disc_aux_step(opt: Adam, disc: Discriminator, aux: AuxNet, adj, ds: CrowdDataset,
                   auth: tuple, gen: tuple, codes: np.ndarray, what: str,
                   epoch: int) -> tuple[float, int]:
    """One step on D's authentic-vs-generated loss over the pairs of the
    index columns ``auth`` and ``gen`` (instances, annotators, labels) plus
    Q's cross-entropy of ``codes`` on the generated pairs; returns (loss,
    clamped D outputs).

    The class table is decoded once and read through three leaves: D's score
    of the authentic rows, D's score of the generated rows and Q each have
    their own. The authentic side, then the generated side, runs over
    ``_row_blocks`` of its rows through ``_in_flight``. A block gathers and
    encodes its rows once (``_judge``; Q reads the generated rows' encoding
    too), scores them and backpropagates at once, seeded with the loss's
    gradient with respect to its scores, which reads only those scores
    (``discriminator_score_grad``), and with Q's cross-entropy gradient, a
    row sum scaled by one over the generated rows. So one block's graph is
    alive at a time per thread, and an authentic block is done before any
    generated block exists. The blocks' gradient dicts are added in block
    order; the leaves' gradients are added as (authentic + generated) + Q,
    the order in which one graph over both sides accumulates the table's,
    and sent through the decoder once. The loss and the clamp count come once
    from the two score vectors (``discriminator_loss``). Below 8192 rows a
    side the bits are those of one graph over every row; above, only the
    order of the sums over rows moves."""
    mats = disc.decoded_matrices(adj)
    tables = [Tensor(mats.data, requires_grad=True) for _ in range(3)]
    sizes = (len(auth[2]), len(gen[2]))
    q_scale = 1.0 / len(codes)

    def block_step(side, rows):
        scores, log_post = _judge(disc, aux, ds, (auth, gen)[side], rows, tables[side],
                                  tables[2] if side else None)
        seeds = [(scores, discriminator_score_grad(scores.data, side, sizes))]
        picked = None
        if side:
            at = (np.arange(len(scores)), codes[rows])
            picked, g = log_post.data[at], np.zeros_like(log_post.data)
            g[at] = -q_scale  # dc.nll's gradient at the generated rows' count
            seeds.append((log_post, g))
        return scores.data, picked, backward(_seeded_root(seeds))

    scores, picked, grads = ([], []), [], {}
    for side in (0, 1):
        blocks = _row_blocks(sizes[side])
        for block_scores, block_picked, block_grads in _in_flight(
                lambda rows: block_step(side, rows), blocks):
            scores[side].append(block_scores)
            if side:
                picked.append(block_picked)
            dc.add_grads(grads, block_grads)
    d_loss, clamped = discriminator_loss(*(np.concatenate(s) for s in scores))
    # plus dc.nll's value over every generated row
    value = float(d_loss + -(np.concatenate(picked).sum() * q_scale))
    _check_finite(value, what, epoch)
    table_grad = (grads.pop(tables[0]) + grads.pop(tables[1])) + grads.pop(tables[2])
    dc.add_grads(grads, backward(mats, table_grad))
    opt.step(grads)
    return value, clamped


_NET_NAMES = {"gen": "generator", "clf": "classifier"}


def _crm_update(state: TrainState, ds: CrowdDataset, cfg: TrainConfig,
                batch: LoggedBatch, idx: np.ndarray, deltas: np.ndarray, mu: float,
                trains: tuple[str, ...], rng: np.random.Generator) -> None:
    """Minimize mean((delta - mu) * G(y) / g0) over the logged pairs ``idx`` of
    ``batch``; ``deltas`` holds one delta per logged pair.

    Only the stores named in ``trains`` ("gen", "clf") step, generator first.
    Every block reads pair ``i``'s code as ``codes[row_of[batch.instances[i]]]``
    from one table in ``_instance_probs``' layout: with the classifier
    training, each inner step's table of it in train mode (dropout from
    ``rng``), else the batch's step-1 table. No leaf of a frozen store is in
    the graph, so none is in the gradient dict, and a frozen store must come
    out bit-identical: the generator step reads the classifier's codes from
    the step-1 table, and a frozen generator runs as one node over the codes
    (``Generator.logits(frozen=True)``).

    Each inner step runs forward and backward over ``_row_blocks`` of ``idx``,
    at most two pair blocks' graphs alive at a time (``_in_flight``): a block
    gathers its own pairs' rows of the batch, its objective is its sum scaled
    by 1/len(idx), and the gradient dicts its ``backward`` returns are added up
    in block order, so the gradient has the same bits on one thread or two. The
    classifier's codes are computed once per step over the distinct
    instances (``_distinct``), with one dropout draw; the blocks' gradients
    with respect to them are summed under one leaf, sent through the
    classifier once and added in. Every trained optimizer then steps on the
    one sum. Below 8192 pairs this is one block, the same computation as a
    single pass; above it only the order in which the weight and bias
    gradients are summed over pairs differs.
    """
    clf, gen = state.bundle.classifier, state.bundle.generator
    stores = {"gen": gen.store, "clf": clf.store}
    frozen = {k: s.fingerprint() for k, s in stores.items() if k not in trains}
    what = _NET_NAMES[trains[0]] if len(trains) == 1 else "joint"
    codes, row_of = Tensor(batch.codes), batch.row_of  # replaced when the classifier trains
    if "clf" in trains:
        uniq, row_of = _distinct(batch.instances[idx], len(ds.features))
    blocks = _row_blocks(len(idx))
    for _ in range(cfg.inner_steps):
        if "clf" in trains:
            probs = clf.probs(ds.features[uniq], rng)
            codes = Tensor(probs.data, requires_grad=True)

        def block_step(rows):
            # the graph is local, so it is freed when the block returns
            at = idx[rows]
            dist = dc.softmax(gen.logits(ds.features[batch.instances[at]],
                                         ds.annotator_features[batch.annotators[at]],
                                         dc.gather_rows(codes, row_of[batch.instances[at]]),
                                         batch.eps[at], frozen="gen" not in trains))
            obj = crm_objective(batch.g0[at], dc.pick(dist, batch.labels[at]),
                                deltas[at], mu, len(idx))
            return obj.item(), backward(obj)

        objective, grads = 0.0, {}
        for value, block_grads in _in_flight(block_step, blocks):
            objective += value
            dc.add_grads(grads, block_grads)
        _check_finite(objective, f"{what} objective", state.epoch)
        if "clf" in trains:
            dc.add_grads(grads, backward(probs, grads.pop(codes)))
            del probs, codes
        for name in ("gen", "clf"):
            if name in trains:
                state.optimizers[name].step(grads)
    for name, before in frozen.items():
        assert stores[name].fingerprint() == before, \
            f"{_NET_NAMES[name]} changed during the {what} step"


def _snapshot(state: TrainState) -> dict:
    """The classifier's and generator's parameters and Adam moments, which
    ``_restore`` puts back: the one copy both selections keep."""
    return {name: (state.optimizers[name].store.state_dict(),
                   state.optimizers[name].state_dict()) for name in ("clf", "gen")}


def _restore(state: TrainState, snap: dict) -> None:
    for name, (params, moments) in snap.items():
        state.optimizers[name].store.load_state_dict(params)
        state.optimizers[name].load_state_dict(moments)


def _improves(acc: float, best: float) -> bool:
    """The selection rule of the μ search and the best epoch: a validation
    accuracy beats the leader's unless it is NaN, any number beats a NaN
    leader, and a tie keeps the earlier candidate."""
    return not math.isnan(acc) and (math.isnan(best) or acc > best)


def run_epoch(state: TrainState, ds: CrowdDataset, cfg: TrainConfig) -> dict:
    """One full epoch; returns (and appends) the epoch's metric record."""
    bundle = state.bundle
    rng = state.rng
    warnings: list[str] = []

    # (1) sample the grid with the current networks as the logging policy
    batch = log_generation_grid(bundle.generator, bundle.classifier, ds, cfg, rng)

    # (2) count-balanced selection, then discriminator + auxiliary updates
    authentic = _train_annotations(ds)
    counts = np.bincount(authentic[:, 1], minlength=ds.num_annotators)
    selected = select_for_discriminator(batch.annotators, batch.entropies,
                                        counts, rng, mode=cfg.selection_mode)
    batch.entropies = None  # each per-pair array goes after its last reader
    disc, aux = bundle.discriminator, bundle.aux
    auth_cols = tuple(authentic.T)
    sel_cols = (batch.instances[selected], batch.annotators[selected], batch.labels[selected])
    sel_codes = batch.zhat_draws[selected]
    disc_loss_val, clamp_count = float("nan"), 0
    for _ in range(cfg.inner_steps):
        disc_loss_val, clamped = _disc_aux_step(
            state.optimizers["disc"], disc, aux, bundle.adjacency, ds, auth_cols, sel_cols,
            sel_codes, "discriminator loss", state.epoch)
        clamp_count += clamped

    # (3) score all logged samples: D and Q read one encoding per pair block
    with dc.no_grad():
        mats = disc.decoded_matrices(bundle.adjacency)
    logged = (batch.instances, batch.annotators, batch.labels)

    def judge(s):
        scores, log_post = _judge(disc, aux, ds, logged, s, mats, mats)
        return scores.data, log_post.data[np.arange(len(scores)), batch.zhat_draws[s]]

    d_scores, q_at_draw = _forward_in_blocks(len(batch), judge)
    batch.zhat_draws = None
    # step 7 reads the selected rows' scores alone
    d_gen_final, q_selected = d_scores[selected], q_at_draw[selected]

    # (4) split the logged pairs by their instance's normalized code entropy
    # in step 1's classifier table (the classifier has not moved since)
    code_entropies = dc.entropy(batch.codes)
    is_low = code_entropies / np.log(ds.num_classes) <= cfg.entropy_threshold
    pair_is_low = is_low[batch.row_of][batch.instances]
    low_idx = np.flatnonzero(pair_is_low).astype(np.int32)
    high_idx = np.flatnonzero(~pair_is_low).astype(np.int32)
    del pair_is_low

    # one delta per pair, for the step that trains on it: the generator's
    # (with the information term) and, at the high-entropy pairs of the
    # two-step update, the classifier's (without); each is elementwise
    deltas, clamped_d = per_annotation_delta(d_scores, q_at_draw, cfg.info_weight)
    if cfg.two_step:
        deltas[high_idx] = per_annotation_delta(d_scores[high_idx], q_at_draw[high_idx], 0.0)[0]
    clamp_count += clamped_d
    del d_scores, q_at_draw

    # (5)+(6) CRM updates under a shared multiplier-coefficient search: each
    # step is (pairs, mean delta, networks); the joint update applies one μ
    # to all pairs, so both records carry it
    steps = ((low_idx, ("gen",)), (high_idx, ("clf",))) if cfg.two_step \
        else ((np.arange(len(batch), dtype=np.int32), ("gen", "clf")),)
    steps = tuple((idx, float(deltas[idx].mean()) if len(idx) else 0.0, trains)
                  for idx, trains in steps)
    start, leader = _snapshot(state), None
    candidate_seed = int(rng.integers(2**63))
    for coeff in MU_GRID:
        _restore(state, start)
        cand_rng = np.random.default_rng(candidate_seed)
        for idx, mean_delta, trains in steps:
            if len(idx):
                _crm_update(state, ds, cfg, batch, idx, deltas, coeff * mean_delta,
                            trains, cand_rng)
        val_acc = split_accuracy(bundle.classifier, ds, VAL)
        if leader is None or _improves(val_acc, best_acc):
            chosen_coeff, best_acc, leader = coeff, val_acc, _snapshot(state)
    _restore(state, leader)
    mu_g, mu_c = chosen_coeff * steps[0][1], chosen_coeff * steps[-1][1]

    if cfg.two_step and not len(low_idx):
        warnings.append("empty low-entropy set: generator update skipped")
    if cfg.two_step and not len(high_idx):
        warnings.append("empty high-entropy set: classifier update skipped")

    # (7) metrics: steps 5 and 6 leave D, so step 3's table and scores are
    # current and only the authentic rows are scored again
    d_auth_final = _forward_in_blocks(
        len(authentic), lambda s: _judge(disc, aux, ds, auth_cols, s, mats)[0].data)
    terms, clamped_b = compute_breakdown(d_auth_final, d_gen_final, q_selected,
                                         float(code_entropies.mean()), cfg.info_weight)
    record = {
        "epoch": state.epoch,
        "train_acc": split_accuracy(bundle.classifier, ds, TRAIN),
        "val_acc": best_acc,
        "test_acc": split_accuracy(bundle.classifier, ds, TEST),
        **terms,
        "disc_loss": disc_loss_val,
        "disc_auc": evalsuite.auc(d_auth_final, d_gen_final),
        "clamp_count": clamp_count + clamped_b,
        "num_logged": len(batch),
        "num_selected": int(len(selected)),
        "num_low_pairs": int(len(low_idx)),
        "num_high_pairs": int(len(high_idx)),
        "mu_coeff": chosen_coeff,
        "mu_generator": mu_g,
        "mu_classifier": mu_c,
        "warnings": ";".join(warnings),
    }
    state.history.append(record)
    state.epoch += 1
    return record


def train_crowding(ds: CrowdDataset, cfg: TrainConfig) -> TrainResult:
    """Full adversarial-augmentation training; the best-validation epoch's
    classifier and generator win.

    The freshly pretrained pair is the epoch-0 candidate, so on clean data the
    procedure can never fall below its own starting point by more than
    validation noise.
    """
    master = np.random.default_rng(cfg.seed)
    clf, _ = pretrain_dl_cl(ds, cfg, rng=master)
    adjacency = build_cooccurrence(ds)
    gen, disc, aux = pretrain_gen_disc(ds, clf, cfg, master, adjacency)
    bundle = NetworkBundle(_dims_for(ds, cfg), clf, gen, disc, aux, adjacency)
    state = TrainState(
        bundle=bundle,
        optimizers={
            "clf": Adam(clf.store, lr=LR_CRM),
            "gen": Adam(gen.store, lr=LR_CRM),
            "disc": Adam(ParamStore.union(disc.store, aux.store), lr=cfg.lr_discriminator),
        },
        rng=master,
    )

    best_val = split_accuracy(clf, ds, VAL)
    best_epoch = -1  # the pretrained classifier and generator themselves
    best = _snapshot(state)
    for _ in range(cfg.epochs):
        record = run_epoch(state, ds, cfg)
        if _improves(record["val_acc"], best_val):
            best_val, best_epoch, best = record["val_acc"], record["epoch"], _snapshot(state)

    _restore(state, best)
    return TrainResult(classifier=clf, bundle=bundle, history=state.history,
                       best_epoch=best_epoch, best_val_acc=best_val,
                       test_acc=split_accuracy(clf, ds, TEST))


METHODS = {"crowding": train_crowding, "dl-cl": train_dl_cl, "dl-mv": train_dl_mv}


def check_trainable(ds: CrowdDataset) -> None:
    """Reject a dataset with no annotation on a train instance, on which every
    method would train on nothing; the CLI calls it before the manifest."""
    if not len(_train_annotations(ds)):
        raise DatasetError("no train instance has an annotation, so there is nothing to train on")


def check_method(method: str) -> None:
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected crowding, dl-cl, or dl-mv")


def train_method(ds: CrowdDataset, cfg: TrainConfig, method: str) -> TrainResult:
    """Train ``method``; non-finite logits on the way raise ``DivergenceError``."""
    check_method(method)
    try:
        return METHODS[method](ds, cfg)
    except FloatingPointError as exc:
        raise DivergenceError(f"{method}: {exc}") from None


# ---------------------------------------------------------------------------
# checkpoints

def save_result_checkpoint(path: str | Path, result: TrainResult) -> None:
    """Persist a finished run: the best classifier, and for the adversarial
    method the whole network bundle (the selected epoch's classifier and
    generator) plus its propagation matrix."""
    clf, bundle = result.classifier, result.bundle
    save_checkpoint(path, bundle.state_dict() if bundle is not None
                    else checkpoint_arrays(clf.dims, {"classifier": clf.store}))


def load_result_checkpoint(path: str | Path, ds: CrowdDataset,
                           generator: bool = False) -> Classifier | NetworkBundle:
    """Rebuild the classifier, or with ``generator`` the whole bundle, from a
    checkpoint (without it only the classifier's arrays are read). Before any
    net is built, the arrays are checked (``nets.checked_nets``), then their
    fit to ``ds``: the same input widths, and no more classes than were
    trained (a class with no annotation may be missing from ``ds``)."""
    arrays = load_checkpoint(path)
    try:
        dims, nets = checked_nets(arrays, generator)
        if generator and nets == ("classifier",):
            raise ValueError("checkpoint has no generator; augment needs a run "
                             "trained with the adversarial method")
        for name in ("feature_dim", "annotator_dim") if generator else ("feature_dim",):
            trained, given = getattr(dims, name), getattr(ds, name)
            if trained != given:
                raise ValueError(f"checkpoint was trained with {name} = {trained}, "
                                 f"but the dataset has {name} = {given}")
        if ds.num_classes > dims.num_classes:
            raise ValueError(f"checkpoint was trained with num_classes = {dims.num_classes}, "
                             f"but the dataset has {ds.num_classes} classes")
        return restore_nets(arrays, dims, nets)
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing array {exc.args[0]!r}") from None
    except ValueError as exc:  # invalid meta dims, arrays they do not fit, or no fit to ds
        raise CheckpointError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# augmentation export


@dataclass
class ExportSummary:
    """What ``export_augmented`` wrote; its length is the rows written."""

    rows: int
    authentic: int

    def __len__(self) -> int:
        return self.rows


@dc.no_grad()
def export_augmented(ds: CrowdDataset, bundle: NetworkBundle, seed: int,
                     out_path: str | Path) -> ExportSummary:
    """Write the authentic annotations plus one generated label per missing
    pair to ``out_path`` as CSV rows (instance, annotator, label, authentic)
    over the full train-instance x annotator grid in canonical order.

    The grid is never held: pair ``p`` of it is train instance ``p // R``
    with annotator ``p % R``, and the k-th missing pair sits at ``k`` plus the
    number of authentic positions before it, found by one search in the
    sorted authentic positions. Each row block of the missing pairs derives
    its own pairs from that, samples its labels, and is written with the
    authentic rows up to its last pair as it comes back from ``_in_flight``;
    the rows after the last missing pair are written last.

    The stream is every missing pair's noise, then each one's categorical
    uniform. The noise is not kept: the stream is drawn past it in row-block
    chunks (chunked normal draws equal one draw), and a copy of the generator
    taken before replays it block by block; the uniforms are drawn per block
    from the stream past the noise (chunked uniform draws equal one draw).
    The CSV is written under a temporary name and renamed at the end, so a
    failed export leaves no partial file.
    """
    rng = np.random.default_rng(seed)
    train_idx = ds.split_indices(TRAIN)
    r = ds.num_annotators
    total = len(train_idx) * r
    slot = np.zeros(ds.num_instances, dtype=np.int64)
    slot[train_idx] = np.arange(len(train_idx))
    ann = _train_annotations(ds)
    auth_pos = slot[ann[:, 0]] * r + ann[:, 1]
    order = np.argsort(auth_pos)
    auth_pos, auth_labels = auth_pos[order], ann[order, 2]
    missing_before = auth_pos - np.arange(len(auth_pos))  # of each authentic position

    def missing_position(k):
        return k + np.searchsorted(missing_before, k, "right")

    missing = total - len(auth_pos)
    blocks = _row_blocks(missing) if missing else []
    if blocks:
        gen = bundle.generator
        # a train instance has a missing pair unless all R annotators labeled it
        table = _instance_probs(bundle.classifier, ds, train_idx[
            np.bincount(slot[ann[:, 0]], minlength=len(train_idx)) < r], missing)
        replay = copy.deepcopy(rng)
        for rows in blocks:
            gen.draw_noise(rng, rows.stop - rows.start)

    def feed(rows):
        pos = missing_position(np.arange(rows.start, rows.stop))
        count = rows.stop - rows.start
        return (train_idx[pos // r], pos % r, gen.draw_noise(replay, count), rng.random(count))

    def sample(rows, *block):
        return _sample_generated(gen, table, ds, *block)[0]

    written = 0

    def write(fh, stop: int, generated=()) -> None:
        """Grid rows ``written..stop``; ``generated`` labels its missing pairs."""
        nonlocal written
        pos = np.arange(written, stop)
        lo, hi = np.searchsorted(auth_pos, (written, stop))
        at = auth_pos[lo:hi] - written
        rows = np.zeros((len(pos), 4), dtype=np.int64)
        rows[:, 0] = train_idx[pos // r]
        rows[:, 1] = pos % r
        rows[at, 2] = auth_labels[lo:hi]
        rows[at, 3] = 1
        rows[rows[:, 3] == 0, 2] = generated
        fh.write(_csv_int_lines(rows))
        written = stop

    out_path = Path(out_path)
    partial = out_path.with_name(out_path.name + ".partial")
    try:
        with open(partial, "wb") as fh:
            fh.write(b"instance_id,annotator_id,label,authentic\n")
            for rows, labels in zip(blocks, _in_flight(sample, blocks, feed)):
                write(fh, int(missing_position(rows.stop - 1)) + 1, labels)
            start = written
            for rows in _row_blocks(total - start):  # authentic rows only
                write(fh, start + rows.stop)
        os.replace(partial, out_path)
    finally:
        partial.unlink(missing_ok=True)
    return ExportSummary(rows=written, authentic=len(auth_pos))


def _csv_int_lines(rows: np.ndarray) -> bytes:
    """Rows of non-negative integers as CSV lines ending in "\\n", byte-equal to
    ``csv.writer`` over ``rows.tolist()``: one character matrix of the rows,
    filled one column and digit at a time, with leading zeros masked out."""
    if not rows.size:
        return b""
    widths = [len(str(int(m))) for m in rows.max(axis=0)]
    chars = np.empty((len(rows), sum(widths) + len(widths)), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    end = chars.shape[1]
    for col, width in zip(rows.T[::-1], widths[::-1]):  # right to left
        chars[:, end - 1] = ord(",")
        for at in range(end - 2, end - 2 - width, -1):
            if at < end - 2:  # a digit left of the units: kept while digits remain
                keep[:, at] = col > 0
            col, digit = np.divmod(col, 10)
            chars[:, at] = digit + ord("0")
        end -= width + 1
    chars[:, -1] = ord("\n")
    return chars[keep].tobytes()
