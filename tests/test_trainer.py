"""Training-loop behavior: selection balance, logging consistency, freezing,
determinism, baseline equivalences, and the augmentation export."""
import copy
import csv
import dataclasses
import io
import math
import sys
import threading
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import crowdaug.diffcore as dc
from crowdaug import trainer as tr
from crowdaug.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from crowdaug.config import ConfigError
from crowdaug.data import (
    TRAIN, VAL, TEST,
    SynthConfig,
    build_cooccurrence,
    majority_vote,
    synthesize_dataset,
)
from crowdaug.nets import (NETS, AuxNet, Classifier, Discriminator, Generator, NetDims,
                           checkpoint_shapes)
from crowdaug.trainer import (
    DivergenceError,
    LoggedBatch,
    TrainConfig,
    crowd_layer_loss,
    export_augmented,
    identity_transforms,
    log_generation_grid,
    pretrain_dl_cl,
    pretrain_gen_disc,
    select_for_discriminator,
    train_crowding,
    train_dl_cl,
    train_dl_mv,
    train_method,
)
from helpers import (
    build_bundle,
    chain_mlp,
    chain_nll,
    difference_check,
    encoding,
    grad_check,
    randomize,
    read_augmented_file,
    single_graph_disc_aux_step,
    store_grads,
)


def tiny_dataset(seed=7, n=60, r=6, c=3):
    cfg = SynthConfig(num_classes=c, num_instances=n, num_annotators=r,
                      feature_dim=2, avg_annotations=2.0,
                      reliability_low=0.7, reliability_high=0.95)
    return synthesize_dataset(cfg, seed=seed)


def tiny_config(**kw):
    base = dict(seed=3, pretrain_epochs=3, gen_pretrain_epochs=2,
                disc_pretrain_epochs=1, epochs=2, inner_steps=2, batch_size=32)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_values():
    for kw in (dict(info_weight=-0.1), dict(entropy_threshold=0.0),
               dict(entropy_threshold=1.0), dict(epochs=0),
               dict(selection_mode="greedy"),
               dict(lr_discriminator=0.0), dict(max_grid_pairs=-1),
               dict(pretrain_epochs=-1), dict(seed=-1),
               dict(lr_discriminator=float("nan")), dict(info_weight=float("nan")),
               dict(info_weight=float("inf"))):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


def test_config_defaults_validate():
    TrainConfig()


def test_unknown_method_rejected():
    ds = tiny_dataset()
    with pytest.raises(ConfigError, match="unknown method"):
        train_method(ds, tiny_config(), "ensemble")


# ---------------------------------------------------------------------------
# selection


def test_selection_counts_match_authentic_exactly():
    rng = np.random.default_rng(0)
    annotators = np.repeat(np.arange(5), 40)
    entropies = rng.uniform(0.01, 1.0, size=len(annotators))
    counts = np.array([7, 0, 13, 1, 40])
    sel = select_for_discriminator(annotators, entropies, counts, rng)
    assert len(sel) == counts.sum()
    assert len(np.unique(sel)) == len(sel)  # without replacement
    got = np.bincount(annotators[sel], minlength=5)
    assert np.array_equal(got, counts)


def test_selection_infeasible_count_raises():
    rng = np.random.default_rng(0)
    annotators = np.array([0, 0, 1])
    with pytest.raises(ValueError, match="annotator 0 has 2 generated"):
        select_for_discriminator(annotators, np.ones(3), np.array([3, 1]), rng)


def test_selection_rejects_an_ungrouped_column():
    # step 1 logs pairs grouped by ascending annotator, capped or not
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="grouped by ascending annotator"):
        select_for_discriminator(np.array([0, 1, 0]), np.ones(3), np.array([1, 1]), rng)


def test_selection_prefers_low_entropy():
    # one candidate at entropy 0.1 (weight 10) vs one at 1.0 (weight 1):
    # the low-entropy sample should win ~10/11 of draws.
    rng = np.random.default_rng(42)
    annotators = np.zeros(2, dtype=np.int64)
    entropies = np.array([0.1, 1.0])
    wins = sum(select_for_discriminator(annotators, entropies,
                                        np.array([1]), rng)[0] == 0
               for _ in range(2000))
    expected = 2000 * 10 / 11
    sigma = math.sqrt(2000 * (10 / 11) * (1 / 11))
    assert abs(wins - expected) < 5 * sigma


def test_selection_uniform_mode_is_unbiased():
    rng = np.random.default_rng(11)
    annotators = np.zeros(10, dtype=np.int64)
    entropies = np.linspace(0.01, 2.0, 10)  # would be wildly non-uniform weights
    tally = np.zeros(10)
    for _ in range(3000):
        sel = select_for_discriminator(annotators, entropies, np.array([3]),
                                       rng, mode="uniform")
        tally[sel] += 1
    expected = 3000 * 3 / 10
    sigma = math.sqrt(3000 * 0.3 * 0.7)
    assert np.all(np.abs(tally - expected) < 5 * sigma)


def _select_by_scan(annotators, entropies, authentic_counts, rng, mode="entropy"):
    """Selection with one ``annotators == annot`` scan per annotator."""
    selected = []
    for annot, count in enumerate(authentic_counts):
        if count == 0:
            continue
        candidates = np.flatnonzero(annotators == annot)
        if mode == "uniform":
            weights = np.ones(len(candidates))
        else:
            weights = 1.0 / np.maximum(entropies[candidates], 1e-6)
        chosen = rng.choice(candidates, size=int(count), replace=False,
                            p=weights / weights.sum())
        selected.append(np.sort(chosen))
    return np.concatenate(selected) if selected else np.empty(0, dtype=np.int64)


@pytest.mark.parametrize("mode", ["entropy", "uniform"])
def test_selection_equals_per_annotator_scan(mode):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        annotators = np.sort(rng.integers(0, 7, size=400))  # grouped, as step 1 logs pairs
        entropies = rng.uniform(0.0, 1.5, size=400)
        counts = np.minimum(np.bincount(annotators, minlength=8),
                            rng.integers(0, 30, size=8))
        got = select_for_discriminator(annotators, entropies, counts,
                                       np.random.default_rng(seed), mode=mode)
        expected = _select_by_scan(annotators, entropies, counts,
                                   np.random.default_rng(seed), mode=mode)
        assert np.array_equal(got, expected)


def test_selection_floors_tiny_entropy():
    # entropy 0 must not divide by zero; the floored weight still dominates.
    rng = np.random.default_rng(5)
    annotators = np.zeros(3, dtype=np.int64)
    sel = select_for_discriminator(annotators, np.array([0.0, 5.0, 5.0]),
                                   np.array([1]), rng)
    assert sel.shape == (1,)


# ---------------------------------------------------------------------------
# logging consistency


def test_logged_probabilities_replay_bit_exact():
    ds = tiny_dataset()
    cfg = tiny_config()
    rng = np.random.default_rng(9)
    dims = tr._dims_for(ds, cfg)
    clf = Classifier(dims, rng)
    gen = Generator(dims, rng)
    randomize(clf.store, rng, scale=0.3)
    randomize(gen.store, rng, scale=0.3)
    clf_state, gen_state = clf.store.state_dict(), gen.store.state_dict()

    batch = log_generation_grid(gen, clf, ds, cfg, rng)
    # mutate the live networks: the log must remain reproducible from the
    # logging policy's parameters, replayed in fresh networks
    randomize(clf.store, rng, scale=1.0)
    randomize(gen.store, rng, scale=1.0)
    replay_rng = np.random.default_rng(0)
    replay_clf, replay_gen = Classifier(dims, replay_rng), Generator(dims, replay_rng)
    replay_clf.store.load_state_dict(clf_state)
    replay_gen.store.load_state_dict(gen_state)
    zhat = replay_clf.probs(ds.features[batch.instances]).data
    dist = replay_gen.distribution(ds.features[batch.instances],
                                   ds.annotator_features[batch.annotators], zhat, batch.eps).data
    assert np.array_equal(dist[np.arange(len(batch)), batch.labels], batch.g0)


def test_logged_grid_covers_all_train_pairs():
    ds = tiny_dataset()
    cfg = tiny_config()
    rng = np.random.default_rng(1)
    dims = NetDims(num_classes=ds.num_classes, feature_dim=ds.feature_dim,
                   annotator_dim=ds.annotator_dim)
    batch = log_generation_grid(Generator(dims, rng), Classifier(dims, rng),
                                ds, cfg, rng)
    train_idx = ds.split_indices(TRAIN)
    assert len(batch) == len(train_idx) * ds.num_annotators
    pairs = set(zip(batch.instances.tolist(), batch.annotators.tolist()))
    assert len(pairs) == len(batch)
    assert set(batch.instances.tolist()) == set(train_idx.tolist())
    assert np.all(np.diff(batch.annotators) >= 0)  # the layout selection reads
    assert np.all(batch.g0 > 0)
    assert np.all(batch.entropies >= 0)


def test_logged_grid_equals_the_whole_grid_sample(monkeypatch):
    # 16,000 pairs: seven row blocks on the pool, sampled block by block,
    # against one distribution over every pair and one categorical draw
    monkeypatch.setattr(tr, "_BLOCK_THREADS", 2)
    ds = tiny_dataset(n=400, r=40, c=4)
    cfg = tiny_config()
    rng = np.random.default_rng(4)
    bundle = build_bundle(tr._dims_for(ds, cfg), build_cooccurrence(ds), rng)
    for store in bundle.stores().values():
        randomize(store, rng, scale=0.5)
    clf, gen = bundle.classifier, bundle.generator
    batch = log_generation_grid(gen, clf, ds, cfg, np.random.default_rng(11))
    assert len(batch) >= 8192

    rng = np.random.default_rng(11)
    inst, annot = batch.instances, batch.annotators
    with dc.no_grad():
        zhat = clf.probs(ds.features[inst]).data
        eps = gen.draw_noise(rng, len(inst))
        dist = gen.distribution(ds.features[inst], ds.annotator_features[annot],
                                zhat, eps).data
    labels = dc.categorical_at(dist, rng.random(len(inst)))
    # the classifier table, read at each pair's instance, is the whole grid's
    # codes; its row map has one entry an instance; the index columns are int32
    expected = LoggedBatch(inst, annot, labels.astype(np.int32),
                           dist[np.arange(len(inst)), labels], eps,
                           dc.categorical_at(zhat, rng.random(len(inst))).astype(np.int32),
                           dc.entropy(dist), batch.codes, batch.row_of)
    assert batch.codes[batch.row_of[inst]].tobytes() == zhat.tobytes()
    assert len(batch.row_of) == ds.num_instances
    for name in ("instances", "annotators", "row_of"):
        assert getattr(batch, name).dtype == np.int32, name
    for f in dataclasses.fields(LoggedBatch):
        got, want = getattr(batch, f.name), getattr(expected, f.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name


def test_logged_grid_respects_pair_cap():
    ds = tiny_dataset()
    cfg = tiny_config(max_grid_pairs=60)
    rng = np.random.default_rng(1)
    dims = NetDims(num_classes=ds.num_classes, feature_dim=ds.feature_dim,
                   annotator_dim=ds.annotator_dim)
    batch = log_generation_grid(Generator(dims, rng), Classifier(dims, rng),
                                ds, cfg, rng)
    counts = np.bincount(
        ds.annotations[ds.splits[ds.annotations[:, 0]] == TRAIN][:, 1],
        minlength=ds.num_annotators)
    per = np.bincount(batch.annotators, minlength=ds.num_annotators)
    # capped well below the full grid, but never below the authentic count
    assert len(batch) < len(ds.split_indices(TRAIN)) * ds.num_annotators
    assert np.all(per >= np.maximum(counts, 1))
    assert np.all(np.diff(batch.annotators) >= 0)  # still grouped by annotator


class _StopWarmUp(Exception):
    pass


def test_warm_up_draws_noise_then_label_then_code_uniforms(monkeypatch):
    # the D/Q warm-up's first step against a per-row reference drawn from a
    # copy of the stream at that step: every row's noise, then each row's
    # label uniform, then each row's code uniform
    ds = tiny_dataset()
    cfg = tiny_config()
    rng = np.random.default_rng(cfg.seed)
    clf, _ = pretrain_dl_cl(ds, cfg, rng=rng)
    draw_noise, streams, step_args = Generator.draw_noise, [], []

    def recording_draw_noise(gen, stream, batch):
        streams.append((gen, copy.deepcopy(stream)))
        return draw_noise(gen, stream, batch)

    def first_step(*args):
        step_args.extend(args)
        raise _StopWarmUp

    monkeypatch.setattr(Generator, "draw_noise", recording_draw_noise)
    monkeypatch.setattr(tr, "_disc_aux_step", first_step)
    with pytest.raises(_StopWarmUp):
        pretrain_gen_disc(ds, clf, cfg, rng, build_cooccurrence(ds))
    (inst, annot, _), gen_cols, codes = step_args[5:8]
    gen, stream = streams[-1]  # the generator and stream as the step drew
    eps = draw_noise(gen, stream, len(inst))
    uniforms, code_uniforms = stream.random(len(inst)), stream.random(len(inst))
    with dc.no_grad():
        zhat = clf.probs(ds.features).data[inst]
        labels = [dc.categorical_at(gen.distribution(
            ds.features[inst[i:i + 1]], ds.annotator_features[annot[i:i + 1]],
            zhat[i:i + 1], eps[i:i + 1]).data, uniforms[i:i + 1])[0] for i in range(len(inst))]
    assert len(inst) == cfg.batch_size
    assert np.array_equal(gen_cols[0], inst) and np.array_equal(gen_cols[1], annot)
    assert np.array_equal(gen_cols[2], labels)
    assert np.array_equal(codes, [dc.categorical_at(zhat[i:i + 1], code_uniforms[i:i + 1])[0]
                                  for i in range(len(inst))])


@pytest.mark.parametrize("n", [0, 1, 2047, 8191, 8192, 10239, 10240, 12289, 20011, 80000])
def test_row_blocks_partition(n):
    blocks = tr._row_blocks(n)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    heights = [b.stop - b.start for b in blocks]
    if n < 8192:
        assert heights == [n]
    else:
        assert min(heights) >= 2048 and max(heights) <= 4095, heights


@pytest.mark.parametrize("n", [1, 4095, 4096, 8191, 8192, 10239, 12289, 20000])
def test_blocked_forward_equals_one_shot(n, monkeypatch):
    monkeypatch.setattr(tr, "_BLOCK_THREADS", 2)  # the blocks run on the pool
    # the widths of the pair-grid benchmark: 4 classes, 2-D features, 40 annotators
    dims = NetDims(num_classes=4, feature_dim=2, annotator_dim=40)
    rng = np.random.default_rng(n)
    prop = rng.uniform(0.1, 1.0, size=(4, 4))
    adj = (prop + prop.T) / 4
    bundle = build_bundle(dims, adj, rng)
    for store in bundle.stores().values():
        randomize(store, rng, scale=0.3)
    x, e = rng.normal(size=(n, 2)), rng.normal(size=(n, 40))
    zhat = dc.softmax(dc.Tensor(rng.normal(size=(n, 4)))).data
    eps = rng.normal(size=(n, 8))
    y = rng.integers(0, 4, size=n)
    forwards = {
        "classifier": lambda s: bundle.classifier.probs(x[s]).data,
        "generator": lambda s: bundle.generator.distribution(
            x[s], e[s], zhat[s], eps[s]).data,
        "discriminator": lambda s: bundle.discriminator.score(
            *encoding(bundle.discriminator, x[s], e[s], y[s], adj)).data,
        "aux": lambda s: bundle.aux.log_posterior(
            *encoding(bundle.discriminator, x[s], e[s], y[s], adj)).data,
    }
    for name, forward in forwards.items():
        with dc.no_grad():
            whole = forward(slice(None))
        assert tr._forward_in_blocks(n, forward).tobytes() == whole.tobytes(), name


def _pair_instances(pairs, distinct, rng):
    """``pairs`` instance ids drawn from ``distinct`` ids of 20000, each id at
    least once, in a shuffled order."""
    ids = rng.choice(20000, size=distinct, replace=False)
    inst = np.concatenate([ids, rng.choice(ids, size=pairs - distinct)])
    return rng.permutation(inst)


@pytest.mark.parametrize("pairs", [1, 61, 1952, 1953, 4095, 4096, 8191, 8192,
                                   10239, 12289, 20000])
@pytest.mark.parametrize("distinct", [1, 3, "all"])
def test_instance_probs_equal_the_per_pair_pass(pairs, distinct, monkeypatch):
    monkeypatch.setattr(tr, "_BLOCK_THREADS", 2)
    # the classifier of the densify benchmark: 4 classes, 2-D features
    rng = np.random.default_rng(pairs)
    clf = Classifier(NetDims(num_classes=4, feature_dim=2, annotator_dim=40), rng)
    randomize(clf.store, rng, scale=0.3)
    ds = SimpleNamespace(features=rng.normal(size=(20000, 2)))
    inst = _pair_instances(pairs, pairs if distinct == "all" else min(pairs, distinct), rng)
    per_pair = tr._forward_in_blocks(pairs, lambda s: clf.probs(ds.features[inst[s]]).data)
    probs, row_of = tr._instance_probs(clf, ds, inst, pairs)
    assert probs[row_of[inst]].tobytes() == per_pair.tobytes()


@pytest.mark.parametrize("distinct", [1, 5, 700])
def test_distinct_equals_unique(distinct):
    # np.unique's values and (int32) inverse, from a presence map without a sort
    rng = np.random.default_rng(distinct)
    inst = rng.choice(1000, size=distinct, replace=False)[rng.integers(0, distinct, size=9000)]
    uniq, row_of = tr._distinct(inst, 1000)
    values, inverse = np.unique(inst, return_inverse=True)
    assert uniq.tobytes() == values.tobytes()
    assert row_of.dtype == np.int32 and len(row_of) == 1000  # as the logged batch's row map
    assert row_of[inst].tobytes() == inverse.astype(np.int32).tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_in_flight_feeds_each_block_in_order_on_the_calling_thread(threads, monkeypatch):
    monkeypatch.setattr(tr, "_BLOCK_THREADS", threads)
    blocks = tr._row_blocks(20011)
    fed, ran = [], []

    def feed(rows):
        fed.append((rows.start, threading.get_ident()))
        return (rows.start, len(fed))

    def run(rows, start, nth):
        ran.append(threading.get_ident())
        return rows.start, start, nth

    got = list(tr._in_flight(run, blocks, feed))
    assert got == [(b.start, b.start, k + 1) for k, b in enumerate(blocks)]
    assert fed == [(b.start, threading.get_ident()) for b in blocks]
    assert len(set(ran)) == threads


def test_no_grad_pass_on_the_pool_builds_no_graph_in_the_worker(monkeypatch):
    monkeypatch.setattr(tr, "_BLOCK_THREADS", 2)
    w = dc.Tensor(np.ones((3, 2)), requires_grad=True)
    x = np.random.default_rng(0).normal(size=(10239, 3))
    seen = []

    def forward(rows):
        out = dc.matmul(dc.Tensor(x[rows]), w)
        seen.append((threading.get_ident(), out.parents, out._backward))
        return out.data

    got = tr._forward_in_blocks(len(x), forward)
    assert got.tobytes() == (x @ w.data).tobytes()
    assert len(seen) == 4
    assert {ident for ident, _, _ in seen} - {threading.get_ident()}, "no worker ran"
    assert all(parents == () and back is None for _, parents, back in seen)
    assert dc._grad_enabled
    # the pass's worker thread does not outlive it
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


def test_crm_step_frees_its_graph_before_the_next_forward(monkeypatch):
    # a tensor owns its array, so a dead weak reference to an objective's
    # array means the objective, and the graph it holds, is gone
    objectives, freed_at_forward = [], []
    crm_objective = tr.crm_objective

    def recording_objective(*args):
        obj = crm_objective(*args)
        objectives.append(weakref.ref(obj.data))
        return obj

    def checking(forward):
        def wrapped(self, *args, **kwargs):
            if dc._grad_enabled:  # the CRM steps are the graph-mode callers
                freed_at_forward.append(all(ref() is None for ref in objectives))
            return forward(self, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(tr, "crm_objective", recording_objective)
    monkeypatch.setattr(Classifier, "probs", checking(Classifier.probs))
    monkeypatch.setattr(Generator, "distribution", checking(Generator.distribution))
    ds = tiny_dataset()
    for two_step in (True, False):
        train_crowding(ds, tiny_config(inner_steps=3, two_step=two_step, epochs=1))
    assert len(objectives) >= 9 and len(freed_at_forward) >= len(objectives)
    assert all(freed_at_forward)


class _RecordingAdam(dc.Adam):
    """Adam that keeps the last gradient dict it stepped on."""

    def step(self, grads):
        self.grads = grads
        super().step(grads)


def _disc_aux_step_on(gen_rows, num_classes=4, embed_dim=32, auth_rows=50, scale=0.5,
                      record=False):
    """One ``_disc_aux_step`` of fresh D/Q nets, randomized at ``scale``, over
    ``auth_rows`` authentic and ``gen_rows`` generated pairs of a stand-in
    dataset of 500 instances and 30 annotators, as a closure returning the
    loss, the clamp count and every D/Q parameter's value and gradient bytes
    (with ``record``, the gradient dict itself in their place)."""
    c = num_classes
    dims = NetDims(num_classes=c, feature_dim=2, annotator_dim=6, embed_dim=embed_dim)
    prop = np.random.default_rng(0).uniform(0.1, 1.0, size=(c, c))
    adj = (prop + prop.T) / c
    rng = np.random.default_rng(1)
    ds = SimpleNamespace(features=rng.normal(size=(500, 2)),
                         annotator_features=rng.normal(size=(30, 6)))
    auth, gen = ((rng.integers(0, 500, rows), rng.integers(0, 30, rows), rng.integers(0, c, rows))
                 for rows in (auth_rows, gen_rows))
    codes = rng.integers(0, c, size=gen_rows)

    def step():
        bundle = build_bundle(dims, adj, np.random.default_rng(2))
        for store in bundle.stores().values():
            randomize(store, np.random.default_rng(3), scale=scale)
        disc, aux = bundle.discriminator, bundle.aux
        opt = _RecordingAdam(dc.ParamStore.union(disc.store, aux.store), lr=1e-3)
        loss, clamped = tr._disc_aux_step(opt, disc, aux, adj, ds, auth, gen, codes, "test", 0)
        if record:
            return loss, clamped, {name: opt.grads[t] for name, t in opt.store.items()}
        return loss, clamped, store_grads(opt.grads, disc.store, aux.store)

    return step


@pytest.mark.parametrize("scale, nll", [(0.5, "node"), (3.0, "node"), (0.5, "chain")])
def test_disc_aux_step_equals_one_graph_over_both_sides(scale, nll, monkeypatch):
    # one block a side: the loss, the clamp count, every gradient and every
    # stepped parameter equal one graph's over both sides, built from D's
    # loss as its op chain (and, in the "chain" case, Q's cross-entropy as
    # its op chain too), whose gradients the step's seeds replace; at scale 3
    # most scores saturate to a clamp bound on both sides, where the gradient
    # is cut
    step = _disc_aux_step_on(70, scale=scale)
    blocked = step()
    assert (blocked[1] > 60) == (scale > 1)
    monkeypatch.setattr(tr, "_disc_aux_step", single_graph_disc_aux_step)
    if nll == "chain":
        monkeypatch.setattr(dc, "nll", chain_nll)
    assert blocked == step()


@pytest.mark.parametrize("threads", [1, 2])
def test_disc_aux_step_row_blocks_match_one_graph(threads, monkeypatch):
    # 9000 and 8400 rows: four blocks a side, which move only the order of
    # the sums over rows; the loss and the clamp count come from the scores
    monkeypatch.setattr(tr, "_BLOCK_THREADS", threads)
    step = _disc_aux_step_on(8400, auth_rows=9000, record=True)
    blocked = step()
    monkeypatch.setattr(tr, "_disc_aux_step", single_graph_disc_aux_step)
    reference = step()
    assert blocked[:2] == reference[:2]
    for name, grad in reference[2].items():
        error = np.abs(blocked[2][name] - grad).max()
        assert error <= 1e-12 * np.abs(grad).max(), (name, error)


def test_disc_aux_step_is_byte_identical_to_three_op_layers(monkeypatch):
    # D scores the authentic and the generated rows and Q reads the generated
    # ones, so the encoders and M each take three gradient contributions: this
    # pins the order in which shared leaves accumulate them
    step = _disc_aux_step_on(70)
    fused = step()
    monkeypatch.setattr(dc, "mlp", chain_mlp)
    assert step() == fused


def test_disc_aux_step_grad_check_covers_the_shared_encoders():
    # the gradients the step hands to its optimizer against central
    # differences of the loss it returns: D's two scores and Q's cross-entropy
    # all reach the encoders, so their gradients sum three paths
    dims = NetDims(num_classes=3, feature_dim=2, annotator_dim=4, embed_dim=3,
                   class_embed_dim=2, aux_hidden1=4, aux_hidden2=3)
    rng = np.random.default_rng(5)
    prop = rng.uniform(0.1, 1.0, size=(3, 3))
    adj = (prop + prop.T) / 3
    bundle = build_bundle(dims, adj, rng)
    for store in bundle.stores().values():
        randomize(store, rng, scale=0.5)
    ds = SimpleNamespace(features=rng.normal(size=(6, 2)),
                         annotator_features=rng.normal(size=(3, 4)))
    # instances and annotators repeat within and across the sides
    auth, gen = ((rng.integers(0, 6, rows), rng.integers(0, 3, rows), rng.integers(0, 3, rows))
                 for rows in (5, 4))
    codes = rng.integers(0, 3, size=4)
    handed = []
    no_step = SimpleNamespace(step=handed.append)  # keep the gradients, step nothing

    def loss():
        return tr._disc_aux_step(no_step, bundle.discriminator, bundle.aux, adj, ds, auth,
                                 gen, codes, "test", 0)[0]

    loss()
    grads = handed.pop()
    disc = bundle.discriminator.store
    assert all(disc[name] in grads for name in ("Wu", "bu", "Wv", "bv", "M", "Wmix"))
    params = dc.ParamStore.union(disc, bundle.aux.store)
    assert difference_check(loss, grads, params) < 1e-4


def _record_judges(monkeypatch) -> list:
    """Patch D's ``encode``, ``decoded_matrices`` and ``score`` and Q's ``logits``
    to record, per call, the name and the rows of the encoding it made or read."""
    calls, rows_of = [], {}
    encode, decode = Discriminator.encode, Discriminator.decoded_matrices

    def recording_encode(self, x, e):
        u, v = encode(self, x, e)
        rows_of[id(u)] = len(x)
        calls.append(("encode", len(x)))
        return u, v

    def recording_decode(self, adj):
        calls.append(("decode", 0))
        return decode(self, adj)

    def reading(name, method):
        def wrapped(self, u, *rest):
            calls.append((name, rows_of[id(u)]))
            return method(self, u, *rest)
        return wrapped

    monkeypatch.setattr(Discriminator, "encode", recording_encode)
    monkeypatch.setattr(Discriminator, "decoded_matrices", recording_decode)
    monkeypatch.setattr(Discriminator, "score", reading("score", Discriminator.score))
    monkeypatch.setattr(AuxNet, "logits", reading("logits", AuxNet.logits))
    return calls


def test_disc_aux_step_decodes_once_and_encodes_each_row_batch_once(monkeypatch):
    # D scores both encodings, and Q reads the generated rows' one
    calls = _record_judges(monkeypatch)
    _disc_aux_step_on(70)()
    assert sorted(calls) == [("decode", 0), ("encode", 50), ("encode", 70),
                             ("logits", 70), ("score", 50), ("score", 70)]


def test_entropy_split_runs_no_classifier_pass_of_its_own(monkeypatch):
    # in one epoch the classifier runs for step 1's table (one block), for the
    # classifier CRM step (train mode) and for the accuracies: each candidate's
    # validation accuracy, then train and test; step 4's split and the
    # generator step's codes read step 1's table
    calls, in_epoch = [], []
    probs, run_epoch = Classifier.probs, tr.run_epoch

    def counting(self, x, rng=None):
        if in_epoch:
            calls.append(rng is not None)  # train mode
        return probs(self, x, rng)

    def epoch(*args):
        in_epoch.append(True)
        try:
            return run_epoch(*args)
        finally:
            in_epoch.clear()

    monkeypatch.setattr(Classifier, "probs", counting)
    monkeypatch.setattr(tr, "run_epoch", epoch)
    cfg = tiny_config(epochs=1, pretrain_epochs=20, entropy_threshold=0.8)
    record = train_crowding(tiny_dataset(), cfg).history[0]
    assert record["num_low_pairs"] and record["num_high_pairs"]  # both CRM steps run
    assert calls.count(True) == len(tr.MU_GRID) * cfg.inner_steps
    assert calls.count(False) == 1 + len(tr.MU_GRID) + 2


def test_epoch_scores_the_logged_grid_in_one_pass(monkeypatch):
    calls = _record_judges(monkeypatch)
    ds = tiny_dataset()
    result = train_crowding(ds, tiny_config(epochs=1))
    logged = result.history[0]["num_logged"]
    assert logged < 8192  # one pair block
    assert sorted(c for c in calls if c[1] == logged) == \
        [("encode", logged), ("logits", logged), ("score", logged)]
    # D scores the pass's encoding, then Q reads it; the metrics read the
    # selected rows' scores from that pass, and score only the authentic rows
    # again
    authentic = len(tr._train_annotations(ds))
    after_grid = calls.index(("score", logged)) + 1
    assert calls[after_grid:] == [("logits", logged), ("encode", authentic),
                                  ("score", authentic)]


def test_disc_aux_step_peak_memory_per_generated_row():
    # Q embeds the (C, m*m) class table once and gathers one small embedding
    # per row, and rowwise_bilinear's backward is one BLAS product per class,
    # so no (rows, m*m) copy of the table and no (rows, m, m) intermediate is
    # made. What grows with the rows is the graph's own few KB a row: about
    # 0.38 copies a row at m = 48 with two classes (0.76 with a (rows, m, m)
    # intermediate of one class's rows).
    m = 48

    def peak(gen_rows):
        step = _disc_aux_step_on(gen_rows, num_classes=2, embed_dim=m)
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1100), peak(2200)
    per_row = (large - small) / 1100
    assert per_row < 0.6 * 8 * m * m, per_row


@pytest.mark.parametrize("threads", [1, 2])
def test_disc_aux_step_peak_memory_does_not_grow_with_rows(threads, monkeypatch):
    # each side runs in row blocks, one block's graph per thread at a time,
    # so four times the rows keep the peak (one graph over every row: 4.0x)
    monkeypatch.setattr(tr, "_BLOCK_THREADS", threads)

    def peak(rows):
        step = _disc_aux_step_on(rows, auth_rows=rows)
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(9000), peak(36000)
    assert large <= 1.5 * small, (small, large)


def _assert_same_training(a, b):
    assert repr(a.history) == repr(b.history)
    assert a.test_acc == b.test_acc
    assert _fingerprints(a) == _fingerprints(b)


@pytest.mark.parametrize("two_step", [True, False])
def test_training_is_byte_identical_to_three_op_layers(two_step, monkeypatch):
    ds, cfg = tiny_dataset(), tiny_config(two_step=two_step)
    fused = train_crowding(ds, cfg)
    node = dc.mlp
    # the frozen generator stays one node: its code gradient, through its view
    # of W1's code rows, is the chain's at the CRM step's block heights only
    # (test_nets), and these blocks are shorter
    monkeypatch.setattr(dc, "mlp", lambda parts, layers, dropout=None: (
        chain_mlp if layers[0][0].requires_grad else node)(parts, layers, dropout))
    _assert_same_training(train_crowding(ds, cfg), fused)


# ---------------------------------------------------------------------------
# the CRM step over pair blocks

_CRM_MODES = {"generator": ("gen",), "classifier": ("clf",), "joint": ("gen", "clf")}


def _crm_setup(pairs_count, seed):
    """A randomized bundle, Adam state and logged pairs for one ``_crm_update``
    at the pair-grid benchmark's widths; ``ds`` is a stand-in with the two
    feature tables the step reads."""
    dims = NetDims(num_classes=4, feature_dim=2, annotator_dim=40)
    rng = np.random.default_rng(seed)
    prop = rng.uniform(0.1, 1.0, size=(4, 4))
    adj = (prop + prop.T) / 4
    bundle = build_bundle(dims, adj, rng)
    for store in bundle.stores().values():
        randomize(store, rng, scale=0.3)
    ds = SimpleNamespace(features=rng.normal(size=(700, 2)),
                         annotator_features=rng.normal(size=(30, 40)))
    g0 = rng.uniform(0.05, 1.0, size=pairs_count)
    inst = rng.integers(0, 700, size=pairs_count)
    annot, labels = rng.integers(0, 30, size=pairs_count), rng.integers(0, 4, size=pairs_count)
    eps = rng.normal(size=(pairs_count, 8))
    deltas = rng.normal(size=pairs_count)
    with dc.no_grad():
        codes = bundle.classifier.probs(ds.features).data
    # the epoch drops the code draws and the entropies before its CRM steps;
    # the table holds every instance, so its row map is the identity
    pairs = LoggedBatch(instances=inst, annotators=annot, labels=labels, g0=g0, eps=eps,
                        zhat_draws=None, entropies=None, codes=codes,
                        row_of=np.arange(700, dtype=np.int32))
    state = tr.TrainState(bundle=bundle, optimizers={
        "clf": dc.Adam(bundle.classifier.store, lr=1e-3),
        "gen": dc.Adam(bundle.generator.store, lr=1e-3)})
    return state, ds, pairs, deltas


def _one_pass_crm_update(state, ds, cfg, pairs, idx, deltas, mu, trains, rng):
    """``_crm_update`` as one graph over every pair of ``idx``, the reference
    for the blocks."""
    clf, gen = state.bundle.classifier, state.bundle.generator
    gx, ge = ds.features[pairs.instances[idx]], ds.annotator_features[pairs.annotators[idx]]
    if "clf" in trains:
        uniq, inverse = np.unique(pairs.instances[idx], return_inverse=True)
    for _ in range(cfg.inner_steps):
        zhat = pairs.codes[pairs.row_of[pairs.instances[idx]]]
        if "clf" in trains:
            zhat = dc.gather_rows(clf.probs(ds.features[uniq], rng),
                                  inverse)
        dist = gen.distribution(gx, ge, zhat, pairs.eps[idx])
        obj = tr.crm_objective(pairs.g0[idx], dc.pick(dist, pairs.labels[idx]), deltas[idx], mu,
                               len(idx))
        grads = dc.backward(obj)
        for name in ("gen", "clf"):
            if name in trains:
                state.optimizers[name].step(grads)


class _RecordingOptimizer:
    """Stands in for Adam: keeps a copy of every gradient it is asked to apply."""

    def __init__(self, store):
        self.store, self.grads = store, []

    def step(self, grads):
        self.grads.append({k: grads[t].copy() for k, t in self.store.items()})


def _run_crm(update, pairs_count, mode, seed=0, inner_steps=2, record=False):
    state, ds, pairs, deltas = _crm_setup(pairs_count, seed)
    if record:
        state.optimizers = {"gen": _RecordingOptimizer(state.bundle.generator.store),
                            "clf": _RecordingOptimizer(state.bundle.classifier.store)}
    trains = _CRM_MODES[mode]
    update(state, ds, tiny_config(inner_steps=inner_steps), pairs, np.arange(pairs_count),
           deltas, 0.1, trains, np.random.default_rng(seed + 1))
    return state


@pytest.mark.parametrize("mode", sorted(_CRM_MODES))
@pytest.mark.parametrize("pairs_count", [1, 3000, 8191])
def test_crm_update_below_8192_pairs_equals_one_pass(mode, pairs_count):
    blocked = _run_crm(tr._crm_update, pairs_count, mode, seed=pairs_count)
    reference = _run_crm(_one_pass_crm_update, pairs_count, mode, seed=pairs_count)
    for name in ("generator", "classifier"):
        assert blocked.bundle.stores()[name].fingerprint() == \
            reference.bundle.stores()[name].fingerprint(), (mode, name)


@pytest.mark.parametrize("mode", sorted(_CRM_MODES))
@pytest.mark.parametrize("pairs_count", [8192, 20011])
def test_crm_update_accumulated_gradients_match_one_pass(mode, pairs_count):
    # the blocks sum the weight and bias gradients over pairs in another order;
    # the error is relative to each array's norm, because an entry whose terms
    # nearly cancel can differ by more than 1e-12 of its own size
    blocked = _run_crm(tr._crm_update, pairs_count, mode, record=True)
    reference = _run_crm(_one_pass_crm_update, pairs_count, mode, record=True)
    for name in _CRM_MODES[mode]:
        got, expected = blocked.optimizers[name].grads, reference.optimizers[name].grads
        assert len(got) == len(expected) == 2
        for step_got, step_expected in zip(got, expected):
            for key, grad in step_expected.items():
                error = np.linalg.norm(step_got[key] - grad) / np.linalg.norm(grad)
                assert error <= 1e-12, (mode, name, key, error)


@pytest.mark.parametrize("mode", sorted(_CRM_MODES))
def test_crm_update_gradients_are_equal_on_one_and_two_threads(mode, monkeypatch):
    threads = []
    crm_objective = tr.crm_objective

    def recording_objective(*args):
        threads.append(threading.get_ident())
        return crm_objective(*args)

    monkeypatch.setattr(tr, "crm_objective", recording_objective)
    runs = {}
    interval = sys.getswitchinterval()
    for count in (1, 2):
        monkeypatch.setattr(tr, "_BLOCK_THREADS", count)
        threads.clear()
        sys.setswitchinterval(1e-5)  # the two threads trade the interpreter often
        try:
            runs[count] = _run_crm(tr._crm_update, 20011, mode, record=True)
        finally:
            sys.setswitchinterval(interval)
        # 9 blocks a step, 2 steps; on two threads the calling thread runs the
        # 5 even blocks (each step's pool has its own worker, whose id may differ)
        on_caller = threads.count(threading.get_ident())
        assert len(threads) == 2 * 9 and on_caller == (2 * 9 if count == 1 else 2 * 5)
    for name in _CRM_MODES[mode]:
        one, two = runs[1].optimizers[name].grads, runs[2].optimizers[name].grads
        assert len(one) == len(two) == 2
        for step_one, step_two in zip(one, two):
            assert {k: g.tobytes() for k, g in step_one.items()} == \
                {k: g.tobytes() for k, g in step_two.items()}, (mode, name)


@pytest.mark.parametrize("mode", sorted(_CRM_MODES))
def test_crm_update_over_an_index_equals_the_copied_pairs(mode):
    # the epoch hands the CRM steps the logged batch and the index of the
    # pairs to train on; every block gathers its rows through that index
    runs = []
    for copied in (False, True):
        state, ds, pairs, deltas = _crm_setup(9000, 0)
        idx = np.sort(np.random.default_rng(2).choice(9000, size=8500, replace=False))
        if copied:
            columns = ("instances", "annotators", "labels", "g0", "eps")
            pairs = dataclasses.replace(pairs, **{name: getattr(pairs, name)[idx]
                                                  for name in columns})
            deltas = deltas[idx]
            idx = np.arange(len(idx))
        tr._crm_update(state, ds, tiny_config(), pairs, idx, deltas, 0.1, _CRM_MODES[mode],
                       np.random.default_rng(1))
        runs.append({k: s.fingerprint() for k, s in state.bundle.stores().items()})
    assert runs[0] == runs[1]


def test_epoch_drops_the_code_draws_and_entropies_before_the_crm_steps(monkeypatch):
    seen, crm_update = [], tr._crm_update

    def recording(state, ds, cfg, batch, *rest):
        seen.append((batch.zhat_draws, batch.entropies))
        return crm_update(state, ds, cfg, batch, *rest)

    monkeypatch.setattr(tr, "_crm_update", recording)
    train_crowding(tiny_dataset(), tiny_config(epochs=1))
    assert seen and all(draws is None and entropies is None for draws, entropies in seen)


def test_epoch_holds_no_features_of_the_judged_pairs(monkeypatch):
    # the D/Q step and step 7 gather their pairs' features block by block
    # from index columns, so 64 more annotator-feature columns grow what is
    # live on entry to the CRM steps by the epoch's snapshot of the wider
    # generator (1,536 bytes a column), less than the dataset's own (400, 64)
    # block (3,200 bytes a column); holding the authentic and selected rows'
    # features through the CRM steps adds 16 bytes a column per authentic row
    # (3,840 bytes a column at 240 rows)
    live, run_epoch, crm_update = [], tr.run_epoch, tr._crm_update

    def tracing(state, ds, cfg):
        if state.epoch == 1:  # every optimizer has stepped
            tracemalloc.start()
        return run_epoch(state, ds, cfg)

    def recording(*args):
        if tracemalloc.is_tracing():
            live.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.stop()
        return crm_update(*args)

    monkeypatch.setattr(tr, "run_epoch", tracing)
    monkeypatch.setattr(tr, "_crm_update", recording)
    base = synthesize_dataset(SynthConfig(num_classes=3, num_instances=60, num_annotators=400,
                                          feature_dim=2, avg_annotations=4.0), seed=0)
    rng = np.random.default_rng(0)
    narrow = dataclasses.replace(base, annotator_features=rng.normal(size=(400, 2)))
    wide = dataclasses.replace(base, annotator_features=np.hstack(
        [narrow.annotator_features, rng.normal(size=(400, 64))]))
    assert len(tr._train_annotations(base)) >= 200
    try:
        for ds in (narrow, wide):
            train_crowding(ds, tiny_config(epochs=2, inner_steps=1, max_grid_pairs=4000))
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    assert len(live) == 2
    grown = live[1] - live[0]
    assert grown <= wide.annotator_features.nbytes - narrow.annotator_features.nbytes, grown


@pytest.mark.parametrize("mode", sorted(_CRM_MODES))
def test_crm_update_diverges_before_any_step(mode):
    state, ds, pairs, deltas = _crm_setup(9000, 0)
    deltas[8999] = np.nan  # in the last of four blocks
    before = {k: s.fingerprint() for k, s in state.bundle.stores().items()}
    with pytest.raises(DivergenceError, match=f"non-finite {mode} objective at epoch 0"):
        tr._crm_update(state, ds, tiny_config(), pairs, np.arange(9000), deltas, 0.1,
                       _CRM_MODES[mode], np.random.default_rng(1))
    assert {k: s.fingerprint() for k, s in state.bundle.stores().items()} == before
    for store in (state.bundle.generator.store, state.bundle.classifier.store):
        assert all(t.requires_grad for _, t in store.items())


@pytest.mark.parametrize("mode", sorted(_CRM_MODES))
def test_crm_update_steps_on_no_leaf_of_a_frozen_store(mode):
    # the stores a step holds fixed are in no graph it builds, so every
    # gradient dict an optimizer steps on holds each trained store's leaves
    # and no frozen store's (four blocks a step)
    state, ds, pairs, deltas = _crm_setup(9000, 0)
    trains = _CRM_MODES[mode]
    stores = {"gen": state.bundle.generator.store, "clf": state.bundle.classifier.store}
    stepped = []
    for name in stores:
        state.optimizers[name] = SimpleNamespace(
            step=lambda grads, name=name: stepped.append((name, set(grads))))
    tr._crm_update(state, ds, tiny_config(), pairs, np.arange(9000), deltas, 0.1, trains,
                   np.random.default_rng(1))
    assert [name for name, _ in stepped] == [name for name in ("gen", "clf")
                                             if name in trains] * 2
    trained = {t for name in trains for _, t in stores[name].items()}
    frozen = {t for name in stores if name not in trains for _, t in stores[name].items()}
    assert all(keys == trained and not keys & frozen for _, keys in stepped)


@pytest.mark.parametrize("mode", sorted(_CRM_MODES))
def test_crm_update_peak_memory_does_not_grow_with_pairs(mode):
    def peak(pairs_count):
        state, ds, pairs, deltas = _crm_setup(pairs_count, 0)
        idx = np.arange(pairs_count)
        tracemalloc.start()
        try:
            tr._crm_update(state, ds, tiny_config(inner_steps=1), pairs, idx, deltas, 0.1,
                           _CRM_MODES[mode], np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(12000), peak(48000)
    assert large <= 1.5 * small, (small, large)


def _crm_block_peak_per_pair(mode, pairs_count):
    """Traced bytes a pair that one ``_crm_update`` block of ``mode`` adds
    from ``pairs_count`` pairs to twice as many (one block, one thread)."""
    def peak(count):
        state, ds, pairs, deltas = _crm_setup(count, 0)
        tracemalloc.start()
        try:
            tr._crm_update(state, ds, tiny_config(inner_steps=1), pairs, np.arange(count),
                           deltas, 0.1, _CRM_MODES[mode], np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return (peak(2 * pairs_count) - peak(pairs_count)) / pairs_count


def test_classifier_crm_update_keeps_no_generator_activation():
    # the frozen generator is one node that keeps its two ReLU masks (192
    # bytes a pair) and no activation, and hands back the code columns alone;
    # its two hidden activations alone are 1,536 bytes a pair. A graph node
    # per layer read 5,297 bytes a pair; the bound is what the frozen node
    # read before it became an mlp node, 2,049.6, set by the forward pass
    per_pair = _crm_block_peak_per_pair("classifier", 4000)
    assert per_pair <= 2050, per_pair


def test_generator_crm_block_frees_each_activation_once_read():
    # a 2,048-pair block: the generator's mlp node keeps its three layer
    # inputs (1,968 bytes a pair) and frees each once its backward has read
    # it; a graph node per layer kept all of them through the whole backward
    # and read 4,376 bytes a pair, this node 2,632
    per_pair = _crm_block_peak_per_pair("generator", 2048)
    assert per_pair <= 2900, per_pair


# ---------------------------------------------------------------------------
# freezing and the two-step schedule


def _fingerprints(result):
    b = result.bundle
    return {name: store.fingerprint() for name, store in b.stores().items()}


def test_high_threshold_freezes_classifier():
    # threshold ~1 with a well-pretrained classifier: every instance is
    # low-entropy, so only the generator and discriminator move; the
    # classifier must be byte-identical afterwards.
    ds = tiny_dataset()
    cfg = tiny_config(entropy_threshold=0.999, epochs=1, pretrain_epochs=40)
    res = train_crowding(ds, cfg)
    rec = res.history[0]
    assert rec["num_high_pairs"] == 0
    assert "classifier update skipped" in rec["warnings"]

    # replay pretraining alone to get the pre-epoch classifier state
    rng = np.random.default_rng(cfg.seed)
    clf, _ = pretrain_dl_cl(ds, cfg, rng=rng)
    pretrain_gen_disc(ds, clf, cfg, rng, build_cooccurrence(ds))
    assert res.bundle.classifier.store.fingerprint() == clf.store.fingerprint()


def test_low_threshold_freezes_generator():
    ds = tiny_dataset()
    cfg = tiny_config(entropy_threshold=0.001, epochs=1)
    res = train_crowding(ds, cfg)
    rec = res.history[0]
    assert rec["num_low_pairs"] == 0
    assert "generator update skipped" in rec["warnings"]

    rng = np.random.default_rng(cfg.seed)
    clf, _ = pretrain_dl_cl(ds, cfg, rng=rng)
    gen, _, _ = pretrain_gen_disc(ds, clf, cfg, rng, build_cooccurrence(ds))
    assert res.bundle.generator.store.fingerprint() == gen.store.fingerprint()


def test_epoch_moves_discriminator_and_choosing_side():
    ds = tiny_dataset()
    cfg = tiny_config(epochs=1)
    res = train_crowding(ds, cfg)

    rng = np.random.default_rng(cfg.seed)
    clf, _ = pretrain_dl_cl(ds, cfg, rng=rng)
    gen, disc, aux = pretrain_gen_disc(ds, clf, cfg, rng, build_cooccurrence(ds))
    assert res.bundle.discriminator.store.fingerprint() != disc.store.fingerprint()
    rec = res.history[0]
    moved_gen = res.bundle.generator.store.fingerprint() != gen.store.fingerprint()
    moved_clf = res.bundle.classifier.store.fingerprint() != clf.store.fingerprint()
    assert moved_gen == (rec["num_low_pairs"] > 0)
    # classifier may legitimately end at its pre-epoch state if the multiplier
    # search picked a candidate whose update was a no-op improvement; it must
    # move when high-entropy pairs exist and the chosen candidate stepped.
    if rec["num_high_pairs"] == 0:
        assert not moved_clf


def _record_epochs(monkeypatch) -> list:
    """Each ``run_epoch`` call's store fingerprints before and after it."""
    epochs = []
    run_epoch = tr.run_epoch

    def recording(state, ds, cfg):
        before = {name: s.fingerprint() for name, s in state.bundle.stores().items()}
        record = run_epoch(state, ds, cfg)
        epochs.append((before, {name: s.fingerprint()
                                for name, s in state.bundle.stores().items()}))
        return record

    monkeypatch.setattr(tr, "run_epoch", recording)
    return epochs


def test_one_step_mode_moves_both_networks(monkeypatch):
    # read the networks right after the epoch: the best-epoch selection may
    # return the pretrained pair in place of what the epoch trained
    epochs = _record_epochs(monkeypatch)
    res = train_crowding(tiny_dataset(), tiny_config(epochs=1, two_step=False))
    (before, after), = epochs
    assert after["generator"] != before["generator"]
    assert after["classifier"] != before["classifier"]
    assert res.history[0]["mu_coeff"] in tr.MU_GRID
    assert res.history[0]["num_logged"] == res.history[0]["num_low_pairs"] + \
        res.history[0]["num_high_pairs"]


@pytest.mark.parametrize("seed, best_epoch", [(1, -1), (3, 0)])
def test_run_returns_the_generator_of_the_selected_epoch(monkeypatch, seed, best_epoch):
    # classifier and generator are selected together: the returned generator
    # is the one the selected classifier was trained with, the pretrained
    # generator when the pretrained classifier wins
    epochs = _record_epochs(monkeypatch)
    res = train_crowding(tiny_dataset(n=150, c=4),
                         tiny_config(seed=seed, epochs=3, pretrain_epochs=10,
                                     entropy_threshold=0.9))
    assert res.best_epoch == best_epoch
    selected = epochs[0][0] if best_epoch < 0 else epochs[best_epoch][1]
    assert selected["generator"] != epochs[-1][1]["generator"]  # the epochs moved it
    for name in ("generator", "classifier"):
        assert res.bundle.stores()[name].fingerprint() == selected[name]


def test_mu_grid_reports_chosen_coefficient():
    ds = tiny_dataset()
    cfg = tiny_config(epochs=1)
    res = train_crowding(ds, cfg)
    assert res.history[0]["mu_coeff"] in (0.0, 0.5, 1.0)


def test_one_step_mode_records_the_mu_it_applied(monkeypatch):
    # the joint update applies coefficient x mean delta over all pairs; a
    # record built from the low- and high-entropy halves would differ
    monkeypatch.setattr(tr, "MU_GRID", (0.5,))
    applied = []
    crm_update = tr._crm_update

    def recording(state, ds, cfg, batch, idx, deltas, mu, trains, rng):
        applied.append((trains, mu))
        return crm_update(state, ds, cfg, batch, idx, deltas, mu, trains, rng)

    monkeypatch.setattr(tr, "_crm_update", recording)
    res = train_crowding(tiny_dataset(), tiny_config(epochs=2, two_step=False))
    assert [trains for trains, _ in applied] == [("gen", "clf")] * 2
    assert all(mu != 0.0 for _, mu in applied)
    assert [(rec["mu_generator"], rec["mu_classifier"]) for rec in res.history] == \
        [(mu, mu) for _, mu in applied]


# ---------------------------------------------------------------------------
# determinism and divergence


def test_training_is_deterministic():
    ds = tiny_dataset()
    a = train_crowding(ds, tiny_config())
    b = train_crowding(ds, tiny_config())
    assert _fingerprints(a) == _fingerprints(b)
    assert a.best_val_acc == b.best_val_acc and a.test_acc == b.test_acc
    for ra, rb in zip(a.history, b.history):
        assert ra == rb


def test_crowding_run_is_equal_on_one_and_two_threads(tmp_path, monkeypatch):
    ds = tiny_dataset(n=500, r=45, c=4)
    cfg = tiny_config(epochs=2, inner_steps=1, pretrain_epochs=2, gen_pretrain_epochs=1)
    assert len(ds.split_indices(TRAIN)) * ds.num_annotators >= 12000
    runs = {}
    for count in (1, 2):
        monkeypatch.setattr(tr, "_BLOCK_THREADS", count)
        runs[count] = train_crowding(ds, cfg)
        tr.save_result_checkpoint(tmp_path / f"{count}.bin", runs[count])
    _assert_same_training(runs[1], runs[2])
    assert (tmp_path / "1.bin").read_bytes() == (tmp_path / "2.bin").read_bytes()


def test_seed_changes_the_run():
    ds = tiny_dataset()
    a = train_crowding(ds, tiny_config(seed=3))
    b = train_crowding(ds, tiny_config(seed=4))
    assert _fingerprints(a) != _fingerprints(b)


def test_divergence_guard_raises():
    with pytest.raises(DivergenceError, match="epoch 7"):
        tr._check_finite(float("nan"), "unit loss", 7)
    with pytest.raises(DivergenceError):
        tr._check_finite(float("inf"), "unit loss", 0)
    tr._check_finite(0.0, "unit loss", 0)  # finite passes silently


# ---------------------------------------------------------------------------
# baselines


def test_crowd_layer_identity_equals_plain_cross_entropy():
    # with identity transforms, mapping the log-distribution and renormalizing
    # is the same objective as plain cross-entropy.
    ds = tiny_dataset()
    rng = np.random.default_rng(2)
    dims = NetDims(num_classes=ds.num_classes, feature_dim=ds.feature_dim,
                   annotator_dim=ds.annotator_dim)
    clf = Classifier(dims, rng)
    randomize(clf.store, rng, scale=0.5)
    ann = ds.annotations
    logits = clf.logits(ds.features[ann[:, 0]])
    eye = identity_transforms(ds.num_annotators, ds.num_classes)
    with_identity = crowd_layer_loss(logits, ann[:, 2], eye, ann[:, 1]).item()
    lp = dc.log_softmax(logits)
    plain = dc.neg(dc.t_mean(dc.pick(lp, ann[:, 2]))).item()
    assert crowd_layer_loss(logits, ann[:, 2]).item() == plain
    assert with_identity == pytest.approx(plain, abs=1e-12)


def test_majority_vote_baseline_learns_separable_data():
    # reliable annotators + separated classes: DL-MV should beat chance easily.
    cfg_d = SynthConfig(num_classes=3, num_instances=120, num_annotators=8,
                        feature_dim=2, avg_annotations=3.0,
                        reliability_low=0.9, reliability_high=0.99,
                        class_sep=6.0)
    ds = synthesize_dataset(cfg_d, seed=0)
    res = train_dl_mv(ds, tiny_config(pretrain_epochs=60))
    assert res.test_acc > 0.8


def test_dl_cl_trains_and_reports_splits():
    ds = tiny_dataset()
    res = train_dl_cl(ds, tiny_config())
    assert 0.0 <= res.test_acc <= 1.0 and 0.0 <= res.best_val_acc <= 1.0
    assert res.bundle is None
    assert len(res.history) == 3


def test_dispatcher_routes_all_methods():
    ds = tiny_dataset()
    cfg = tiny_config(epochs=1)
    for method, train in (("crowding", train_crowding), ("dl-cl", train_dl_cl),
                          ("dl-mv", train_dl_mv)):
        routed, direct = train_method(ds, cfg, method), train(ds, cfg)
        assert routed.history == direct.history and routed.test_acc == direct.test_acc


def test_zero_pretrain_epochs_returns_untrained_classifier():
    ds = tiny_dataset()
    cfg = tiny_config(pretrain_epochs=0)
    clf, history = pretrain_dl_cl(ds, cfg)
    assert history == []
    probs = clf.probs(ds.features[:5]).data
    assert np.allclose(probs, 1.0 / ds.num_classes)


def test_generator_pretraining_reduces_loss():
    ds = tiny_dataset(n=100)
    cfg = tiny_config(pretrain_epochs=10, gen_pretrain_epochs=12,
                      disc_pretrain_epochs=0)
    rng = np.random.default_rng(0)
    clf, _ = pretrain_dl_cl(ds, cfg, rng=rng)
    ann = tr._train_annotations(ds)

    def mean_nll(gen):
        # the generator's mean negative log-likelihood of the train annotations
        with dc.no_grad():
            zhat = clf.probs(ds.features[ann[:, 0]]).data
            eps = gen.draw_noise(np.random.default_rng(1), len(ann))
            log_dist = gen.log_distribution(ds.features[ann[:, 0]],
                                            ds.annotator_features[ann[:, 1]], zhat, eps).data
        return -log_dist[np.arange(len(ann)), ann[:, 2]].mean()

    # pretraining draws its generator first, so a copy of the stream rebuilds it
    untrained = Generator(tr._dims_for(ds, cfg), copy.deepcopy(rng))
    gen, _, _ = pretrain_gen_disc(ds, clf, cfg, rng, build_cooccurrence(ds))
    assert mean_nll(gen) < mean_nll(untrained)


# ---------------------------------------------------------------------------
# epoch records


def test_history_records_are_complete():
    ds = tiny_dataset()
    res = train_crowding(ds, tiny_config())
    needed = {"epoch", "train_acc", "val_acc", "test_acc", "value_term",
              "info_term", "combined", "disc_loss", "disc_auc", "clamp_count",
              "num_logged", "num_selected", "num_low_pairs", "num_high_pairs",
              "mu_coeff", "mu_generator", "mu_classifier", "warnings"}
    for i, rec in enumerate(res.history):
        assert needed <= set(rec)
        assert rec["epoch"] == i
        assert 0.0 <= rec["disc_auc"] <= 1.0
        assert rec["num_selected"] == len(tr._train_annotations(ds))
        assert rec["num_low_pairs"] + rec["num_high_pairs"] == rec["num_logged"]


def test_best_epoch_tracks_validation():
    ds = tiny_dataset()
    res = train_crowding(ds, tiny_config(epochs=3))
    accs = [rec["val_acc"] for rec in res.history]
    candidates = [res.best_val_acc] + accs
    assert res.best_val_acc == max(candidates)
    if res.best_epoch >= 0:
        assert accs[res.best_epoch] == res.best_val_acc


# ---------------------------------------------------------------------------
# augmentation export


def exported_rows(ds, bundle, seed, path):
    """Export to ``path`` and read it back as (instance, annotator, label,
    authentic) rows."""
    summary = export_augmented(ds, bundle, seed=seed, out_path=path)
    triplets, flags = read_augmented_file(path)
    assert (len(summary), summary.authentic) == (len(triplets), int(flags.sum()))
    return np.column_stack([triplets, flags.astype(np.int64)])


def test_export_covers_grid_and_preserves_authentic(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_config(epochs=1)
    res = train_crowding(ds, cfg)
    rows = exported_rows(ds, res.bundle, 5, tmp_path / "augmented.csv")
    train_idx = ds.split_indices(TRAIN)
    assert rows.shape == (len(train_idx) * ds.num_annotators, 4)
    assert set(np.unique(rows[:, 0]).tolist()) == set(train_idx.tolist())
    assert np.all((rows[:, 2] >= 0) & (rows[:, 2] < ds.num_classes))

    authentic = {(int(n), int(r)): int(y)
                 for n, r, y in tr._train_annotations(ds)}
    flagged = rows[rows[:, 3] == 1]
    assert len(flagged) == len(authentic)
    for n, r, y, _ in flagged.tolist():
        assert authentic[(n, r)] == y


def test_export_is_deterministic_and_round_trips(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_config(epochs=1)
    res = train_crowding(ds, cfg)
    rows = exported_rows(ds, res.bundle, 5, tmp_path / "a.csv")
    export_augmented(ds, res.bundle, seed=5, out_path=tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == \
        b"instance_id,annotator_id,label,authentic\n" + csv_writer_bytes(rows)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


def _labels_fed(ds, bundle, rows, seed, zero_annotator_features):
    """The generated labels of an export, recomputed by the bundle's generator
    weights with both input switches on, fed the annotator features given or
    zeroed."""
    missing = rows[:, 3] == 0
    inst, annot = rows[missing, 0], rows[missing, 1]
    e = ds.annotator_features[annot]
    if zero_annotator_features:
        e = np.zeros_like(e)
    both_on = dataclasses.replace(bundle.dims, gen_use_instance_features=True,
                                  gen_use_annotator_features=True)
    gen = Generator(both_on, np.random.default_rng(0))
    gen.store.load_state_dict(bundle.generator.store.state_dict())
    rng = np.random.default_rng(seed)
    with dc.no_grad():
        zhat = bundle.classifier.probs(ds.features[inst]).data
        eps = gen.draw_noise(rng, len(inst))
        dist = gen.distribution(ds.features[inst], e, zhat, eps).data
    return dc.categorical_at(dist, rng.random(len(inst)))


def test_export_feeds_the_generator_the_inputs_it_was_trained_on(tmp_path):
    ds = tiny_dataset()
    res = train_crowding(ds, tiny_config(epochs=1, gen_use_annotator_features=False))
    path = tmp_path / "checkpoint.bin"
    tr.save_result_checkpoint(path, res)
    arrays = load_checkpoint(path)
    assert arrays["meta.gen_use_annotator_features"] == 0.0
    assert arrays["meta.gen_use_instance_features"] == 1.0
    bundle = tr.load_result_checkpoint(path, ds, generator=True)
    rows = exported_rows(ds, bundle, 5, tmp_path / "augmented.csv")
    generated = rows[rows[:, 3] == 0, 2]
    assert np.array_equal(generated, _labels_fed(ds, bundle, rows, 5, True))
    assert not np.array_equal(generated, _labels_fed(ds, bundle, rows, 5, False))

    # a checkpoint without the switches is refused, not read as both on
    switches = ("meta.gen_use_instance_features", "meta.gen_use_annotator_features")
    save_checkpoint(tmp_path / "older.bin",
                    {k: v for k, v in arrays.items() if k not in switches})
    with pytest.raises(CheckpointError, match="missing array 'meta.gen_use_instance_features'"):
        tr.load_result_checkpoint(tmp_path / "older.bin", ds, generator=True)


def test_loaded_nets_copy_the_checkpoint_views(tmp_path, monkeypatch):
    # load_checkpoint hands out read-only views into the file's bytes; the
    # nets and the adjacency built from them keep copies, never the views
    path, ds = tmp_path / "checkpoint.bin", tiny_dataset()
    tr.save_result_checkpoint(path, train_crowding(ds, tiny_config(epochs=1)))
    loads = []
    monkeypatch.setattr(tr, "load_checkpoint",
                        lambda p: loads.append(load_checkpoint(p)) or loads[-1])
    bundle = tr.load_result_checkpoint(path, ds, generator=True)
    classifier = tr.load_result_checkpoint(path, ds)
    views = [a for arrays in loads for a in arrays.values()]
    assert len(loads) == 2 and not any(a.flags.writeable for a in views)
    kept = [t.data for store in (*bundle.stores().values(), classifier.store)
            for _, t in store.items()]
    kept.append(bundle.adjacency)
    assert not any(np.shares_memory(k, v) for k in kept for v in views)
    assert all(k.flags.writeable for k in kept)


CROWDING_CHECKPOINT_NAMES = (
    [f"classifier.{n}" for n in ("W1", "b1", "W2", "b2")]
    + [f"generator.{n}" for n in ("W1", "b1", "W2", "b2", "W3", "b3")]
    + [f"discriminator.{n}" for n in ("Wu", "bu", "Wv", "bv", "M", "Wmix")]
    + [f"aux.{n}" for n in ("Wembed", "bembed", "W1", "b1", "W2", "b2", "W3", "b3")]
    + ["adjacency.propagation", "meta.has_bundle"]
    + [f"meta.{n}" for n in (
        "num_classes", "feature_dim", "annotator_dim", "noise_dim", "clf_hidden",
        "gen_hidden1", "gen_hidden2", "aux_hidden1", "aux_hidden2", "embed_dim",
        "class_embed_dim", "gen_use_instance_features",
        "gen_use_annotator_features")])


def test_every_net_dims_field_sizes_an_array_or_comes_from_the_config():
    # a NetDims field is a width, which sizes a checkpoint array, or a switch
    # that _dims_for sets from the TrainConfig key of its name; a field that
    # is neither would be a setting with one value in use
    ds, cfg = tiny_dataset(), tiny_config()
    dims = tr._dims_for(ds, cfg)
    shapes = checkpoint_shapes(dims, tuple(NETS))
    for f in dataclasses.fields(NetDims):
        if f.type == "int":
            bumped = dataclasses.replace(dims, **{f.name: getattr(dims, f.name) + 1})
            assert checkpoint_shapes(bumped, tuple(NETS)) != shapes, f.name
        else:
            for value in (False, True):
                flipped = dataclasses.replace(cfg, **{f.name: value})
                assert getattr(tr._dims_for(ds, flipped), f.name) is value, f.name


def test_crowding_checkpoint_array_names_are_pinned(tmp_path):
    # every parameter is saved once, under its owning net, in a fixed order
    path, ds = tmp_path / "checkpoint.bin", tiny_dataset()
    tr.save_result_checkpoint(path, train_crowding(ds, tiny_config(epochs=1)))
    arrays = load_checkpoint(path)
    assert list(arrays) == CROWDING_CHECKPOINT_NAMES
    # every meta scalar is required
    for key in (k for k in arrays if k.startswith("meta.")):
        save_checkpoint(tmp_path / "broken.bin",
                        {k: v for k, v in arrays.items() if k != key})
        with pytest.raises(CheckpointError, match=f"missing array '{key}'"):
            tr.load_result_checkpoint(tmp_path / "broken.bin", ds, generator=True)


def csv_writer_bytes(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows.tolist())
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("rows", [
    np.zeros((0, 4), dtype=np.int64),
    np.array([[12, 3, 0, 1]]),
    np.array([[9, 10, 99, 100], [999, 1000, 0, 1], [0, 0, 0, 0]]),
    np.arange(7).reshape(7, 1),
    np.random.default_rng(0).integers(0, 10 ** np.arange(1, 7), size=(20000, 6)),
], ids=["empty", "one-row", "digit-boundaries", "one-column", "random-20k"])
def test_csv_int_lines_equal_csv_writer(rows):
    assert tr._csv_int_lines(rows) == csv_writer_bytes(rows)


def reference_export(ds, bundle, seed):
    """``augmented.csv``'s bytes from a classifier pass over every missing
    pair and ``csv.writer``."""
    train_idx = ds.split_indices(TRAIN)
    r = ds.num_annotators
    inst, annot = np.repeat(train_idx, r), np.tile(np.arange(r), len(train_idx))
    labels = np.full(len(inst), -1, dtype=np.int64)
    known = {(int(n), int(a)): int(y) for n, a, y in tr._train_annotations(ds)}
    for i, key in enumerate(zip(inst.tolist(), annot.tolist())):
        labels[i] = known.get(key, -1)
    missing = labels < 0
    m_inst, m_annot = inst[missing], annot[missing]
    gen, rng = bundle.generator, np.random.default_rng(seed)
    zhat = tr._forward_in_blocks(len(m_inst), lambda s: bundle.classifier.probs(
        ds.features[m_inst[s]]).data)
    eps = gen.draw_noise(rng, len(m_inst))
    dist = tr._forward_in_blocks(len(m_inst), lambda s: gen.distribution(
        ds.features[m_inst[s]], ds.annotator_features[m_annot[s]], zhat[s], eps[s]).data)
    labels[missing] = dc.categorical_at(dist, rng.random(len(m_inst)))
    rows = np.column_stack([inst, annot, labels, (~missing).astype(np.int64)])
    return b"instance_id,annotator_id,label,authentic\n" + csv_writer_bytes(rows)


@pytest.mark.parametrize("n, r", [(60, 6), (500, 20)])
def test_export_bytes_equal_per_pair_reference(tmp_path, n, r):
    # 500 x 20 has about 9,000 missing pairs: two pair blocks, one per-instance block
    ds = tiny_dataset(n=n, r=r, c=4)
    rng = np.random.default_rng(n)
    bundle = build_bundle(tr._dims_for(ds, tiny_config()), build_cooccurrence(ds), rng)
    for store in bundle.stores().values():
        randomize(store, rng, scale=0.5)
    export_augmented(ds, bundle, seed=5, out_path=tmp_path / "augmented.csv")
    assert (tmp_path / "augmented.csv").read_bytes() == reference_export(ds, bundle, 5)


def annotated_on(ds, annotated, seed=0):
    """``ds`` annotated on exactly the (train instance, annotator) pairs that
    the boolean (train instances, annotators) grid ``annotated`` flags, at
    random labels."""
    slots, annot = np.nonzero(annotated)
    labels = np.random.default_rng(seed).integers(ds.num_classes, size=len(slots))
    return ds.with_annotations(np.column_stack([ds.split_indices(TRAIN)[slots], annot, labels]))


def shaped_grid(case):
    """A dataset whose train grid has the shape ``case`` names."""
    small = case in ("no-missing", "authentic-ends")
    ds = tiny_dataset(n=60 if small else 1000, r=6 if small else 20, c=4)
    rng = np.random.default_rng(1)
    shape = (len(ds.split_indices(TRAIN)), ds.num_annotators)
    if case == "no-missing":
        return annotated_on(ds, np.ones(shape, dtype=bool))
    annotated = np.zeros(shape, dtype=bool)
    annotated[np.arange(shape[0]), rng.integers(shape[1], size=shape[0])] = True
    if case == "authentic-ends":  # the grid starts and ends with authentic rows
        annotated[:2] = annotated[-2:] = True
    else:  # "8191-missing" or "8192-missing": one pair block, or the first split
        free = np.flatnonzero(~annotated)
        extra = len(free) - int(case.split("-")[0])
        annotated.flat[rng.choice(free, size=extra, replace=False)] = True
    return annotated_on(ds, annotated)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", ["no-missing", "authentic-ends", "8191-missing",
                                  "8192-missing"])
def test_export_bytes_equal_per_pair_reference_on_shaped_grids(tmp_path, monkeypatch,
                                                               case, threads):
    monkeypatch.setattr(tr, "_BLOCK_THREADS", threads)
    ds = shaped_grid(case)
    bundle = _randomized_bundle(ds, 4)
    export_augmented(ds, bundle, seed=5, out_path=tmp_path / "augmented.csv")
    _, flags = read_augmented_file(tmp_path / "augmented.csv")
    if case == "authentic-ends":
        assert flags[:12].all() and flags[-12:].all() and not flags.all()
    else:
        assert (~flags).sum() == {"no-missing": 0, "8191-missing": 8191,
                                  "8192-missing": 8192}[case]
    assert (tmp_path / "augmented.csv").read_bytes() == reference_export(ds, bundle, 5)
    assert [p.name for p in tmp_path.iterdir()] == ["augmented.csv"]


def _randomized_bundle(ds, seed):
    rng = np.random.default_rng(seed)
    bundle = build_bundle(tr._dims_for(ds, tiny_config()), build_cooccurrence(ds), rng)
    for store in bundle.stores().values():
        randomize(store, rng, scale=0.5)
    return bundle


def test_export_and_logged_grid_are_equal_on_one_and_two_threads(tmp_path, monkeypatch):
    # 16,000 grid pairs, about 15,000 of them missing: several pair blocks
    ds = tiny_dataset(n=400, r=40, c=4)
    bundle = _randomized_bundle(ds, 2)
    runs = {}
    for threads in (1, 2):
        monkeypatch.setattr(tr, "_BLOCK_THREADS", threads)
        path = tmp_path / f"{threads}.csv"
        written = export_augmented(ds, bundle, seed=5, out_path=path)
        batch = log_generation_grid(bundle.generator, bundle.classifier, ds, tiny_config(),
                                    np.random.default_rng(3))
        runs[threads] = [path.read_bytes()] + [getattr(batch, f.name).tobytes()
                                               for f in dataclasses.fields(LoggedBatch)]
    assert len(written) - written.authentic >= 8192 and len(batch) >= 8192
    assert runs[1] == runs[2]


def test_export_peak_memory_per_pair(tmp_path):
    # writing the CSV as the CLI does, the export holds no array with an entry
    # per grid pair or per missing pair: only columns of the annotations and
    # the instances, and two pair blocks
    def peak(n):
        ds = tiny_dataset(n=n, r=40, c=4)
        bundle = _randomized_bundle(ds, 0)
        tracemalloc.start()
        try:
            written = export_augmented(ds, bundle, seed=5, out_path=tmp_path / "augmented.csv")
            return tracemalloc.get_traced_memory()[1], len(written)
        finally:
            tracemalloc.stop()

    # on two block threads a run's peak is as high as its two in-flight
    # blocks' temporaries come to overlap, which thread timing decides: under
    # load a run can miss the full overlap by up to a block (1.45 MB read as
    # 36 bytes a pair once). The largest of five peaks per size reaches it.
    def largest_peak(n):
        peaks = [peak(n) for _ in range(5)]
        return max(p for p, _ in peaks), peaks[0][1]

    # 38 missing pairs a train instance: both sizes run their missing pairs in
    # 2,052-row blocks (19 and 38 of them), so the blocks' temporaries, which
    # grow with the block height, cancel out of the difference
    peak(1026)  # the process's first threaded export also traces the pool's import
    (small, small_pairs), (large, large_pairs) = largest_peak(1026), largest_peak(2052)
    per_pair = (large - small) / (large_pairs - small_pairs)
    assert per_pair < 16, per_pair


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_export_leaves_no_file(tmp_path, monkeypatch, threads):
    # the second pair block fails after the first one has been written
    monkeypatch.setattr(tr, "_BLOCK_THREADS", threads)
    ds = tiny_dataset(n=400, r=40, c=4)
    bundle = _randomized_bundle(ds, 2)
    sample, calls = tr._sample_generated, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise FloatingPointError("softmax input contains non-finite values")
        return sample(*args)

    monkeypatch.setattr(tr, "_sample_generated", failing)
    with pytest.raises(FloatingPointError):
        export_augmented(ds, bundle, seed=5, out_path=tmp_path / "augmented.csv")
    assert len(calls) >= 2
    assert list(tmp_path.iterdir()) == []


def test_read_augmented_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="augmented annotation"):
        read_augmented_file(path)
