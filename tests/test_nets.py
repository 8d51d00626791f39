"""Network forward/backward behavior, weight sharing, and checkpoint format."""
import numpy as np
import pytest

from crowdaug import diffcore as dc
from crowdaug.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from crowdaug.data import CoocAdjacency
from crowdaug.diffcore import ParamStore, Tensor
from crowdaug.nets import (
    NETS,
    AuxNet,
    Classifier,
    Discriminator,
    Generator,
    NetDims,
    checked_nets,
    restore_nets,
)
from crowdaug.objectives import CLAMP_HI, CLAMP_LO, _clamp_count
from helpers import build_bundle, chain_mlp, encoding, grad_check, randomize, store_grads

SMALL = NetDims(num_classes=3, feature_dim=4, annotator_dim=5, noise_dim=2,
                clf_hidden=6, gen_hidden1=5, gen_hidden2=7, aux_hidden1=5,
                aux_hidden2=6, embed_dim=4, class_embed_dim=3)


def identity_adj(c):
    return CoocAdjacency(counts=np.zeros((c, c)), propagation=np.eye(c))


def random_adj(c, rng):
    counts = rng.integers(0, 6, size=(c, c)).astype(float)
    counts = counts + counts.T
    a_hat = counts + np.eye(c)
    inv = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return CoocAdjacency(counts=counts, propagation=a_hat * inv[:, None] * inv[None, :])


def small_bundle(seed=0, **overrides):
    dims = NetDims(**{**SMALL.__dict__, **overrides})
    rng = np.random.default_rng(seed)
    adj = random_adj(dims.num_classes, np.random.default_rng(99))
    return build_bundle(dims, adj, rng)


# ---------------------------------------------------------------------------
# init-time trivial outputs


def test_classifier_uniform_at_init():
    b = small_bundle()
    x = np.random.default_rng(1).normal(size=(6, SMALL.feature_dim))
    probs = b.classifier.probs(x).data
    np.testing.assert_allclose(probs, np.full((6, 3), 1.0 / 3.0), atol=1e-15)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)


def test_generator_uniform_at_init():
    b = small_bundle()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, SMALL.feature_dim))
    e = rng.normal(size=(5, SMALL.annotator_dim))
    zhat = np.full((5, 3), 1.0 / 3.0)
    eps = b.generator.draw_noise(rng, 5)
    dist = b.generator.distribution(x, e, zhat, eps).data
    np.testing.assert_allclose(dist, np.full((5, 3), 1.0 / 3.0), atol=1e-15)
    np.testing.assert_allclose(dc.entropy(dist), np.log(3.0), atol=1e-12)


def test_aux_uniform_at_init():
    b = small_bundle()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, SMALL.feature_dim))
    e = rng.normal(size=(4, SMALL.annotator_dim))
    enc = encoding(b.discriminator, x, e, [0, 1, 2, 0], b.adjacency)
    out = dc.softmax(b.aux.logits(*enc)).data
    np.testing.assert_allclose(out, np.full((4, 3), 1.0 / 3.0), atol=1e-15)


def test_discriminator_zero_matrices_give_half():
    b = small_bundle()
    b.discriminator.store["M"].data[:] = 0.0
    rng = np.random.default_rng(4)
    x = rng.normal(size=(7, SMALL.feature_dim))
    e = rng.normal(size=(7, SMALL.annotator_dim))
    y = rng.integers(0, 3, size=7)
    scores = b.discriminator.score(*encoding(b.discriminator, x, e, y, b.adjacency)).data
    np.testing.assert_allclose(scores, 0.5, atol=1e-15)


def test_discriminator_output_open_interval():
    b = small_bundle()
    randomize(b.discriminator.store, np.random.default_rng(5), scale=2.0)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(50, SMALL.feature_dim)) * 10
    e = rng.normal(size=(50, SMALL.annotator_dim)) * 10
    y = rng.integers(0, 3, size=50)
    scores = b.discriminator.score(*encoding(b.discriminator, x, e, y, b.adjacency)).data
    assert np.all(scores > 0.0) and np.all(scores < 1.0)


def test_discriminator_score_saturates_at_the_objectives_clamp():
    # a bilinear form of +-1e6 saturates the sigmoid to exactly 1.0 and 0.0;
    # score stops at the bounds the loss, the deltas and clamp_count read
    disc = small_bundle().discriminator
    m = SMALL.embed_dim
    mats = Tensor(np.stack([np.eye(m) * 1e6, np.eye(m) * -1e6, np.zeros((m, m))]))
    ones = Tensor(np.ones((3, m)))
    scores = disc.score(ones, ones, mats, [0, 1, 2]).data
    assert scores.tolist() == [CLAMP_HI, CLAMP_LO, 0.5]
    assert _clamp_count(scores) == 2  # rows at a bound count as clamped


# ---------------------------------------------------------------------------
# noise path and stochasticity


def test_generator_noise_path_live_after_randomization():
    b = small_bundle()
    randomize(b.generator.store, np.random.default_rng(7), scale=0.5)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, SMALL.feature_dim))
    e = rng.normal(size=(3, SMALL.annotator_dim))
    zhat = np.full((3, 3), 1.0 / 3.0)
    d1 = b.generator.distribution(x, e, zhat, b.generator.draw_noise(rng, 3)).data
    d2 = b.generator.distribution(x, e, zhat, b.generator.draw_noise(rng, 3)).data
    assert not np.allclose(d1, d2)


@pytest.mark.parametrize("switch", [0, 1])
def test_generator_with_switch_off_ignores_that_input(switch):
    # switch 0 is gen_use_instance_features (input x), 1 gen_use_annotator_features (e)
    names = ("gen_use_instance_features", "gen_use_annotator_features")
    gen = small_bundle(**{names[switch]: False}).generator
    both_on = small_bundle().generator
    randomize(gen.store, np.random.default_rng(10), scale=0.5)
    both_on.store.load_state_dict(gen.store.state_dict())
    rng = np.random.default_rng(11)
    inputs = [rng.normal(size=(4, SMALL.feature_dim)), rng.normal(size=(4, SMALL.annotator_dim))]
    zhat, eps = np.full((4, 3), 1.0 / 3.0), gen.draw_noise(rng, 4)
    zeroed = list(inputs)
    zeroed[switch] = np.zeros_like(inputs[switch])
    reference = both_on.distribution(*zeroed, zhat, eps).data
    assert not np.array_equal(both_on.distribution(*inputs, zhat, eps).data, reference)
    for scale in (0.0, 1.0, 1e3):
        varied = list(inputs)
        varied[switch] = scale * rng.normal(size=inputs[switch].shape)
        assert gen.distribution(*varied, zhat, eps).data.tobytes() == reference.tobytes()


# which of the generator-wide parts [x, e, codes, noise] need a gradient,
# whether the layers train, and whether each hidden layer draws dropout; None
# runs under no_grad
MLP_CASES = {
    "constant weights, the codes": ((2,), False, False),  # the classifier's CRM step
    "trained, the codes": ((2,), True, False),  # the joint CRM step
    "trained, no part": ((), True, False),  # the generator's CRM step
    "trained, no part, dropout": ((), True, True),  # as the classifier's train mode
    "trained, three parts": ((0, 2, 3), True, False),
    "trained, every part": ((0, 1, 2, 3), True, False),  # as Q's head in the D/Q step
    "trained, every part, dropout": ((0, 1, 2, 3), True, True),
    "constant weights, two parts": ((1, 2), False, False),
    "no_grad": None,
}


@pytest.mark.parametrize("rows", [1000, 2048, 3071, 4095])
@pytest.mark.parametrize("case", sorted(MLP_CASES))
def test_mlp_is_byte_identical_to_the_op_chain(rows, case):
    # the pair-grid benchmark's generator widths at its CRM block heights (one
    # below OpenBLAS's small-matrix bound, then 2048-4095): the value and
    # every gradient, parts' and layers', equal the chain's bytes, and the
    # graph holds the node and the leaves that need a gradient alone; with
    # dropout, both draw the same masks and leave the stream in one state
    grad_parts, trained, drop = MLP_CASES[case] or ((), False, False)
    rng = np.random.default_rng(rows)
    widths, sizes = (2, 40, 4, 8), (54, 64, 128, 4)
    arrays = [rng.normal(size=(rows, w)) for w in widths]
    weights = [(rng.normal(scale=0.3, size=(n, m)), rng.normal(scale=0.3, size=m))
               for n, m in zip(sizes, sizes[1:])]
    upstream = rng.normal(size=(rows, 4))

    def run(forward):
        parts = [Tensor(a, requires_grad=i in grad_parts) for i, a in enumerate(arrays)]
        layers = [(Tensor(w, requires_grad=trained), Tensor(b, requires_grad=trained))
                  for w, b in weights]
        stream = np.random.default_rng(rows + 1)
        dropout = (0.5, stream) if drop else None
        if MLP_CASES[case] is None:
            with dc.no_grad():
                out = forward(parts, layers)
            return out.data.tobytes(), [], stream.bit_generator.state, len(dc._toposort(out))
        out = forward(parts, layers, dropout)
        nodes = len(dc._toposort(out))
        leaves = [parts[i] for i in grad_parts] + [t for layer in layers for t in layer
                                                   if t.requires_grad]
        grads = dc.backward(out, upstream)
        assert set(grads) == set(leaves)
        return (out.data.tobytes(), [grads[t].tobytes() for t in leaves],
                stream.bit_generator.state, nodes)

    sent = upstream.copy()
    node, chain = run(dc.mlp), run(chain_mlp)
    assert node[:3] == chain[:3]
    assert node[3] == 1 + len(grad_parts) + 6 * trained
    assert upstream.tobytes() == sent.tobytes()  # the node never writes into its input


def test_mlp_backward_runs_once():
    # the node frees what it saved as its backward reads it
    rng = np.random.default_rng(3)
    part = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    layers = [(Tensor(rng.normal(size=(3, 4))), Tensor(np.zeros(4))),
              (Tensor(rng.normal(size=(4, 2)), requires_grad=True), Tensor(np.zeros(2)))]
    out = dc.mlp([part], layers)
    first = dc.backward(out, np.ones((5, 2)))
    assert set(first) == {part, layers[1][0]}
    with pytest.raises(RuntimeError, match="backward runs once"):
        dc.backward(out, np.ones((5, 2)))


def _kept(node) -> dict:
    """What an mlp node's backward closure holds, by name."""
    return dict(zip(node._backward.__code__.co_freevars,
                    (cell.cell_contents for cell in node._backward.__closure__)))


def _kept_arrays(node) -> list:
    """Every array an mlp node's backward keeps, through lists and tuples."""
    found, todo = [], list(_kept(node).values())
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return found


def test_mlp_keeps_its_parts_not_their_concatenation():
    # Q's head: three parts (v, u, the class embedding) that all need a
    # gradient are graph nodes kept alive anyway, so the node keeps them and
    # no array of the concatenated width; so too with a constant part (as the
    # generator's features), whose bytes the concatenation would repeat
    rng = np.random.default_rng(0)
    layers = [(Tensor(rng.normal(size=(n, m)), requires_grad=True),
               Tensor(rng.normal(size=m), requires_grad=True))
              for n, m in ((80, 64), (64, 128), (128, 4))]
    arrays = [rng.normal(size=(300, w)) for w in (32, 32, 16)]
    for constant in (None, 0):
        parts = [Tensor(a, requires_grad=i != constant) for i, a in enumerate(arrays)]
        kept = _kept_arrays(dc.mlp(parts, layers))
        assert not [a for a in kept if a.shape[-1] == 80]
        assert all(any(a is p.data for a in kept) for p in parts)


def test_mlp_with_dropout_keeps_bool_masks_alone():
    # each hidden layer keeps its ReLU mask and its dropout mask as bool
    # arrays (the scale is one scalar); the only float arrays are the inputs
    # of the layers whose weights need a gradient
    rng = np.random.default_rng(1)
    layers = [(Tensor(rng.normal(size=(n, m)), requires_grad=True),
               Tensor(rng.normal(size=m), requires_grad=True))
              for n, m in ((6, 32), (32, 32), (32, 4))]
    out = dc.mlp([Tensor(rng.normal(size=(200, 6)))], layers, (0.5, np.random.default_rng(2)))
    kept = _kept(out)
    masks = [m for pair in kept["masks"] for m in pair]
    assert len(masks) == 4 and all(m.dtype == bool and m.shape == (200, 32) for m in masks)
    inputs = [kept["inputs"][0][0], *kept["inputs"][1:]]  # the first layer's one part
    floats = [a for a in _kept_arrays(out) if a.dtype != bool]
    assert len(floats) == len(inputs) == 3
    assert all(any(f is a for a in inputs) for f in floats)


@pytest.mark.parametrize("switch", [None, "gen_use_instance_features",
                                    "gen_use_annotator_features"])
def test_frozen_generator_equals_the_chain_over_a_frozen_store(switch, monkeypatch):
    # the classifier's CRM step: the generator's constant copies of its
    # weights give the bytes of the layer chain over its own leaves with no
    # gradient, and the node's one parent is the code tensor
    dims = NetDims(num_classes=4, feature_dim=2, annotator_dim=40,
                   **({switch: False} if switch else {}))
    rng = np.random.default_rng(5)
    gen = Generator(dims, rng)
    randomize(gen.store, rng, scale=0.3)
    x, e, eps = rng.normal(size=(2048, 2)), rng.normal(size=(2048, 40)), gen.draw_noise(rng, 2048)
    codes = dc.softmax(Tensor(rng.normal(size=(2048, 4)))).data
    upstream = rng.normal(size=(2048, 4))

    def run(frozen):
        zhat = Tensor(codes, requires_grad=True)
        logits = gen.logits(x, e, zhat, eps, frozen=frozen)
        return logits.data.tobytes(), dc.backward(logits, upstream)[zhat].tobytes(), logits

    node = run(True)
    assert node[2].parents[0].requires_grad and len(dc._toposort(node[2])) == 2
    monkeypatch.setattr(dc, "mlp", chain_mlp)
    for _, t in gen.store.items():
        t.requires_grad = False
    assert run(False)[:2] == node[:2]


# ---------------------------------------------------------------------------
# LCA decoding algebra


def test_lca_identity_propagation_equals_disabled_with_mixed_matrices():
    rng = np.random.default_rng(9)
    disc_on = Discriminator(SMALL, np.random.default_rng(1))
    randomize(disc_on.store, rng, scale=0.6)
    w = disc_on.store["Wmix"].data

    dims_off = NetDims(**{**SMALL.__dict__, "lca_enabled": False})
    disc_off = Discriminator(dims_off, np.random.default_rng(1))
    for name in ("Wu", "bu", "Wv", "bv"):
        disc_off.store[name].data = disc_on.store[name].data.copy()
    disc_off.store["M"].data = np.einsum("cij,jk->cik", disc_on.store["M"].data, w)

    rng2 = np.random.default_rng(10)
    x = rng2.normal(size=(8, SMALL.feature_dim))
    e = rng2.normal(size=(8, SMALL.annotator_dim))
    y = rng2.integers(0, 3, size=8)
    s_on = disc_on.score(*encoding(disc_on, x, e, y, identity_adj(3))).data
    s_off = disc_off.score(*encoding(disc_off, x, e, y, None)).data
    np.testing.assert_allclose(s_on, s_off, atol=1e-12)


def test_lca_scaling_linearity():
    b = small_bundle()
    disc = b.discriminator
    randomize(disc.store, np.random.default_rng(11), scale=0.5)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, SMALL.feature_dim))
    e = rng.normal(size=(6, SMALL.annotator_dim))
    y = rng.integers(0, 3, size=6)
    u, v = disc.encode(x, e)

    def bilinear():
        return dc.rowwise_bilinear(u, disc.decoded_matrices(b.adjacency), v, y).data

    base = bilinear()
    disc.store["M"].data *= 2.5
    scaled = bilinear()
    np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-10)


def test_discriminate_monotone_in_bilinear_form():
    scores = np.linspace(-4, 4, 33)
    out = dc.sigmoid(Tensor(scores)).data
    assert np.all(np.diff(out) > 0)


def test_lca_requires_adjacency():
    disc = Discriminator(SMALL, np.random.default_rng(0))
    with pytest.raises(ValueError, match="adjacency"):
        disc.decoded_matrices(None)


# ---------------------------------------------------------------------------
# parameter sharing


def test_aux_shares_discriminator_encoders():
    b = small_bundle()
    randomize(b.aux.store, np.random.default_rng(13), scale=0.5)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(4, SMALL.feature_dim))
    e = rng.normal(size=(4, SMALL.annotator_dim))
    y = [0, 1, 2, 1]
    disc = b.discriminator

    def log_posterior():
        return b.aux.log_posterior(*encoding(disc, x, e, y, b.adjacency))

    # Q reads D's encoding: a write to D's encoder moves Q's posterior
    before = log_posterior().data.copy()
    disc.store["Wu"].data += 0.7
    assert not np.allclose(before, log_posterior().data)
    # and D's encoders take Q's gradient through the joint D/Q optimizer
    opt = dc.Adam(ParamStore.union(disc.store, b.aux.store), lr=0.1)
    encoders = {n: disc.store[n].data.copy() for n in ("Wu", "bu", "Wv", "bv")}
    grads = dc.backward(dc.neg(dc.t_mean(dc.pick(log_posterior(), [0, 2, 1, 0]))))
    assert all(np.any(grads[disc.store[n]] != 0) for n in encoders)
    opt.step(grads)
    assert all(np.any(disc.store[n].data != old) for n, old in encoders.items())


def test_no_tensor_belongs_to_two_stores():
    stores = small_bundle().stores()
    owners = [id(t) for store in stores.values() for _, t in store.items()]
    assert len(owners) == len(set(owners))
    assert stores["aux"].names() == ["Wembed", "bembed", "W1", "b1", "W2", "b2", "W3", "b3"]


def test_dimension_mismatch_errors():
    b = small_bundle()
    with pytest.raises(ValueError, match="classifier input"):
        b.classifier.probs(np.zeros((2, SMALL.feature_dim + 1)))
    with pytest.raises(ValueError, match="noise"):
        b.generator.distribution(np.zeros((1, SMALL.feature_dim)),
                                 np.zeros((1, SMALL.annotator_dim)),
                                 np.full((1, 3), 1 / 3), np.zeros((1, 99)))
    with pytest.raises(ValueError, match="class index"):
        b.discriminator.score(*encoding(b.discriminator, np.zeros((1, SMALL.feature_dim)),
                                        np.zeros((1, SMALL.annotator_dim)), [3],
                                        b.adjacency))
    with pytest.raises(ValueError, match="class index"):
        b.aux.logits(*encoding(b.discriminator, np.zeros((1, SMALL.feature_dim)),
                               np.zeros((1, SMALL.annotator_dim)), [-1], b.adjacency))


def test_train_mode_requires_rng_and_is_stochastic():
    b = small_bundle()
    randomize(b.classifier.store, np.random.default_rng(15), scale=0.5)
    x = np.random.default_rng(16).normal(size=(4, SMALL.feature_dim))
    with pytest.raises(ValueError, match="rng"):
        b.classifier.probs(x, train_mode=True)
    p1 = b.classifier.probs(x, train_mode=True, rng=np.random.default_rng(1)).data
    p2 = b.classifier.probs(x, train_mode=True, rng=np.random.default_rng(2)).data
    assert not np.allclose(p1, p2)
    e1 = b.classifier.probs(x).data
    e2 = b.classifier.probs(x).data
    np.testing.assert_array_equal(e1, e2)


# ---------------------------------------------------------------------------
# gradient checks (small dims; the acceptance suite reruns at default dims)


def rand_inputs(rng, batch=3):
    x = rng.normal(size=(batch, SMALL.feature_dim))
    e = rng.normal(size=(batch, SMALL.annotator_dim))
    y = rng.integers(0, SMALL.num_classes, size=batch)
    return x, e, y


def test_grad_check_classifier():
    b = small_bundle(seed=21)
    randomize(b.classifier.store, np.random.default_rng(22), scale=0.4)
    x, _, y = rand_inputs(np.random.default_rng(23))

    def loss():
        lp = dc.log_softmax(b.classifier.logits(x))
        return dc.neg(dc.t_mean(dc.pick(lp, y)))

    assert grad_check(loss, b.classifier.store) < 1e-4


def test_grad_check_generator():
    b = small_bundle(seed=24)
    randomize(b.generator.store, np.random.default_rng(25), scale=0.4)
    rng = np.random.default_rng(26)
    x, e, y = rand_inputs(rng)
    zhat = dc.softmax(Tensor(rng.normal(size=(3, SMALL.num_classes)))).data
    eps = b.generator.draw_noise(rng, 3)

    def loss():
        lp = b.generator.log_distribution(x, e, zhat, eps)
        return dc.neg(dc.t_mean(dc.pick(lp, y)))

    assert grad_check(loss, b.generator.store) < 1e-4


def test_grad_check_discriminator_with_and_without_lca():
    for lca in (True, False):
        b = small_bundle(seed=27, lca_enabled=lca)
        disc = b.discriminator
        randomize(disc.store, np.random.default_rng(28), scale=0.4)
        x, e, y = rand_inputs(np.random.default_rng(29))
        adj = b.adjacency if lca else None

        def loss():
            s = disc.score(*encoding(disc, x, e, y, adj))
            return dc.neg(dc.t_mean(dc.t_log(s)))

        assert grad_check(loss, disc.store) < 1e-4, f"lca={lca}"


def test_grad_check_aux_includes_shared_encoders():
    b = small_bundle(seed=30)
    params = ParamStore.union(b.discriminator.store, b.aux.store)
    randomize(params, np.random.default_rng(31), scale=0.4)
    x, e, y = rand_inputs(np.random.default_rng(32))
    targets = np.array([1, 0, 2])

    def loss():
        lp = b.aux.log_posterior(*encoding(b.discriminator, x, e, y, b.adjacency))
        return dc.neg(dc.t_mean(dc.pick(lp, targets)))

    assert grad_check(loss, params) < 1e-4


def test_forwards_under_no_grad_equal_graph_mode():
    b = small_bundle(seed=34)
    for store in b.stores().values():
        randomize(store, np.random.default_rng(35), scale=0.5)
    rng = np.random.default_rng(36)
    x, e, y = rand_inputs(rng, batch=7)
    zhat = dc.softmax(Tensor(rng.normal(size=(7, SMALL.num_classes)))).data
    eps = b.generator.draw_noise(rng, 7)
    forwards = {
        "classifier": lambda: b.classifier.probs(x),
        "generator": lambda: b.generator.distribution(x, e, zhat, eps),
        "discriminator": lambda: b.discriminator.score(
            *encoding(b.discriminator, x, e, y, b.adjacency)),
        "aux": lambda: b.aux.log_posterior(*encoding(b.discriminator, x, e, y, b.adjacency)),
    }
    for name, forward in forwards.items():
        graph_out = forward()
        with dc.no_grad():
            free_out = forward()
        assert free_out.parents == (), name
        assert np.array_equal(free_out.data, graph_out.data), name


@pytest.mark.parametrize("name", ["classifier", "generator", "discriminator", "aux"])
def test_fused_layers_are_byte_identical_to_three_op_layers(name, monkeypatch):
    # graph mode: the output and every store's gradients match nets built
    # from matmul/add/relu; the generator reads a live classifier code, so
    # gradients cross from one net into another
    b = small_bundle(seed=37)
    for store in b.stores().values():
        randomize(store, np.random.default_rng(38), scale=0.5)
    rng = np.random.default_rng(39)
    x, e, y = rand_inputs(rng, batch=9)
    eps = b.generator.draw_noise(rng, 9)
    forward = {
        "classifier": lambda: b.classifier.logits(
            x, train_mode=True, rng=np.random.default_rng(40)),
        "generator": lambda: b.generator.logits(x, e, b.classifier.probs(x), eps),
        "discriminator": lambda: b.discriminator.score(
            *encoding(b.discriminator, x, e, y, b.adjacency)),
        "aux": lambda: b.aux.logits(*encoding(b.discriminator, x, e, y, b.adjacency)),
    }[name]
    stores = list(b.stores().values())

    def run():
        out = forward()
        nodes = len(dc._toposort(out))
        grads = dc.backward(out, np.random.default_rng(41).normal(size=out.shape))
        return out.data.tobytes(), store_grads(grads, *stores), nodes

    fused_out, fused_grads, fused_nodes = run()
    monkeypatch.setattr(dc, "mlp", chain_mlp)
    chain_out, chain_grads, chain_nodes = run()
    assert chain_nodes > fused_nodes  # the reference really is the old chain
    assert chain_out == fused_out
    assert chain_grads == fused_grads


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(33)
    arrays = {
        "classifier.W1": rng.normal(size=(4, 6)),
        "scalars.step": np.array(7.0),
        "deep.M": rng.normal(size=(3, 4, 4)),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for name, arr in arrays.items():
        assert loaded[name].tobytes() == np.asarray(arr, dtype=np.float64).tobytes()
        assert loaded[name].shape == np.asarray(arr).shape


def test_checkpoint_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\n\nxxxx")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(b"junk-without-separator")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bundle_state_round_trip(tmp_path):
    b = small_bundle(seed=34)
    for store in b.stores().values():
        randomize(store, np.random.default_rng(35), scale=0.3)
    state = b.state_dict()
    path = tmp_path / "bundle.ckpt"
    save_checkpoint(path, state)

    arrays = load_checkpoint(path)
    dims, nets = checked_nets(arrays, bundle=True)
    assert dims == b.dims and nets == tuple(NETS)
    b2 = restore_nets(arrays, dims, nets)
    for prefix, store in b.stores().items():
        other = b2.stores()[prefix]
        for name, t in store.items():
            assert t.data.tobytes() == other[name].data.tobytes(), f"{prefix}.{name}"

    rng = np.random.default_rng(37)
    x = rng.normal(size=(5, SMALL.feature_dim))
    e = rng.normal(size=(5, SMALL.annotator_dim))
    y = rng.integers(0, 3, size=5)
    np.testing.assert_array_equal(
        b.discriminator.score(*encoding(b.discriminator, x, e, y, b.adjacency)).data,
        b2.discriminator.score(*encoding(b2.discriminator, x, e, y, b2.adjacency)).data)
