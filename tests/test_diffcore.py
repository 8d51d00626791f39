"""Unit and property tests for the autodiff kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdaug import diffcore as dc
from crowdaug.diffcore import (
    Adam,
    ParamStore,
    Tensor,
    backward,
    entropy,
    log_softmax,
    sample_categorical,
    softmax,
)
from helpers import PerParameterAdam, chain_mlp, chain_nll, grad_check

RNG = np.random.default_rng(0)


# ---------------------------------------------------------------------------
# softmax / entropy values


def test_softmax_log2_zero():
    out = softmax(Tensor(np.array([np.log(2.0), 0.0]))).data
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_shift_invariance():
    x = np.array([1000.0, 1000.0 + np.log(2.0)])
    out = softmax(Tensor(x)).data
    np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_softmax_rejects_nonfinite():
    for nonfinite in (np.nan, np.inf):
        with pytest.raises(FloatingPointError):
            softmax(Tensor(np.array([nonfinite, 0.0])))
        with pytest.raises(FloatingPointError):
            log_softmax(Tensor(np.array([nonfinite, 0.0])))


def test_entropy_two_thirds():
    # -((2/3)ln(2/3) + (1/3)ln(1/3)) = ln3 - (2/3)ln2
    got = entropy(np.array([2.0 / 3.0, 1.0 / 3.0]))
    assert abs(got - 0.6365141682948128) < 1e-12


def test_entropy_uniform8_and_onehot():
    assert abs(entropy(np.full(8, 0.125)) - np.log(8.0)) < 1e-12
    assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0


def test_entropy_validates_input():
    with pytest.raises(ValueError):
        entropy(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        entropy(np.array([0.3, 0.3]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
def test_softmax_normalizes(logits):
    p = softmax(Tensor(np.array(logits))).data
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p >= 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=10))
def test_entropy_bounds(logits):
    p = softmax(Tensor(np.array(logits))).data
    h = entropy(p)
    assert -1e-12 <= h <= np.log(len(logits)) + 1e-12


def test_log_softmax_matches_log_of_softmax():
    x = RNG.normal(size=(4, 7))
    np.testing.assert_allclose(log_softmax(Tensor(x)).data, np.log(softmax(Tensor(x)).data),
                               atol=1e-12)


def test_sigmoid_extremes():
    assert dc.sigmoid(Tensor(np.array([800.0]))).data[0] == 1.0
    assert dc.sigmoid(Tensor(np.array([-800.0]))).data[0] == 0.0
    assert abs(dc.sigmoid(Tensor(np.array([0.0]))).data[0] - 0.5) < 1e-15


# ---------------------------------------------------------------------------
# backward correctness


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(dc.mul(t, t))


def test_tensor_has_no_gradient_slot():
    # gradients are what backward returns, never state on a tensor
    w = Tensor(np.array([3.0]), requires_grad=True)
    grads = backward(dc.t_sum(dc.mul(w, w)))
    assert not hasattr(w, "grad")
    with pytest.raises(AttributeError):
        w.grad = grads[w]


def test_backward_returns_the_gradient_of_each_trainable_leaf_it_reaches():
    w = Tensor(np.array([3.0]), requires_grad=True)
    c = Tensor(np.array([2.0]))
    unused = Tensor(np.array([1.0]), requires_grad=True)
    grads = backward(dc.t_sum(dc.mul(w, c)))
    assert list(grads) == [w]
    np.testing.assert_array_equal(grads[w], [2.0])
    assert unused not in grads


def test_backward_diamond_graph():
    # y = x*x + x*x reuses x twice on two paths; dy/dx = 4x
    x = Tensor(np.array([5.0]), requires_grad=True)
    sq = dc.mul(x, x)
    grads = backward(dc.t_sum(dc.add(sq, sq)))
    np.testing.assert_allclose(grads[x], [20.0])


def test_broadcast_add_gradient():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(1, 4)), requires_grad=True)
    grads = backward(dc.t_sum(dc.add(a, b)))
    np.testing.assert_allclose(grads[a], np.ones((3, 4)))
    np.testing.assert_allclose(grads[b], np.full((1, 4), 3.0))


def test_gather_rows_accumulates_repeats():
    emb = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
    out = dc.gather_rows(emb, [1, 1, 4])
    grads = backward(dc.t_sum(out))
    expected = np.zeros((5, 3))
    expected[1] = 2.0
    expected[4] = 1.0
    np.testing.assert_allclose(grads[emb], expected)


@pytest.mark.parametrize("shape, rows", [((2000, 4), 2048), ((4, 16), 4000), ((64, 16), 64),
                                         ((6, 3, 3), 64), ((5, 3), 0)])
def test_gather_rows_backward_is_byte_identical_to_add_at(shape, rows):
    # a 2-D code table and the crowd layer's 3-D transforms T: repeated
    # indices, rows no index reaches, and -0.0 and inf entries in the gradient
    rng = np.random.default_rng(rows)
    table = Tensor(rng.normal(size=shape), requires_grad=True)
    idx = rng.integers(0, max(1, shape[0] - 2), size=rows)  # the last two rows untouched
    g = rng.normal(size=(rows, *shape[1:]))
    columns = g.reshape(rows, int(np.prod(shape[1:])))
    columns[::5, 0] = -0.0
    columns[7:8, -1] = np.inf
    reference = np.zeros(shape)
    np.add.at(reference, idx, g)
    grad = backward(dc.gather_rows(table, idx), g)[table]
    assert grad.shape == shape
    assert grad.tobytes() == reference.tobytes()


def test_pick_selects_per_row():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = dc.pick(a, [2, 0])
    np.testing.assert_allclose(out.data, [2.0, 3.0])
    grads = backward(dc.t_sum(out))
    expected = np.zeros((2, 3))
    expected[0, 2] = 1.0
    expected[1, 0] = 1.0
    np.testing.assert_allclose(grads[a], expected)


def test_grad_check_elementary_ops():
    rng = np.random.default_rng(7)
    store = ParamStore()
    a = store.add("a", rng.normal(size=(3, 4)))
    b = store.add("b", rng.normal(size=(4, 2)))
    c = store.add("c", rng.normal(size=(1, 2)))

    def loss():
        h = dc.relu(dc.add(dc.matmul(a, b), c))
        p = softmax(h)
        return dc.t_mean(dc.mul(p, p))

    assert grad_check(loss, store) < 1e-6


def test_grad_check_bilinear_and_matvec():
    rng = np.random.default_rng(3)
    store = ParamStore()
    u = store.add("u", rng.normal(size=(4, 3)))
    m = store.add("m", rng.normal(size=(4, 3, 5)))
    v = store.add("v", rng.normal(size=(4, 5)))
    classes = np.array([2, 0, 2, 1])  # class 3 has no rows, class 2 two

    def loss():
        s = dc.rowwise_bilinear(u, m, v, classes)
        w = dc.rowwise_matvec(m, v)
        return dc.add(dc.t_mean(dc.mul(s, s)), dc.t_mean(dc.t_exp(dc.mul(w, Tensor(0.1)))))

    assert grad_check(loss, store) < 1e-6


# an mlp's depth and whether it draws dropout, as the nets use it
MLP_DEPTHS = {
    "one layer": (1, False),  # D's encoders and Q's class-table embedding
    "relu": (2, False),  # the classifier in eval mode
    "relu, dropout": (2, True),  # the classifier in train mode
}


@pytest.mark.parametrize("case", sorted(MLP_DEPTHS))
def test_grad_check_mlp_layers(case):
    depth, drop = MLP_DEPTHS[case]
    rng = np.random.default_rng(19)
    store = ParamStore()
    x = store.add("x", rng.normal(size=(5, 3)))
    layers = [(store.add("w1", rng.normal(size=(3, 4))), store.add("b1", rng.normal(size=4))),
              (store.add("w2", rng.normal(size=(4, 2))), store.add("b2", rng.normal(size=2)))]

    def loss():
        # a fresh generator per call draws the same dropout mask each time
        dropout = (0.5, np.random.default_rng(6)) if drop else None
        p = softmax(dc.mlp([x], layers[:depth], dropout))
        return dc.t_mean(dc.mul(p, p))

    assert grad_check(loss, store) < 1e-6


@pytest.mark.parametrize("case", sorted(MLP_DEPTHS))
@pytest.mark.parametrize("rows", [0, 1, 9, 300])
def test_one_part_mlp_is_byte_identical_to_the_op_chain(rows, case):
    depth, drop = MLP_DEPTHS[case]
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, 6))
    x[::3] = 0.0  # zero rows: the pre-activation is the bias alone
    w = rng.normal(size=(6, 5))
    b = rng.normal(size=5)
    b[:3] = 0.0, -0.0, -1.0  # zero rows: exact zero and negative pre-activations
    w2, b2 = rng.normal(size=(5, 4)), rng.normal(size=4)
    g = rng.normal(size=(rows, 4 if depth == 2 else 5))
    g[:, 1] = -g[:, 1] ** 2  # negative upstream gradients where units are off
    results = []
    for forward in (dc.mlp, chain_mlp):
        leaves = [Tensor(v, requires_grad=True) for v in (x, w, b, w2, b2)[:2 * depth + 1]]
        layers = list(zip(leaves[1::2], leaves[2::2]))
        dropout = (0.5, np.random.default_rng(7)) if drop else None
        out = forward(leaves[:1], layers, dropout)
        grads = backward(out, g)
        results.append([out.data] + [grads[t] for t in leaves])
        if drop:
            results[-1].append(dropout[1].random())  # the stream after the draw
    for node, chain in zip(*results):
        assert np.shape(node) == np.shape(chain)
        assert np.asarray(node).tobytes() == np.asarray(chain).tobytes()  # so sign bits too
    if depth == 2 and rows:
        hidden = dc.relu(dc.add(dc.matmul(Tensor(x), Tensor(w)), Tensor(b))).data
        assert np.signbit(hidden[hidden == 0]).any()  # ReLU of a negative is -0.0


@pytest.mark.parametrize("seed_grad", [None, -2.5, 0.0])
@pytest.mark.parametrize("rows", [1, 7, 64])
def test_nll_is_byte_identical_to_the_op_chain(rows, seed_grad):
    rng = np.random.default_rng(rows)
    log_probs = log_softmax(Tensor(rng.normal(size=(rows, 4)) * 3.0)).data
    labels = rng.integers(0, 4, size=rows)
    results = []
    for loss_fn in (dc.nll, chain_nll):
        leaf = Tensor(log_probs, requires_grad=True)
        loss = loss_fn(leaf, labels)
        grads = backward(loss, None if seed_grad is None else np.array(seed_grad))
        results.append((loss.data, grads[leaf]))
    for node, chain in zip(*results):
        assert node.shape == chain.shape
        assert node.tobytes() == chain.tobytes()  # bytes, so sign bits too


def _bilinear_reference(u, mats, v, classes, g):
    """The per-row kernel it replaces: gather one matrix per row, einsum, and
    scatter the per-row matrix gradients back with ``np.add.at``."""
    per_row = mats[classes]
    out = np.einsum("bi,bij,bj->b", u, per_row, v)
    gu = np.einsum("b,bij,bj->bi", g, per_row, v)
    gv = np.einsum("b,bi,bij->bj", g, u, per_row)
    gm = np.zeros_like(mats)
    np.add.at(gm, classes, np.einsum("b,bi,bj->bij", g, u, v))
    return out, gu, gm, gv


@pytest.mark.parametrize("rows,num_classes,m,n,seed", [
    (0, 3, 4, 4, 0),        # empty batch
    (1, 2, 3, 5, 1),
    (57, 4, 6, 6, 2),       # the last class has no rows
    (500, 3, 32, 32, 3),
    (2000, 5, 7, 11, 4),
    (4000, 4, 32, 32, 5),   # the discriminator's embedding width
])
def test_rowwise_bilinear_equals_gather_reference(rows, num_classes, m, n, seed):
    # BLAS sums the products in another order than the einsums and np.add.at,
    # so each value and gradient array is compared to within 1e-12 of the
    # array's largest magnitude (4000 x 32 x 32 differs by about 1e-13)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(rows, m))
    u[::7] = 0.0
    v = rng.normal(size=(rows, n))
    mats = rng.normal(size=(num_classes, m, n))
    classes = rng.integers(0, num_classes - 1, size=rows)
    g = rng.normal(size=rows)
    g[::5] = 0.0
    ut, mt, vt = (Tensor(a, requires_grad=True) for a in (u, mats, v))
    out = dc.rowwise_bilinear(ut, mt, vt, classes)
    got = (out.data, *out._backward(g))
    for value, expected in zip(got, _bilinear_reference(u, mats, v, classes, g)):
        assert value.shape == expected.shape
        scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
        assert np.abs(value - expected).max(initial=0.0) <= 1e-12 * scale
    assert not np.any(got[2][num_classes - 1])


def test_rowwise_bilinear_rejects_out_of_range_class():
    u, mats, v = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3, 3))), Tensor(np.ones((2, 3)))
    for classes in ([0, 2], [-1, 0]):
        with pytest.raises(IndexError, match="class index"):
            dc.rowwise_bilinear(u, mats, v, classes)


def test_grad_check_log_softmax_concat():
    rng = np.random.default_rng(11)
    store = ParamStore()
    a = store.add("a", rng.normal(size=(3, 2)))
    b = store.add("b", rng.normal(size=(3, 3)))

    def loss():
        ls = log_softmax(dc.concat([a, b]))
        return dc.neg(dc.t_mean(dc.pick(ls, [0, 4, 2])))

    assert grad_check(loss, store) < 1e-6


def test_grad_check_reports_nonfinite_param():
    store = ParamStore()
    w = store.add("w", np.array([0.0]))

    def loss():
        return dc.t_sum(dc.t_log(w))  # log(0 +/- eps) explodes on one side

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="w"):
            grad_check(loss, store)


def test_sigmoid_softmax_tensor_grads():
    rng = np.random.default_rng(13)
    store = ParamStore()
    x = store.add("x", rng.normal(size=(5, 4)))

    def loss():
        return dc.t_mean(dc.mul(dc.sigmoid(x), softmax(x)))

    assert grad_check(loss, store) < 1e-6


def test_clamp_gradient_masks_out_of_range():
    x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
    grads = backward(dc.t_sum(dc.clamp(x, 0.0, 1.0)))
    np.testing.assert_allclose(grads[x], [0.0, 1.0, 0.0])


def test_dropout_scales_and_is_deterministic_per_seed():
    x = Tensor(np.ones((200, 10)))
    a = dc.dropout(x, 0.4, np.random.default_rng(5)).data
    b = dc.dropout(x, 0.4, np.random.default_rng(5)).data
    np.testing.assert_array_equal(a, b)
    kept = a[a > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.6)
    assert abs(a.mean() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# graph-free scope


def _op_cases():
    """Every op the four nets and the training objectives apply, on fixed inputs."""
    rng = np.random.default_rng(17)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=(3,)), requires_grad=True)
    mats = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    bias5 = Tensor(rng.normal(size=(5,)), requires_grad=True)
    w53 = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    rows = np.array([1, 0, 1, 1])
    cols = np.array([2, 0, 1, 2])
    return {
        "add": lambda: dc.add(a, bias),
        "neg": lambda: dc.neg(a),
        "mul": lambda: dc.mul(a, c),
        "div": lambda: dc.div(a, dc.t_exp(c)),
        "matmul": lambda: dc.matmul(a, b),
        "mlp": lambda: dc.mlp([a], [(b, bias5)]),
        "mlp_relu": lambda: dc.mlp([a], [(b, bias5), (w53, bias)]),
        "mlp_dropout": lambda: dc.mlp([a], [(b, bias5), (w53, bias)],
                                      (0.5, np.random.default_rng(4))),
        "t_exp": lambda: dc.t_exp(a),
        "t_log": lambda: dc.t_log(dc.t_exp(a)),
        "t_sum": lambda: dc.t_sum(a),
        "t_mean": lambda: dc.t_mean(a),
        "concat": lambda: dc.concat([a, c, Tensor(b.data.T[:4])]),
        "reshape": lambda: dc.reshape(mats, (2, 9)),
        "gather_rows": lambda: dc.gather_rows(mats, rows),
        "pick": lambda: dc.pick(a, cols),
        "rowwise_matvec": lambda: dc.rowwise_matvec(dc.gather_rows(mats, rows), a),
        "rowwise_bilinear": lambda: dc.rowwise_bilinear(a, mats, c, rows),
        "clamp": lambda: dc.clamp(a, -0.5, 0.5),
        "dropout": lambda: dc.dropout(a, 0.5, np.random.default_rng(4)),
        "softmax": lambda: softmax(a),
        "log_softmax": lambda: log_softmax(a),
        "relu": lambda: dc.relu(a),
        "sigmoid": lambda: dc.sigmoid(a),
    }


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_no_grad_op_is_bit_exact_and_graph_free(name):
    graph_out = _op_cases()[name]()
    assert graph_out.parents != () and graph_out._backward is not None
    with dc.no_grad():
        free_out = _op_cases()[name]()
    assert free_out.parents == () and free_out._backward is None
    assert free_out.data.dtype == graph_out.data.dtype
    assert free_out.data.tobytes() == graph_out.data.tobytes()


def _records_graph() -> bool:
    return dc.add(Tensor(1.0, requires_grad=True), Tensor(2.0)).parents != ()


def test_no_grad_restores_after_nesting_and_errors():
    assert _records_graph()
    with dc.no_grad():
        with dc.no_grad():
            assert not _records_graph()
        assert not _records_graph()  # the inner exit keeps the outer scope
    assert _records_graph()

    with pytest.raises(KeyError):
        with dc.no_grad():
            raise KeyError("boom")
    assert _records_graph()

    @dc.no_grad()
    def failing():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        failing()
    assert _records_graph()


# ---------------------------------------------------------------------------
# graphs only where a gradient is needed


def test_op_over_constants_records_no_graph():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
    out = dc.softmax(dc.add(dc.matmul(a, b), Tensor(np.ones(2))))
    assert out.parents == () and out._backward is None
    # a parent with parents of its own still needs a gradient
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    hidden = dc.matmul(a, w)
    assert hidden.parents == (a, w)
    assert dc.relu(hidden).parents == (hidden,)


def _case_leaves(build):
    """The ``requires_grad`` leaves one op case's graph reaches, in a fixed order."""
    out = build()
    leaves, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.requires_grad:
            leaves.append(node)
        stack.extend(node.parents)
    return out, leaves


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_gradients_of_parents_that_need_one_are_unchanged(name):
    # with every leaf trainable each op computes every parent's gradient;
    # freezing any subset must leave the others' gradients byte-identical
    build = _op_cases()[name]
    out, leaves = _case_leaves(build)
    g = np.random.default_rng(5).normal(size=out.shape)
    full = backward(out, g)
    for mask in range(1, 2 ** len(leaves) - 1):
        frozen = [i for i in range(len(leaves)) if mask >> i & 1]
        for i, leaf in enumerate(leaves):
            leaf.requires_grad = i not in frozen
        try:
            grads = backward(build(), g)
            for i, leaf in enumerate(leaves):
                if i in frozen:
                    assert leaf not in grads
                else:
                    assert grads[leaf].tobytes() == full[leaf].tobytes(), (name, frozen, i)
        finally:
            for leaf in leaves:
                leaf.requires_grad = True


def test_matmul_and_add_skip_parents_that_need_no_gradient():
    a = Tensor(np.ones((2, 3)))
    w = Tensor(np.ones((3, 4)), requires_grad=True)
    bias = Tensor(np.ones(4))
    prod = dc.matmul(a, w)
    ga, gw = prod._backward(np.ones((2, 4)))
    assert ga is None and gw.shape == (3, 4)
    gp, gb = dc.add(prod, bias)._backward(np.ones((2, 4)))
    assert gb is None and gp.shape == (2, 4)


def test_backward_seeded_with_an_upstream_gradient():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = dc.mul(w, w)
    np.testing.assert_array_equal(backward(out, np.array([3.0, 0.5]))[w], [6.0, 2.0])
    with pytest.raises(ValueError, match="shape"):
        backward(out, np.ones(3))


def test_added_gradient_dicts_equal_backward_of_the_summed_loss():
    # two graphs over shared leaves: their dicts added in order give the bits
    # of one backward through the sum of the two losses
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    xs = [rng.normal(size=(5, 4)) for _ in range(2)]

    def loss(x):
        return dc.t_sum(dc.mul(dc.softmax(dc.relu(dc.mlp([Tensor(x)], [(w, b)]))),
                               Tensor(x[:, :3])))

    summed = backward(dc.add(loss(xs[0]), loss(xs[1])))
    total = {}
    for x in xs:
        dc.add_grads(total, backward(loss(x)))
    assert set(total) == set(summed) == {w, b}
    for leaf in (w, b):
        assert total[leaf].tobytes() == summed[leaf].tobytes()


def test_backward_inside_no_grad_raises():
    w = Tensor(np.array([3.0]), requires_grad=True)
    loss = dc.t_sum(dc.mul(w, w))  # graph built outside the scope
    with dc.no_grad():
        with pytest.raises(RuntimeError, match="no_grad"):
            backward(loss)
    np.testing.assert_allclose(backward(loss)[w], [6.0])


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_closed_form():
    # with m,v bias-corrected, step 1 moves by lr * g / (|g| + eps)
    store = ParamStore()
    p = store.add("p", np.array([1.0]))
    Adam(store, lr=0.1).step({p: np.array([0.25])})
    np.testing.assert_allclose(p.data, [0.9000000039999998], atol=0, rtol=0)


def test_adam_without_gradient_takes_a_zero_one():
    store = ParamStore()
    p = store.add("p", np.array([1.0, -2.0]))
    opt = Adam(store, lr=0.1)
    opt.step({})
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert opt.state_dict()["step_count"] == 1


def test_adam_converges_on_quadratic():
    store = ParamStore()
    w = store.add("w", np.array([5.0, -3.0]))
    opt = Adam(store, lr=0.1)
    target = np.array([1.5, 2.5])
    for _ in range(600):
        diff = dc.add(w, Tensor(-target))
        opt.step(backward(dc.t_sum(dc.mul(diff, diff))))
    np.testing.assert_allclose(w.data, target, atol=1e-4)


def test_adam_state_roundtrip_bit_exact():
    store = ParamStore()
    w = store.add("w", np.array([2.0]))
    opt = Adam(store, lr=0.05)
    for _ in range(3):
        opt.step(backward(dc.t_sum(dc.mul(w, w))))
    snap_params = store.state_dict()
    snap_opt = opt.state_dict()

    # two more steps from the snapshot, twice, must agree bit-for-bit
    results = []
    for _ in range(2):
        store.load_state_dict(snap_params)
        opt.load_state_dict(snap_opt)
        for _ in range(2):
            opt.step(backward(dc.t_sum(dc.mul(w, w))))
        results.append(w.data.copy())
    assert results[0].tobytes() == results[1].tobytes()


def test_flat_adam_is_byte_identical_to_per_parameter_moments():
    # three parameters of different shapes; "b" has no gradient on steps 2 and
    # 4, and a state_dict round trip after step 3 resumes both sides alike
    rng = np.random.default_rng(11)
    init = {"W": rng.normal(size=(3, 4)), "b": rng.normal(size=4), "s": rng.normal(size=())}
    stores = [ParamStore() for _ in range(2)]
    for store in stores:
        for name, value in init.items():
            store.add(name, value.copy())
    flat, ref = Adam(stores[0], lr=0.05), PerParameterAdam(stores[1], lr=0.05)
    draws = [{name: rng.normal(size=v.shape) * 10.0 ** rng.integers(-6, 3)
              for name, v in init.items()} for _ in range(6)]
    for draw in draws:
        draw["W"][0, 0] = 0.0
    for k in (1, 3):
        del draws[k]["b"]

    def step(k):
        for opt in (flat, ref):
            opt.step({opt.store[name]: g for name, g in draws[k].items()})
        assert [t.data.tobytes() for _, t in stores[0].items()] == \
            [t.data.tobytes() for _, t in stores[1].items()]
        for moment in ("m", "v"):
            reference = np.concatenate([a.reshape(-1) for a in getattr(ref, moment).values()])
            assert getattr(flat, moment).tobytes() == reference.tobytes()

    for k in range(3):
        step(k)
    params, moments = stores[0].state_dict(), flat.state_dict()
    ref_params = stores[1].state_dict()
    ref_moments = ({k: a.copy() for k, a in ref.m.items()},
                   {k: a.copy() for k, a in ref.v.items()}, ref.step_count)
    for k in (3, 4):
        step(k)
    stores[0].load_state_dict(params)
    flat.load_state_dict(moments)
    stores[1].load_state_dict(ref_params)
    ref.m, ref.v, ref.step_count = ref_moments
    for k in (3, 4, 5):
        step(k)
    assert flat.step_count == 6


def test_adam_rejects_shape_mismatch():
    store = ParamStore()
    p = store.add("p", np.zeros(3))
    with pytest.raises(ValueError, match="gradient shape mismatch"):
        Adam(store, lr=0.1).step({p: np.zeros(4)})


# ---------------------------------------------------------------------------
# ParamStore


def test_param_store_duplicate_name_rejected():
    store = ParamStore()
    store.add("w", np.zeros(2))
    with pytest.raises(ValueError):
        store.add("w", np.zeros(2))


def test_param_store_fingerprint_tracks_values():
    store = ParamStore()
    w = store.add("w", np.array([1.0, 2.0]))
    before = store.fingerprint()
    w.data[0] = 99.0
    assert store.fingerprint() != before
    w.data[0] = 1.0
    assert store.fingerprint() == before


def test_param_store_union_merges_in_argument_order():
    s1, s2 = ParamStore(), ParamStore()
    a = s1.add("enc", np.zeros(3))
    b = s2.add("head", np.zeros(2))
    c = s1.add("dec", np.zeros(1))
    merged = ParamStore.union(s1, s2)
    assert merged.names() == ["enc", "dec", "head"]
    assert [t for _, t in merged.items()] == [a, c, b] and merged["head"] is b


def test_param_store_union_rejects_repeated_name():
    s1, s2 = ParamStore(), ParamStore()
    s1.add("W1", np.zeros(3))
    s2.add("W1", np.zeros(3))
    with pytest.raises(ValueError, match="duplicate parameter name 'W1'"):
        ParamStore.union(s1, s2)


# ---------------------------------------------------------------------------
# sampling


def test_sample_categorical_deterministic_and_in_range():
    probs = np.tile(np.array([0.2, 0.5, 0.3]), (1000, 1))
    a = sample_categorical(np.random.default_rng(42), probs)
    b = sample_categorical(np.random.default_rng(42), probs)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 0 and a.max() <= 2


def test_sample_categorical_frequencies():
    probs = np.tile(np.array([0.1, 0.9]), (20000, 1))
    draws = sample_categorical(np.random.default_rng(1), probs)
    assert abs(draws.mean() - 0.9) < 0.01


def test_sample_categorical_is_categorical_at_its_uniforms():
    probs = dc.softmax(Tensor(np.random.default_rng(5).normal(size=(500, 4)))).data
    draws = sample_categorical(np.random.default_rng(8), probs)
    uniforms = np.random.default_rng(8).random(500)
    np.testing.assert_array_equal(dc.categorical_at(probs, uniforms), draws)


def test_sample_categorical_degenerate_rows():
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    draws = sample_categorical(np.random.default_rng(2), probs)
    np.testing.assert_array_equal(draws, [0, 2])


def test_glorot_uniform_within_limit():
    rng = np.random.default_rng(0)
    w = dc.glorot_uniform(rng, (64, 32))
    limit = np.sqrt(6.0 / 96.0)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0.5 * limit / np.sqrt(3.0)
