"""Dense float64 tensors with reverse-mode autodiff and Adam.

The compute graph is kept implicitly: every Tensor produced by an op holds
references to its parent tensors plus a closure mapping the output gradient to
parent gradients. ``backward`` walks the graph in reverse topological order
and returns the gradient of every ``requires_grad`` leaf it reaches, as a
``{leaf: gradient}`` dict; ``Adam.step`` takes that dict. Gradients are a
return value, not state, so nothing has to be reset between steps, and graphs
built on several threads at once, which share only their leaves, never write
to one place: adding their dicts with ``add_grads`` in a fixed order gives the
same bits on any number of threads.

The sweep hands each node's gradient to its closure and keeps no reference
to it, nor to the parent gradients once it has added them up, so a closure
that makes a masked copy (``clamp``'s) frees the gradient it was given, and
two such gradients never coexist. Closures never write into their input;
``mlp``'s masks in place only arrays it made itself.

Ops take and return Tensors only, and a Tensor has no arithmetic operators:
a graph is spelled with the ops, a constant as a ``Tensor`` of its own.
``entropy`` and ``categorical_at`` (a class per row at given uniform draws)
are the array utilities.

An op over parents that need no gradient records no graph either: a parent
needs one when it is a ``requires_grad`` leaf or has parents itself, so
constants and frozen parameters cost no backward work, and ``matmul``,
``add`` and ``mlp`` skip the product or bias sum of a parent that needs
none. The gradients of the parents that do need one are unchanged.

Inside a ``no_grad()`` scope no graph is recorded: op outputs keep neither
parents nor a backward closure, so each intermediate array is freed as soon
as the next op has consumed it. The arrays themselves are computed by the
same NumPy calls, so values are bit-identical to graph mode. Wrap every pass
that only reads ``.data`` (grid logging, scoring, evaluation, export) in it;
calling ``backward`` inside the scope raises. The grad mode is one flag per
process, not per thread: set it before a pass hands row blocks to other
threads, and leave it alone until the pass is over, because a scope entered
or left on one thread switches it for all of them.

``nll(log_probs, labels)``, the mean negative log-likelihood, is one node:
its value and gradient are those of ``neg(t_mean(pick(log_probs, labels)))``,
byte for byte.

``mlp(parts, layers, dropout)`` is a whole perceptron as one node, and every
layer of the four nets runs in one: the concatenation of ``parts`` (a single
part is read as it is, not copied) through ``(w, b)`` layers with ReLU
between them. Each layer's bias add and ReLU run in place on its product;
with ``dropout=(rate, rng)``, each hidden ReLU's output is then multiplied in
place by the mask ``dropout`` would draw, at the same point of ``rng``'s
stream. So its value and its gradients are those of ``concat``, then
``relu(add(matmul(h, w), b))`` and ``dropout`` per hidden layer and
``add(matmul(h, w), b)`` for the last, byte for byte (-0.0 too; but see the
frozen case below). Its parents are only the tensors that need a gradient,
so constant inputs and frozen weights are never held; it keeps a layer's
input only when that layer's weight needs a gradient, and the masks. Its
backward multiplies by a layer's dropout mask, then by its ReLU mask, in
place, and frees each kept array once it has read it, so the node's
backward runs once: a second raises ``RuntimeError``. The parts' gradients
are one full ``g @ w.T`` of the first layer, split as ``concat`` splits it;
a single part that needs one under a constant first layer (a frozen net's
codes) takes its columns alone, through the transposed view of its rows of
``w``, so no (rows, input width) gradient is made. Those columns equal the
full product's bytes at the CRM step's block heights, not at every height.

``rowwise_bilinear(u, mats, v, classes)`` reads row b's matrix from a
(C, m, n) class table by index and works class by class, so neither its
forward nor its backward allocates a (B, m, n) array of gathered matrices.

A ``ParamStore`` names one net's parameter leaves, and every leaf has one
store. ``ParamStore.union`` merges stores, rejecting a repeated name, so one
``Adam`` can step several nets together (the discriminator and the aux net).

Everything is float64, and stochastic ops take an explicit
``numpy.random.Generator``, so runs are bit-reproducible per seed on a given
BLAS thread count. NumPy's BLAS uses one thread per core unless
``OPENBLAS_NUM_THREADS`` (or ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) pins
it, and the thread count moves the last bits of matrix products, and with
them every later value; importing ``crowdaug`` before NumPy pins it to one.
"""
from __future__ import annotations

import hashlib
from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

_grad_enabled = True


@contextmanager
def no_grad():
    """Scope (or function decorator) in which ops record no graph."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """One node of the compute graph wrapping a dense float64 array."""

    __slots__ = ("data", "requires_grad", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward_fn=None):
        self.data = _as_f64(data)
        self.requires_grad = bool(requires_grad)
        if not _grad_enabled or not any(map(_needs_grad, parents)):
            parents, backward_fn = (), None
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self._backward: Callable[[Array], tuple] | None = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __len__(self) -> int:
        return len(self.data)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t.parents)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    need_a, need_b = _needs_grad(a), _needs_grad(b)

    def back(g):
        return (_unbroadcast(g, a.shape) if need_a else None,
                _unbroadcast(g, b.shape) if need_b else None)

    return Tensor(out, parents=(a, b), backward_fn=back)


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, parents=(a,), backward_fn=lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out, parents=(a, b), backward_fn=back)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def back(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return Tensor(out, parents=(a, b), backward_fn=back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    out = a.data @ b.data
    need_a, need_b = _needs_grad(a), _needs_grad(b)

    def back(g):
        return (g @ b.data.T if need_a else None,
                a.data.T @ g if need_b else None)

    return Tensor(out, parents=(a, b), backward_fn=back)


def mlp(parts: Sequence[Tensor], layers: Sequence[tuple[Tensor, Tensor]],
        dropout: tuple[float, np.random.Generator] | None = None) -> Tensor:
    """The concatenation of ``parts`` along the last axis through the ``(w, b)``
    ``layers``, ReLU between layers, each followed by a dropout mask drawn from
    ``rng`` given ``dropout=(rate, rng)``, as one node whose backward runs once
    (see the module docstring)."""
    if any(p.data.ndim != 2 for p in parts) or any(w.data.ndim != 2 for w, _ in layers):
        raise ValueError("mlp expects 2-D parts and weights")

    def needs(t: Tensor) -> bool:
        return _grad_enabled and _needs_grad(t)

    grad_parts = [i for i, p in enumerate(parts) if needs(p)]
    need_w = [needs(w) for w, _ in layers]
    need_b = [needs(b) for _, b in layers]
    keep = bool(grad_parts) or any(need_w) or any(need_b)
    # the one part that needs a gradient under a constant first layer (a
    # frozen net's codes) takes its columns alone; else the input gradient is
    # the full product, split as concat splits it
    one_part = grad_parts[0] if len(grad_parts) == 1 and not need_w[0] else None
    inputs: list[Array | None] = []  # a layer's input, kept when its w needs a gradient
    masks: list[list[Array]] = []  # a layer's masks, in the order the forward applied them
    h = parts[0].data if len(parts) == 1 else np.concatenate([p.data for p in parts], axis=-1)
    for k, (w, b) in enumerate(layers):
        if keep:
            inputs.append(h if need_w[k] else None)
        h = h @ w.data  # the layer's input is freed here unless kept
        h += b.data
        applied = []
        if k < len(layers) - 1:
            applied.append(h > 0)
            if dropout is not None:
                rate, rng = dropout
                applied.append((rng.random(h.shape) >= rate) / (1.0 - rate))
            for mask in applied:
                h *= mask
        if keep:
            masks.append(applied)
    bounds = list(accumulate((p.data.shape[-1] for p in parts), initial=0))

    def back(g):
        if not masks:
            raise RuntimeError("an mlp node's backward runs once; its saved arrays are freed")
        found = []  # the parents' gradients, last parent first
        for k in reversed(range(len(layers))):
            w, b = layers[k]
            applied = masks.pop()
            while applied:
                g *= applied.pop()  # g is this node's own product with the layer above's w
            if need_b[k]:
                found.append(_unbroadcast(g, b.shape))
            x = inputs.pop()
            if x is not None:
                found.append(x.T @ g)
            del x  # freed before the input gradient is made
            if k == 0 and one_part is not None:
                # the transposed view of the part's rows of w gives the full
                # product's columns bit for bit at the CRM step's block heights
                # (2048-4095 rows, and 1000), a contiguous copy of it does not
                g = g @ w.data[bounds[one_part]:bounds[one_part + 1]].T
            elif k > 0 or grad_parts:
                g = g @ w.data.T
        if one_part is not None:
            found.append(g)
        elif grad_parts:
            pieces = np.split(g, bounds[1:-1], axis=-1)
            found += [pieces[i] for i in reversed(grad_parts)]
        return tuple(reversed(found))

    parents = [parts[i] for i in grad_parts]
    for (w, b), nw, nb in zip(layers, need_w, need_b):
        parents += [t for t, need in ((w, nw), (b, nb)) if need]
    return Tensor(h, parents=parents, backward_fn=back)


def t_exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return Tensor(out, parents=(a,), backward_fn=lambda g: (g * out,))


def t_log(a: Tensor) -> Tensor:
    out = np.log(a.data)
    return Tensor(out, parents=(a,), backward_fn=lambda g: (g / a.data,))


def t_sum(a: Tensor) -> Tensor:
    """The sum of every entry."""
    return Tensor(a.data.sum(), parents=(a,),
                  backward_fn=lambda g: (np.broadcast_to(g, a.shape).copy(),))


def t_mean(a: Tensor) -> Tensor:
    return mul(t_sum(a), Tensor(1.0 / a.data.size))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join along the last axis."""
    out = np.concatenate([p.data for p in parts], axis=-1)
    splits = np.cumsum([p.data.shape[-1] for p in parts])[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=-1))

    return Tensor(out, parents=tuple(parts), backward_fn=back)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return Tensor(out, parents=(a,), backward_fn=lambda g: (g.reshape(a.shape),))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows (leading-axis entries) by integer index, with repeats."""
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]

    def back(g):
        # each column of a 2-D view summed onto zeros in row order, as
        # np.add.at sums it, byte for byte
        cols = g.reshape(len(idx), int(np.prod(a.shape[1:])))
        ga = np.empty((len(a.data), cols.shape[1]))
        for j in range(cols.shape[1]):
            ga[:, j] = np.bincount(idx, weights=cols[:, j], minlength=len(a.data))
        return (ga.reshape(a.shape),)

    return Tensor(out, parents=(a,), backward_fn=back)


def pick(a: Tensor, idx) -> Tensor:
    """Per-row element selection: out[b] = a[b, idx[b]]."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(a.shape[0])
    out = a.data[rows, idx]

    def back(g):
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g  # one entry per row, so nothing to accumulate
        return (ga,)

    return Tensor(out, parents=(a,), backward_fn=back)


def nll(log_probs: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of ``labels`` under (B, C) ``log_probs``,
    as one node (see the module docstring)."""
    idx = np.asarray(labels, dtype=np.int64)
    rows = np.arange(log_probs.shape[0])
    picked = log_probs.data[rows, idx]
    scale = 1.0 / picked.size
    out = -(picked.sum() * scale)

    def back(g):
        ga = np.zeros_like(log_probs.data)
        ga[rows, idx] = -g * scale
        return (ga,)

    return Tensor(out, parents=(log_probs,), backward_fn=back)


def rowwise_matvec(m: Tensor, v: Tensor) -> Tensor:
    """Per-row matrix-vector product: out[b] = m[b] @ v[b]."""
    out = np.einsum("bij,bj->bi", m.data, v.data)

    def back(g):
        gm = np.einsum("bi,bj->bij", g, v.data)
        gv = np.einsum("bij,bi->bj", m.data, g)
        return gm, gv

    return Tensor(out, parents=(m, v), backward_fn=back)


def rowwise_bilinear(u: Tensor, mats: Tensor, v: Tensor, classes) -> Tensor:
    """Per-row bilinear form over a class table: out[b] = u[b] @ mats[classes[b]] @ v[b].

    Rows are grouped by class, and each group is one BLAS product with its
    (m, n) matrix: ``((v_c @ M_c.T) * u_c).sum(1)`` forward, and
    ``(g_c * u_c).T @ v_c`` for the matrix's gradient. No per-row copy of the
    (C, m, n) table and no (B, m, n) intermediate is made.
    """
    classes = np.asarray(classes, dtype=np.int64)
    num_classes = mats.shape[0]
    if classes.size and (classes.min() < 0 or classes.max() >= num_classes):
        raise IndexError(f"class index out of range for {num_classes} matrices")
    groups = [np.flatnonzero(classes == c) for c in range(num_classes)]
    out = np.empty(len(classes))
    for c, idx in enumerate(groups):
        out[idx] = ((v.data[idx] @ mats.data[c].T) * u.data[idx]).sum(1)

    def back(g):
        gu, gv = np.empty_like(u.data), np.empty_like(v.data)
        gm = np.empty_like(mats.data)
        for c, idx in enumerate(groups):
            g_c, m_c = g[idx, None], mats.data[c]
            gu[idx] = g_c * (v.data[idx] @ m_c.T)
            gv[idx] = g_c * (u.data[idx] @ m_c)
            gm[c] = (g_c * u.data[idx]).T @ v.data[idx]
        return gu, gm, gv

    return Tensor(out, parents=(u, mats, v), backward_fn=back)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is zero where the clip binds."""
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)
    return Tensor(out, parents=(a,), backward_fn=lambda g: (g * inside,))


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in train mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return Tensor(a.data * mask, parents=(a,), backward_fn=lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# nonlinearities (graph tensors) and array utilities; softmax, log_softmax and
# entropy work along the last axis, a row's classes


def _shifted_logits(x: Tensor) -> Array:
    """``x`` minus its max along the last axis; non-finite logits raise
    ``FloatingPointError``, which training reports as divergence."""
    if not np.all(np.isfinite(x.data)):
        raise FloatingPointError("softmax input contains non-finite values")
    return x.data - x.data.max(axis=-1, keepdims=True)


def softmax(x: Tensor) -> Tensor:
    """Exp-normalized probabilities (max-shifted for stability)."""
    ex = np.exp(_shifted_logits(x))
    s = ex / ex.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return Tensor(s, parents=(x,), backward_fn=back)


def log_softmax(x: Tensor) -> Tensor:
    shifted = _shifted_logits(x)
    ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def back(g):
        return (g - np.exp(ls) * g.sum(axis=-1, keepdims=True),)

    return Tensor(ls, parents=(x,), backward_fn=back)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor(x.data * mask, parents=(x,), backward_fn=lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    s = np.empty_like(x.data)
    pos = x.data >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    s[~pos] = ex / (1.0 + ex)
    return Tensor(s, parents=(x,), backward_fn=lambda g: (g * s * (1.0 - s),))


def entropy(p):
    """Shannon entropy in nats, with 0*log(0) = 0."""
    p = _as_f64(p)
    if np.any(p < 0):
        raise ValueError("entropy input has negative entries")
    if np.any(p > 1.0 + 1e-9):
        raise ValueError("entropy input has entries > 1")
    sums = p.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise ValueError("entropy input rows must sum to 1 within 1e-9")
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def categorical_at(probs: Array, u: Array) -> Array:
    """The class of each row of a (B, C) probability matrix at its uniform
    draw ``u``: the first class whose cumulative probability exceeds it."""
    cum = np.cumsum(probs, axis=1)
    idx = (u[:, None] >= cum).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, grad: Array | None = None) -> dict:
    """Reverse-mode sweep from a scalar loss; returns ``{leaf: gradient}`` for
    every ``requires_grad`` leaf the sweep reaches.

    ``grad``, shaped like ``loss``, seeds the sweep with an upstream gradient
    instead, so ``loss`` may be any tensor. The returned arrays may be shared
    with ``grad`` or with each other: read them, never write to them. A
    node's gradient is handed to its closure and not kept (see the module
    docstring).
    """
    if not _grad_enabled:
        raise RuntimeError("backward called inside a no_grad scope")
    if grad is None:
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        grad = np.ones_like(loss.data)
    elif grad.shape != loss.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match {loss.shape}")
    order = _toposort(loss)
    grads: dict[int, Array] = {id(loss): grad}
    leaf_grads: dict[Tensor, Array] = {}
    for node in reversed(order):
        if id(node) not in grads:
            continue
        if node._backward is not None:
            # popped straight into the closure: nothing else holds the gradient
            _hand_on(grads, node.parents, node._backward(grads.pop(id(node))))
        elif node.requires_grad:
            leaf_grads[node] = grads.pop(id(node))
        else:
            del grads[id(node)]
    return leaf_grads


def _hand_on(grads: dict, parents: tuple, parent_grads: tuple) -> None:
    """Add a node's ``parent_grads`` into ``grads``; the tuple and its arrays
    are dropped on return, so only ``grads`` keeps them."""
    for parent, pg in zip(parents, parent_grads):
        if pg is not None:
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


def add_grads(total: dict, more: dict) -> None:
    """Add the ``{leaf: gradient}`` dict ``more`` into ``total``, leaf by leaf."""
    for leaf, g in more.items():
        acc = total.get(leaf)
        total[leaf] = g if acc is None else acc + g


# ---------------------------------------------------------------------------
# parameters


class ParamStore:
    """Named parameter leaves; insertion order is preserved."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        return self.add_tensor(name, Tensor(data, requires_grad=True))

    def add_tensor(self, name: str, t: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def state_dict(self) -> dict[str, Array]:
        return {k: t.data.copy() for k, t in self._params.items()}

    def load_state_dict(self, state: dict[str, Array]) -> None:
        for k, t in self._params.items():
            arr = _as_f64(state[k])
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {k!r}: {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for k, t in self._params.items():
            h.update(k.encode())
            h.update(np.ascontiguousarray(t.data).tobytes())
        return h.hexdigest()

    @staticmethod
    def union(*stores: "ParamStore") -> "ParamStore":
        """Merge stores, in argument order, for joint optimization; a name
        that two stores share raises."""
        merged = ParamStore()
        for store in stores:
            for name, t in store.items():
                merged.add_tensor(name, t)
        return merged


def glorot_uniform(rng: np.random.Generator, shape) -> Array:
    """Uniform draws in +-sqrt(6 / (fan_in + fan_out)), the fans being the
    last two axes (a vector's one axis twice)."""
    fan_in = shape[-2] if len(shape) >= 2 else shape[-1]
    limit = np.sqrt(6.0 / (fan_in + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a ParamStore. ``step`` takes a ``{leaf: gradient}`` dict, as
    ``backward`` returns it, and reads its parameters' entries; a parameter
    without an entry takes a zero gradient.

    The moments ``m`` and ``v`` are two flat arrays over the store's
    parameters in store order, allocated once, at the first step (an
    optimizer that never stepped holds none). A step copies the gradients
    into one flat array, applies each update operation once over all of
    them, and subtracts each parameter's slice of the update in place. Every
    operation is elementwise, so the bits are those of a parameter-by-parameter
    update."""

    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = lr
        self.step_count = 0
        self._slices: list[tuple[str, Tensor, slice]] = []
        self._size = 0
        for name, t in store.items():
            self._slices.append((name, t, slice(self._size, self._size + t.data.size)))
            self._size += t.data.size
        self.m: Array | None = None
        self.v: Array | None = None

    def step(self, grads: dict) -> None:
        """One in-place update of every parameter of the store by ``grads``.

        A step that overflows warns nothing: its non-finite parameters make
        the next forward pass's logits non-finite, and softmax raises."""
        g = np.empty(self._size)
        for name, t, at in self._slices:
            if t not in grads:
                g[at] = 0.0
                continue
            grad = grads[t]
            if grad.shape != t.data.shape:
                raise ValueError(f"gradient shape mismatch for {name!r}: "
                                 f"{grad.shape} vs {t.data.shape}")
            g[at] = grad.reshape(-1)
        if self.m is None:
            self.m, self.v = np.zeros(self._size), np.zeros(self._size)
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        m, v = self.m, self.v
        with np.errstate(over="ignore", invalid="ignore"):
            m *= ADAM_BETA1
            update = (1.0 - ADAM_BETA1) * g
            m += update
            v *= ADAM_BETA2
            g *= g
            g *= 1.0 - ADAM_BETA2
            v += g
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), in that order
            np.divide(m, bc1, out=update)
            update *= self.lr
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            update /= g
            for _, t, at in self._slices:
                t.data -= update[at].reshape(t.data.shape)

    def state_dict(self) -> dict:
        return {"step_count": self.step_count,
                "m": None if self.m is None else self.m.copy(),
                "v": None if self.v is None else self.v.copy()}

    def load_state_dict(self, d: dict) -> None:
        self.step_count = d["step_count"]
        self.m = None if d["m"] is None else d["m"].copy()
        self.v = None if d["v"] is None else d["v"].copy()
