"""The four differentiable networks of the augmentation pipeline.

- Classifier: instance features -> predicted class distribution (the latent
  code the generator conditions on).
- Generator: (instance, annotator, predicted distribution, noise) -> a
  distribution over annotation labels. With an ablation switch off it reads
  zeros in place of the instance or annotator features it is given.
- Discriminator: bilinear scorer sigma(u_r^T M_y v_n) over encoded annotator
  and instance vectors, with a label-correlation decoder that always mixes
  the per-class bilinear matrices through the co-occurrence propagation
  matrix: M_hat_c = sum_c' P[c,c'] * M_c' * W. Each row is scored against
  its label's matrix in the (C, m, m) table (``diffcore.rowwise_bilinear``),
  so no (B, m, m) copy of the table is made.
- Auxiliary net: recovers the classifier's distribution from a generated
  annotation. It reads the discriminator's encoding of the row and owns only
  its head: it embeds the flattened (C, m*m) table once and gathers each
  row's label embedding, so its graph keeps no (B, m*m) copy of the table.

The discriminator and the aux net judge the same encoding: ``Discriminator.
encode(x, e)`` gives a row batch's ``(u, v)`` and ``decoded_matrices(P)``
the table, and ``Discriminator.score`` and ``AuxNet.logits`` both take
``(u, v, mats, y)``, so a training step encodes each row batch and decodes
the table once for both judges. Each parameter has one owning store; D and
Q train together through ``ParamStore.union`` of their two stores.

Every perceptron is one ``diffcore.mlp`` node: the classifier, with its
dropout (rate ``DROPOUT``) drawn inside the node when given an rng, the
generator and the aux net's head over their input parts, and the one-layer
encoders and class-table embedding. Only the discriminator's class-matrix
mixing calls ``matmul``. ``Generator.logits`` with ``frozen=True`` serves
the step that trains the classifier's codes through a generator it holds
fixed: the node reads constant copies of the weights, so its only parent is
the code tensor, it keeps the two ReLU masks and no activation, and it
returns the code columns of the input gradient alone.

Each net lists its parameters as ``(name, shape, init)`` in ``spec(dims)``,
from which it is built. This module also owns the checkpoint schema: a
checkpoint holds the classifier alone or all four nets with the propagation
matrix P, each array named ``<net>.<name>`` with the shape
``checkpoint_shapes`` gives without building a net, plus the ``meta.*``
scalars of their ``NetDims``.
``checkpoint_arrays`` writes that schema, ``checked_nets`` decodes the
widths and checks every array before any net is built, and ``restore_nets``
builds the nets from the arrays.

All forwards accept plain numpy batches and return graph Tensors, except
inside a ``diffcore.no_grad`` scope, where the same values come back without
a graph (nothing to back-propagate). Every output-layer weight starts at zero
so freshly built classifier/generator/aux nets emit exactly uniform
distributions (the discriminator's class matrices start random so its
gradients are live from step one).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import diffcore as dc
from .diffcore import ParamStore, Tensor
from .objectives import CLAMP_HI, CLAMP_LO

DROPOUT = 0.5  # the classifier's dropout rate in training


@dataclass(frozen=True)
class NetDims:
    """Widths and switches shared by all four networks.

    The two ``gen_use_*`` switches say whether the generator reads instance
    and annotator features or zeros in their place (``Generator.logits``).
    """

    num_classes: int
    feature_dim: int
    annotator_dim: int
    noise_dim: int = 8
    clf_hidden: int = 128
    gen_hidden1: int = 64
    gen_hidden2: int = 128
    aux_hidden1: int = 64
    aux_hidden2: int = 128
    embed_dim: int = 32        # discriminator encoder output width
    class_embed_dim: int = 16  # low-dim embedding of the flattened class matrix
    gen_use_instance_features: bool = True
    gen_use_annotator_features: bool = True

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")


def _check_batch(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{what} must have shape (batch, {dim}), got {x.shape}")
    return x


class _Net:
    """A net built from its ``spec(dims)``: a store of the ``(name, shape,
    init)`` parameters it lists, in order; "glorot" draws from ``rng``,
    "zeros" and "eye" draw nothing."""

    def __init__(self, dims: NetDims, rng: np.random.Generator):
        self.dims = dims
        self.store = ParamStore()
        for name, shape, init in self.spec(dims):
            self.store.add(name, dc.glorot_uniform(rng, shape) if init == "glorot"
                           else np.eye(*shape) if init == "eye" else np.zeros(shape))


def _class_index(y, num_classes: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError("class index out of range")
    return y


class Classifier(_Net):
    """One hidden ReLU layer into class logits; given an rng (training), the
    hidden layer drops units at rate ``DROPOUT``."""

    @staticmethod
    def spec(d: NetDims) -> list:
        return [("W1", (d.feature_dim, d.clf_hidden), "glorot"),
                ("b1", (d.clf_hidden,), "zeros"),
                ("W2", (d.clf_hidden, d.num_classes), "zeros"),
                ("b2", (d.num_classes,), "zeros")]

    def logits(self, x: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
        x = _check_batch(x, self.dims.feature_dim, "classifier input")
        p = self.store
        dropout = None if rng is None else (DROPOUT, rng)
        return dc.mlp([Tensor(x)], [(p["W1"], p["b1"]), (p["W2"], p["b2"])], dropout)

    def probs(self, x, rng=None) -> Tensor:
        return dc.softmax(self.logits(x, rng))


class Generator(_Net):
    """Two ReLU layers over [x; e; zhat; noise] into annotation-label logits."""

    @staticmethod
    def spec(d: NetDims) -> list:
        d_in = d.feature_dim + d.annotator_dim + d.num_classes + d.noise_dim
        return [("W1", (d_in, d.gen_hidden1), "glorot"),
                ("b1", (d.gen_hidden1,), "zeros"),
                ("W2", (d.gen_hidden1, d.gen_hidden2), "glorot"),
                ("b2", (d.gen_hidden2,), "zeros"),
                ("W3", (d.gen_hidden2, d.num_classes), "zeros"),
                ("b3", (d.num_classes,), "zeros")]

    def draw_noise(self, rng: np.random.Generator, batch: int) -> np.ndarray:
        return rng.standard_normal((batch, self.dims.noise_dim))

    def _inputs(self, x, e, zhat, eps) -> list[Tensor]:
        """The checked parts ``[x, e, zhat, eps]`` of the input row; ``x``
        (``e``) reads as zeros when ``gen_use_instance_features``
        (``gen_use_annotator_features``) is off."""
        d = self.dims
        x = _check_batch(x, d.feature_dim, "generator instance input")
        e = _check_batch(e, d.annotator_dim, "generator annotator input")
        if not d.gen_use_instance_features:
            x = np.zeros_like(x)
        if not d.gen_use_annotator_features:
            e = np.zeros_like(e)
        eps = _check_batch(eps, d.noise_dim, "generator noise")
        if not isinstance(zhat, Tensor):
            zhat = Tensor(_check_batch(zhat, d.num_classes, "generator zhat"))
        elif zhat.shape[1] != d.num_classes:
            raise ValueError(f"generator zhat must have width {d.num_classes}")
        return [Tensor(x), Tensor(e), zhat, Tensor(eps)]

    def logits(self, x, e, zhat, eps, frozen: bool = False) -> Tensor:
        """Label logits of each row (see ``_inputs``), as one ``diffcore.mlp``
        node. ``frozen`` holds the parameters fixed: the node reads constant
        copies of them, so its only parent is a code tensor that needs a
        gradient, and it keeps the two ReLU masks and no activation."""
        p = self.store
        layers = [(p[f"W{i}"], p[f"b{i}"]) for i in (1, 2, 3)]
        if frozen:
            layers = [(Tensor(w.data), Tensor(b.data)) for w, b in layers]
        return dc.mlp(self._inputs(x, e, zhat, eps), layers)

    def distribution(self, x, e, zhat, eps) -> Tensor:
        return dc.softmax(self.logits(x, e, zhat, eps))

    def log_distribution(self, x, e, zhat, eps) -> Tensor:
        return dc.log_softmax(self.logits(x, e, zhat, eps))


class Discriminator(_Net):
    """Bilinear authenticity scorer with label-correlation mixing."""

    @staticmethod
    def spec(d: NetDims) -> list:
        m = d.embed_dim
        return [("Wu", (d.annotator_dim, m), "glorot"),
                ("bu", (m,), "zeros"),
                ("Wv", (d.feature_dim, m), "glorot"),
                ("bv", (m,), "zeros"),
                ("M", (d.num_classes, m, m), "glorot"),
                # identity-initialized mixing keeps decoded matrices live at step one
                ("Wmix", (m, m), "eye")]

    def encode(self, x, e) -> tuple[Tensor, Tensor]:
        """Encoded annotators ``u`` and instances ``v`` of a row batch, which
        ``score`` and ``AuxNet.logits`` both read."""
        d, p = self.dims, self.store
        e = _check_batch(e, d.annotator_dim, "discriminator annotator input")
        x = _check_batch(x, d.feature_dim, "discriminator instance input")
        return (dc.mlp([Tensor(e)], [(p["Wu"], p["bu"])]),
                dc.mlp([Tensor(x)], [(p["Wv"], p["bv"])]))

    def decoded_matrices(self, propagation: np.ndarray) -> Tensor:
        """Per-class bilinear matrices mixed through the (C, C) co-occurrence
        propagation matrix (``data.build_cooccurrence``)."""
        c, m = self.dims.num_classes, self.dims.embed_dim
        mixed = dc.matmul(Tensor(propagation), dc.reshape(self.store["M"], (c, m * m)))
        stacked = dc.reshape(mixed, (c * m, m))
        return dc.reshape(dc.matmul(stacked, self.store["Wmix"]), (c, m, m))

    def score(self, u: Tensor, v: Tensor, mats: Tensor, y) -> Tensor:
        """Realism of each row from its encoding ``u``, ``v`` (``encode``) and
        the decoded table ``mats`` (``decoded_matrices``) at label ``y``."""
        y = _class_index(y, self.dims.num_classes)
        # clamp away float64 saturation so the output stays strictly inside (0,1)
        return dc.clamp(dc.sigmoid(dc.rowwise_bilinear(u, mats, v, y)), CLAMP_LO, CLAMP_HI)


class AuxNet(_Net):
    """Predicts the classifier's distribution from one annotation.

    Reads the discriminator's encoding of the row (passed in; the encoders
    stay in D's store) plus a low-dim embedding of the annotation's decoded
    class matrix: the (C, m*m) table is embedded once and each row takes its
    label's embedding.
    """

    @staticmethod
    def spec(d: NetDims) -> list:
        m, ce = d.embed_dim, d.class_embed_dim
        return [("Wembed", (m * m, ce), "glorot"),
                ("bembed", (ce,), "zeros"),
                ("W1", (2 * m + ce, d.aux_hidden1), "glorot"),
                ("b1", (d.aux_hidden1,), "zeros"),
                ("W2", (d.aux_hidden1, d.aux_hidden2), "glorot"),
                ("b2", (d.aux_hidden2,), "zeros"),
                ("W3", (d.aux_hidden2, d.num_classes), "zeros"),
                ("b3", (d.num_classes,), "zeros")]

    def logits(self, u: Tensor, v: Tensor, mats: Tensor, y) -> Tensor:
        """Code logits of each row from the discriminator's encoding ``u``,
        ``v`` and decoded table ``mats`` at label ``y``."""
        d, p = self.dims, self.store
        y = _class_index(y, d.num_classes)
        c, m = d.num_classes, d.embed_dim
        table = dc.mlp([dc.reshape(mats, (c, m * m))], [(p["Wembed"], p["bembed"])])
        return dc.mlp([v, u, dc.gather_rows(table, y)],
                      [(p[f"W{i}"], p[f"b{i}"]) for i in (1, 2, 3)])

    def log_posterior(self, u: Tensor, v: Tensor, mats: Tensor, y) -> Tensor:
        return dc.log_softmax(self.logits(u, v, mats, y))


NETS = {"classifier": Classifier, "generator": Generator,
        "discriminator": Discriminator, "aux": AuxNet}


def checkpoint_shapes(dims: NetDims, nets: tuple[str, ...]) -> dict[str, tuple]:
    """``{name: shape}`` of every array the named nets keep in a checkpoint,
    in saved order and without building a net: each parameter as
    ``<net>.<name>``, then, with the discriminator (the one net that reads
    it), the propagation matrix as ``adjacency.propagation``."""
    shapes = {f"{net}.{name}": shape
              for net in nets for name, shape, _ in NETS[net].spec(dims)}
    if "discriminator" in nets:
        shapes["adjacency.propagation"] = (dims.num_classes,) * 2
    return shapes


def checkpoint_arrays(dims: NetDims, stores: dict[str, ParamStore],
                      propagation: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Copies of the checkpoint arrays of the nets whose ``stores`` are given
    by name: the names of ``checkpoint_shapes``, then ``meta.has_bundle``
    (1 when all four nets are there) and one ``meta.<field>`` scalar per
    ``NetDims`` field, in field order."""
    out = {f"{net}.{name}": tensor.data.copy()
           for net, store in stores.items() for name, tensor in store.items()}
    if propagation is not None:
        out["adjacency.propagation"] = propagation.copy()
    out["meta.has_bundle"] = np.array(float(len(stores) == len(NETS)))
    out.update({f"meta.{f.name}": np.array(float(getattr(dims, f.name)))
                for f in fields(NetDims)})
    return out


_META_TYPES = {"int": int, "bool": bool}


def _meta(arrays: dict, name: str, kind: str):
    """``meta.<name>`` as a ``kind`` ("int" or "bool"): a finite
    scalar, integral for an int and 0 or 1 for a bool, else ``ValueError``."""
    key = f"meta.{name}"
    value = arrays[key]
    if value.shape != ():
        raise ValueError(f"{key} must be a scalar, got shape {value.shape}")
    value = float(value)
    if not math.isfinite(value) or kind == "int" and not value.is_integer() \
            or kind == "bool" and value not in (0.0, 1.0):
        raise ValueError(f"{key} = {value} is not a valid {kind}")
    return _META_TYPES[kind](value)


def checked_nets(arrays: dict, bundle: bool) -> tuple[NetDims, tuple[str, ...]]:
    """The widths of a checkpoint's nets and the nets to read from it: all
    four when ``bundle`` is asked and the checkpoint holds them
    (``meta.has_bundle``), else the classifier.

    Before any net is built, every ``meta.*`` width is decoded and every
    array those nets read is checked: present, of the shape the widths give,
    and finite. A missing array raises ``KeyError``, anything else
    ``ValueError``; a shape mismatch names the widths that size the array
    (those whose change would change its shape)."""
    dims = NetDims(**{f.name: _meta(arrays, f.name, f.type) for f in fields(NetDims)})
    nets = tuple(NETS) if bundle and _meta(arrays, "has_bundle", "bool") else ("classifier",)
    for name, shape in checkpoint_shapes(dims, nets).items():
        if arrays[name].shape != shape:
            widths = [w for w in (f.name for f in fields(NetDims) if f.type == "int")
                      if checkpoint_shapes(replace(dims, **{w: getattr(dims, w) + 1}),
                                           nets)[name] != shape]
            given = ", ".join(f"meta.{w} = {getattr(dims, w)}" for w in widths)
            raise ValueError(f"shape mismatch for {name!r}: {arrays[name].shape}, but "
                             f"{given} give {shape}")
        if not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"{name!r} holds a non-finite value")
    return dims, nets


@dataclass
class NetworkBundle:
    """All four parameter sets plus the co-occurrence propagation matrix the
    discriminator mixes its class matrices through."""

    dims: NetDims
    classifier: Classifier
    generator: Generator
    discriminator: Discriminator
    aux: AuxNet
    adjacency: np.ndarray

    def stores(self) -> dict[str, ParamStore]:
        return {net: getattr(self, net).store for net in NETS}

    def state_dict(self) -> dict[str, np.ndarray]:
        """The bundle's checkpoint arrays (``checkpoint_arrays``)."""
        return checkpoint_arrays(self.dims, self.stores(), self.adjacency)


def restore_nets(arrays: dict, dims: NetDims,
                 nets: tuple[str, ...]) -> Classifier | NetworkBundle:
    """The nets ``checked_nets`` gave, built from the checkpoint's arrays, whose
    copies they hold: the classifier alone, or all four as a bundle with the
    propagation matrix."""
    rng = np.random.default_rng(0)  # every parameter is overwritten
    built = {net: NETS[net](dims, rng) for net in nets}
    for net, obj in built.items():
        obj.store.load_state_dict({name: arrays[f"{net}.{name}"] for name in obj.store.names()})
    if nets == ("classifier",):
        return built["classifier"]
    return NetworkBundle(dims, **built, adjacency=arrays["adjacency.propagation"].copy())
