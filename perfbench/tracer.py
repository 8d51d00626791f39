"""Outside-in tracer for crowdaug: wraps each layer's public functions.

Nothing inside ``src/`` knows about this module. ``install`` replaces the
layer functions and methods listed in ``LAYER_FUNCTIONS``/``LAYER_METHODS``
(and every module-level alias of them, e.g. names imported with
``from .data import load_dataset``) by timing wrappers. Every diffcore op is
wrapped too, and so is the ``_backward`` closure of each tensor it returns,
so forward and backward seconds land under the op's name.

Timing model: each wrapped call is a frame on one stack. A frame's self time
is its duration minus the part covered by wrapped calls beneath it. The
tracer's own bookkeeping between the clock reads is kept out of both and
reported as ``bookkeeping_s``. Spans (id, parent id, name, start, end, op id)
are kept in memory for every frame except per-op diffcore frames, which are
aggregated only, and are written out by ``dump``.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

_clock = time.perf_counter

# (module, function name, span name); module names are crowdaug submodules
LAYER_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("cli", "write_manifest", "cli.manifest"),
    ("cli", "_sweep_job", "cli.sweep_job"),
    ("data", "synthesize_dataset", "data.synthesize"),
    ("data", "save_dataset", "data.save_dataset"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "remove_annotations", "data.remove_annotations"),
    ("data", "build_cooccurrence", "data.build_cooccurrence"),
    ("data", "majority_vote", "data.majority_vote"),
    ("trainer", "train_method", "trainer.train_method"),
    ("trainer", "pretrain_dl_cl", "trainer.pretrain_dl_cl"),
    ("trainer", "pretrain_gen_disc", "trainer.pretrain_gen_disc"),
    ("trainer", "run_epoch", "trainer.run_epoch"),
    ("trainer", "log_generation_grid", "trainer.log_grid"),
    ("trainer", "select_for_discriminator", "trainer.select"),
    ("trainer", "export_augmented", "trainer.export"),
    ("trainer", "save_result_checkpoint", "trainer.save_result_checkpoint"),
    ("trainer", "load_result_checkpoint", "trainer.load_result_checkpoint"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("evalsuite", "accuracy", "evalsuite.accuracy"),
    ("evalsuite", "auc", "evalsuite.auc"),
    ("objectives", "discriminator_loss", "objectives.discriminator_loss"),
    ("objectives", "info_lower_bound", "objectives.info_lower_bound"),
    ("objectives", "per_annotation_delta", "objectives.per_annotation_delta"),
    ("objectives", "crm_objective", "objectives.crm_objective"),
    ("objectives", "compute_breakdown", "objectives.compute_breakdown"),
    ("diffcore", "backward", "diffcore.backward"),
)

# (module, class, method, span name); rows counted from the first argument
LAYER_METHODS = (
    ("nets", "Classifier", "logits", "nets.classifier.fwd"),
    ("nets", "Generator", "logits", "nets.generator.fwd"),
    ("nets", "Discriminator", "score", "nets.discriminator.score"),
    ("nets", "AuxNet", "logits", "nets.aux.fwd"),
    ("diffcore", "Adam", "step", "diffcore.adam_step"),
)

# diffcore ops reported by name; every other graph op is reported as "other"
NAMED_OPS = ("matmul", "add", "relu", "softmax", "log_softmax", "concat",
             "gather_rows", "pick", "rowwise_bilinear", "rowwise_matvec",
             "clamp", "sigmoid")
OTHER_OPS = ("neg", "mul", "div", "t_exp", "t_log", "t_sum", "t_mean",
             "reshape", "dropout")
# ops whose bytes touched are computed from operand and result sizes
BYTES_OPS = ("gather_rows", "rowwise_bilinear")

MODULES = ("cli", "config", "data", "trainer", "checkpoint", "evalsuite",
           "objectives", "nets", "diffcore")


class Tracer:
    """Stack of open frames plus per-name aggregates and recorded spans."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.stack: list[list] = []  # open frames: [child seconds, span id]
        self.spans: list[tuple] = []
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.bookkeeping_s = 0.0
        self._next_id = 0

    def call(self, name, keep_span, fn, args, kwargs, after=None):
        entry = _clock()
        span_id = self._next_id
        self._next_id += 1
        stack = self.stack
        parent_id = stack[-1][1] if stack else -1
        frame = [0.0, span_id]
        stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            dur = end - start
            self.total[name] += dur
            self.self_s[name] += dur - frame[0]
            self.calls[name] += 1
            if keep_span:
                self.spans.append((span_id, parent_id, name, start, end, self.op_id))
        if after is not None:
            after(args, result)
        leave = _clock()
        if stack:
            stack[-1][0] += leave - entry
        self.bookkeeping_s += (start - entry) + (leave - end)
        return result

    def wrap(self, name, fn, after=None):
        """``fn`` timed as a frame named ``name``; ``after(args, result)``
        runs outside the timed part to update counters."""
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, True, fn, args, kwargs, after)

        return traced

    def dump(self, path) -> None:
        payload = {
            "op_id": self.op_id,
            "total": self.total, "self": self.self_s, "calls": self.calls,
            "counts": self.counts, "bookkeeping_s": self.bookkeeping_s,
            "span_fields": ["id", "parent", "name", "start", "end", "op"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _alias_everywhere(modules, original, replacement) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _dir_bytes(path) -> int:
    with os.scandir(path) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file())


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the layer functions of the imported crowdaug ``modules`` in place.

    ``modules`` maps short names (``"cli"``, ``"diffcore"``, ...) to the
    imported submodules.
    """
    mods = [modules[m] for m in MODULES]
    counts = tracer.counts

    def count(key, measure):
        def after(args, result):
            counts[key] += measure(args, result)
        return after

    afters = {
        "data.load_dataset": count("data.load_bytes", lambda a, r: _dir_bytes(a[0])),
        "trainer.log_grid": count("trainer.logged_pairs", lambda a, r: len(r)),
        "trainer.select": count("trainer.selected_pairs", lambda a, r: len(r)),
        "trainer.export": count("trainer.export_rows", lambda a, r: len(r)),
        "checkpoint.save": count("checkpoint.save_bytes", lambda a, r: _file_bytes(a[0])),
        "checkpoint.load": count("checkpoint.load_bytes", lambda a, r: _file_bytes(a[0])),
    }
    for mod_name, fn_name, span in LAYER_FUNCTIONS:
        original = getattr(modules[mod_name], fn_name)
        _alias_everywhere(mods, original,
                          tracer.wrap(span, original, after=afters.get(span)))

    for mod_name, cls_name, meth, span in LAYER_METHODS:
        cls = getattr(modules[mod_name], cls_name)
        after = None
        if span.startswith("nets."):
            after = count(f"{span}.rows", lambda a, r: len(a[1]))
        setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), after=after))

    dc = modules["diffcore"]
    for op in NAMED_OPS + OTHER_OPS:
        label = op if op in NAMED_OPS else "other"
        original = getattr(dc, op)
        _alias_everywhere(mods, original, _wrap_op(tracer, dc.Tensor, label, original))


def _wrap_op(tracer: Tracer, tensor_cls, label: str, fn):
    fwd_name = f"diffcore.op.{label}.fwd"
    bwd_name = f"diffcore.op.{label}.bwd"
    bytes_key = f"diffcore.op.{label}.bytes"
    call, counts = tracer.call, tracer.counts
    with_bytes = label in BYTES_OPS

    def bwd_after(args, grads):
        counts[bytes_key] += args[0].nbytes + sum(g.nbytes for g in grads
                                                  if g is not None)

    def fwd_after(args, out):
        if not isinstance(out, tensor_cls):
            return
        back = out._backward
        if back is None or getattr(back, "__wrapped_by_tracer__", False):
            return
        if with_bytes:
            counts[bytes_key] += out.data.nbytes + sum(
                a.data.nbytes if isinstance(a, tensor_cls) else getattr(a, "nbytes", 0)
                for a in args)
        after = bwd_after if with_bytes else None

        def traced_back(g):
            return call(bwd_name, False, back, (g,), {}, after)

        traced_back.__wrapped_by_tracer__ = True
        out._backward = traced_back

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(fwd_name, False, fn, args, kwargs, fwd_after)

    return traced
