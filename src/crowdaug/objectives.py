"""Training objectives: adversarial value, information bound, CRM estimator.

The discriminator maximizes E[log D] on authentic annotations plus
E[log(1-D)] on generated ones (implemented as a loss to minimize, plus an L2
penalty of weight ``DISC_L2`` on its raw outputs). That loss is a value of
the two score arrays (``discriminator_loss``), and its gradient with respect
to each side's scores is an array of its own (``discriminator_score_grad``),
with which the trainer seeds the backward of each row block it scores, so no
graph node spans both sides.

The generator and classifier are updated off-policy: each logged annotation
carries its logging probability g0, and the importance-weighted objective
mean((delta - mu) * G_theta(y) / g0) is minimized, where delta folds the
discriminator signal and (for the generator) the per-sample information
term.

Probabilities entering any log are clamped to [1e-12, 1 - 1e-12]; clamp
counts are surfaced so adversarial saturation is visible in reports.
"""
from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

CLAMP_LO = 1e-12
CLAMP_HI = 1.0 - 1e-12
DISC_L2 = 1e-4  # L2 penalty on discriminator outputs


def _clamp_count(values: np.ndarray) -> int:
    return int(np.count_nonzero((values <= CLAMP_LO) | (values >= CLAMP_HI)))


def discriminator_loss(authentic_scores: np.ndarray,
                       generated_scores: np.ndarray) -> tuple[float, int]:
    """Negative adversarial value plus output L2 of two score arrays; returns
    (loss, clamp count).

    Minimizing this over the discriminator maximizes
    mean(log D(authentic)) + mean(log(1 - D(generated))). Its gradient with
    respect to either side's scores is ``discriminator_score_grad``.

    The value takes the NumPy operations, in order, of the op chain
    ``neg(add(t_mean(t_log(clamp(a))), t_mean(t_log(add(neg(clamp(g)), 1)))))``
    plus ``mul(t_mean(mul(both, both)), DISC_L2)`` over the clamped scores'
    ``concat``, so it is byte-identical to that chain's.
    """
    a, g = authentic_scores, generated_scores
    if a.size == 0 or g.size == 0:
        raise ValueError("discriminator_loss needs both authentic and generated scores")
    auth = np.clip(a, CLAMP_LO, CLAMP_HI)
    gen = np.clip(g, CLAMP_LO, CLAMP_HI)
    one_minus_gen = -gen + 1.0
    scale_a, scale_g = 1.0 / auth.size, 1.0 / gen.size
    value = -(np.log(auth).sum() * scale_a + np.log(one_minus_gen).sum() * scale_g)
    both = np.concatenate([auth, gen], axis=0)
    scale_both = 1.0 / both.size
    value = value + (both * both).sum() * scale_both * DISC_L2
    return float(value), _clamp_count(a) + _clamp_count(g)


def discriminator_score_grad(scores: np.ndarray, side: int,
                             sizes: tuple[int, int]) -> np.ndarray:
    """The gradient of ``discriminator_loss`` with respect to ``scores`` of
    one side (0 authentic, 1 generated) when the two sides have ``sizes``
    rows, byte-identical to the op chain's backward (see
    ``discriminator_loss``). Each row's entry reads only its own score, so
    the rows of a block of one side come out as in one call over the side."""
    clipped = np.clip(scores, CLAMP_LO, CLAMP_HI)
    if side == 0:
        g = -(1.0 / sizes[0]) / clipped
    else:
        g = (1.0 / sizes[1]) / (-clipped + 1.0)
    g_l2 = DISC_L2 * (1.0 / (sizes[0] + sizes[1])) * clipped
    g = g + (g_l2 + g_l2)
    return g * ((scores >= CLAMP_LO) & (scores <= CLAMP_HI))


def info_lower_bound(q_logprobs: np.ndarray, entropy_term: float) -> float:
    """Variational bound on I(code; annotation): mean log Q + code entropy.

    A reporting value from arrays; the generator's gradient path carries the
    information term per sample, through ``per_annotation_delta``.
    """
    return float(np.mean(np.asarray(q_logprobs, dtype=np.float64)) + entropy_term)


def per_annotation_delta(d_scores, q_logprobs, info_weight: float) -> tuple[np.ndarray, int]:
    """Per-sample loss delta = log(1 - D(y)) - lambda * log Q(code|y).

    Pure numpy: deltas act as constant weights inside the CRM objective, never
    as a gradient path. Returns (deltas, clamp count).
    """
    d = np.asarray(d_scores, dtype=np.float64)
    clamped = _clamp_count(d)
    d = np.clip(d, CLAMP_LO, CLAMP_HI)
    deltas = np.log1p(-d)
    if info_weight != 0.0:
        q = np.asarray(q_logprobs, dtype=np.float64)
        if q.shape != d.shape:
            raise ValueError(f"shape mismatch: {d.shape} scores vs {q.shape} log-probs")
        deltas = deltas - info_weight * q
    return deltas, clamped


def crm_objective(g0, target_probs: Tensor, deltas, mu: float, total: int) -> Tensor:
    """Importance-weighted risk mean((delta - mu) * G_theta(y) / g0) over a
    logged set of ``total`` pairs.

    ``target_probs`` must be a graph Tensor (the gradient path); ``g0`` and
    ``deltas`` are constants from logging time. When these cover one block
    of the set, the block's sum is scaled by 1/total, so the blocks'
    objectives (and gradients) add up to the mean over the whole set.
    """
    g0 = np.asarray(g0, dtype=np.float64)
    if np.any(g0 <= 0.0):
        raise ValueError("logging support violated: g0 must be positive everywhere")
    deltas = np.asarray(deltas, dtype=np.float64)
    if target_probs.shape != g0.shape or deltas.shape != g0.shape:
        raise ValueError("g0, target_probs, and deltas must share one shape")
    centered = Tensor(deltas - mu)
    weighted = dc.t_sum(dc.mul(centered, dc.div(target_probs, Tensor(g0))))
    return dc.mul(weighted, Tensor(1.0 / total))


def compute_breakdown(authentic_scores: np.ndarray, generated_scores: np.ndarray,
                      q_logprobs: np.ndarray, code_entropy: float,
                      info_weight: float) -> tuple[dict[str, float], int]:
    """Metrics-only summary of the adversarial batch (no gradients): the terms
    ``value_term`` (V), ``info_term`` (L_I) and ``combined`` (V - lambda * L_I),
    in that order, and the clamp count."""
    auth = np.asarray(authentic_scores, dtype=np.float64)
    gen = np.asarray(generated_scores, dtype=np.float64)
    clamped = _clamp_count(auth) + _clamp_count(gen)
    auth = np.clip(auth, CLAMP_LO, CLAMP_HI)
    gen = np.clip(gen, CLAMP_LO, CLAMP_HI)
    value = float(np.mean(np.log(auth)) + np.mean(np.log1p(-gen)))
    info = info_lower_bound(np.asarray(q_logprobs, dtype=np.float64), code_entropy)
    return ({"value_term": value, "info_term": info,
             "combined": value - info_weight * info}, clamped)
