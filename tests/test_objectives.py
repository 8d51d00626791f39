"""Objective-level tests with exact enumeration oracles."""
import numpy as np
import pytest

from crowdaug import diffcore as dc
from crowdaug.diffcore import Tensor, backward
from crowdaug.objectives import (
    compute_breakdown,
    crm_objective,
    discriminator_loss,
    discriminator_score_grad,
    info_lower_bound,
    per_annotation_delta,
)
from helpers import chain_discriminator_loss

LN2 = np.log(2.0)


# ---------------------------------------------------------------------------
# discriminator loss


@pytest.mark.parametrize("l2_coeff", [0.0, 1e-4, 0.3])
def test_disc_loss_is_byte_identical_to_the_op_chain(l2_coeff):
    # the value, and each side's score gradient, against the op chain's value
    # and backward; scores at, inside and beyond both clamp bounds, where the
    # gradient is cut
    rng = np.random.default_rng(3)
    edges = [0.0, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 1e-13, 1.0, -0.25, 1.5]
    auth = np.concatenate([edges, rng.uniform(size=9)])
    gen = np.concatenate([rng.uniform(size=12), edges[::-1]])
    loss, clamped = discriminator_loss(auth, gen, l2_coeff=l2_coeff)
    leaves = Tensor(auth, requires_grad=True), Tensor(gen, requires_grad=True)
    chain, chain_clamped = chain_discriminator_loss(*leaves, l2_coeff=l2_coeff)
    chain_grads = backward(chain)
    assert isinstance(loss, float)
    assert clamped == chain_clamped == 2 * len(edges)
    assert np.array(loss).tobytes() == chain.data.tobytes()
    for side, (scores, leaf) in enumerate(zip((auth, gen), leaves)):
        got = discriminator_score_grad(scores, side, (auth.size, gen.size), l2_coeff)
        assert got.shape == scores.shape
        assert got.tobytes() == chain_grads[leaf].tobytes()  # bytes, so sign bits too


def test_disc_loss_uninformed_half():
    loss, clamped = discriminator_loss(np.full(4, 0.5), np.full(6, 0.5), l2_coeff=0.0)
    assert abs(loss - 2 * LN2) < 1e-12
    assert clamped == 0


def test_disc_loss_perfect_limit():
    loss, _ = discriminator_loss(np.full(3, 1 - 1e-9), np.full(3, 1e-9), l2_coeff=0.0)
    assert 0.0 < loss < 1e-6


def test_disc_loss_l2_term():
    loss, _ = discriminator_loss(np.full(2, 0.5), np.full(2, 0.5), l2_coeff=1e-4)
    assert abs(loss - (2 * LN2 + 1e-4 * 0.25)) < 1e-15


def test_disc_loss_clamps_and_counts_saturated_scores():
    loss, clamped = discriminator_loss(np.array([1.0, 0.5]), np.array([0.0]), l2_coeff=0.0)
    assert np.isfinite(loss)
    assert clamped == 2


def test_disc_loss_gradient_signs():
    # pushing authentic scores up and generated scores down reduces the loss
    assert discriminator_score_grad(np.array([0.7]), 0, (1, 1), 0.0)[0] < 0
    assert discriminator_score_grad(np.array([0.4]), 1, (1, 1), 0.0)[0] > 0


def test_disc_loss_requires_both_sides():
    with pytest.raises(ValueError):
        discriminator_loss(np.array([]), np.array([0.5]), 1e-4)


# ---------------------------------------------------------------------------
# information lower bound: exact enumeration oracles


def exact_mutual_information(joint: np.ndarray) -> float:
    pz = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mi = 0.0
    for z in range(joint.shape[0]):
        for y in range(joint.shape[1]):
            if joint[z, y] > 0:
                mi += joint[z, y] * np.log(joint[z, y] / (pz[z] * py[y]))
    return mi


def bound_from_samples(joint: np.ndarray, q_posterior: np.ndarray,
                       replicas: int) -> float:
    """Evaluate the implementation on a sample list replicating the joint.

    ``joint[z, y]`` must be a multiple of 1/replicas so the uniform mean over
    the replicated samples equals the exact expectation.
    """
    q_logprobs = []
    for z in range(joint.shape[0]):
        for y in range(joint.shape[1]):
            count = int(round(joint[z, y] * replicas))
            assert abs(count - joint[z, y] * replicas) < 1e-9
            q_logprobs.extend([np.log(q_posterior[y, z])] * count)
    pz = joint.sum(axis=1)
    return info_lower_bound(np.array(q_logprobs), dc.entropy(pz))


def test_info_bound_deterministic_binary_equals_ln2():
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])  # code == annotation, uniform
    q = np.array([[1.0, 1e-300], [1e-300, 1.0]])  # exact posterior (log-safe)
    got = bound_from_samples(joint, q, replicas=2)
    assert abs(got - LN2) < 1e-12
    assert abs(exact_mutual_information(joint) - LN2) < 1e-12


def test_info_bound_independent_uniform_is_zero():
    c = 4
    joint = np.full((c, c), 1.0 / (c * c))
    q = np.full((c, c), 1.0 / c)
    got = bound_from_samples(joint, q, replicas=c * c)
    assert abs(got) < 1e-12
    assert abs(exact_mutual_information(joint)) < 1e-12


def random_joint(rng, z_card, y_card, replicas):
    counts = rng.integers(1, 8, size=(z_card, y_card)).astype(float)
    counts = np.round(counts / counts.sum() * replicas)
    counts[0, 0] += replicas - counts.sum()  # force an exact integer total
    assert counts.min() >= 0
    return counts / replicas


def test_info_bound_never_exceeds_mi():
    rng = np.random.default_rng(0)
    for _ in range(60):
        joint = random_joint(rng, 2, 2, 64)
        q = dc.softmax(Tensor(rng.normal(size=(2, 2)) * 2.0)).data
        got = bound_from_samples(joint, q, replicas=64)
        assert got <= exact_mutual_information(joint) + 1e-9


def test_info_bound_tight_at_true_posterior():
    rng = np.random.default_rng(1)
    for _ in range(20):
        joint = random_joint(rng, 3, 3, 72)
        py = joint.sum(axis=0)
        q = np.where(py[:, None] > 0, (joint / np.maximum(py[None, :], 1e-300)).T, 1.0)
        q = np.clip(q, 1e-300, 1.0)
        got = bound_from_samples(joint, q, replicas=72)
        assert abs(got - exact_mutual_information(joint)) < 1e-9


# ---------------------------------------------------------------------------
# per-annotation delta


def test_delta_half_score_no_info():
    deltas, clamped = per_annotation_delta(np.array([0.5]), np.array([0.0]), 0.0)
    assert abs(deltas[0] + LN2) < 1e-15
    assert clamped == 0


def test_delta_with_info_term():
    deltas, _ = per_annotation_delta(np.array([0.5]), np.array([-LN2]), 0.5)
    assert abs(deltas[0] - (-LN2 + 0.5 * LN2)) < 1e-14
    assert abs(deltas[0] + 0.34657359027997264) < 1e-14


def test_delta_saturated_score_clamped_and_counted():
    deltas, clamped = per_annotation_delta(np.array([1.0, 0.5]), np.zeros(2), 0.0)
    assert clamped == 1
    assert np.isfinite(deltas[0]) and deltas[0] < -27.0


# ---------------------------------------------------------------------------
# CRM estimator


def test_crm_unit_weights_equals_mean_delta():
    deltas = np.array([0.5, -0.25, 1.75, 0.0])
    g0 = np.array([0.5, 0.25, 0.125, 0.125])
    obj = crm_objective(g0, Tensor(g0.copy()), deltas, mu=0.0, total=4)
    assert obj.item() == deltas.mean()  # dyadic values: bit-exact


def test_crm_enumeration_two_labels():
    # logging uniform over two labels; target puts 0.8 on label 0
    g0 = np.array([0.5, 0.5])
    target = np.array([0.8, 0.2])
    deltas = np.array([1.0, 0.0])
    total = 0.0
    for y in (0, 1):
        est = crm_objective(np.array([g0[y]]), Tensor(np.array([target[y]])),
                            np.array([deltas[y]]), mu=0.0, total=1)
        total += g0[y] * est.item()
    assert abs(total - 0.8) < 1e-12


def test_crm_mu_shift_identity_exact():
    g0 = np.array([0.5, 0.25, 0.25])
    target = Tensor(np.array([0.25, 0.5, 0.25]))
    deltas = np.array([0.5, -0.25, 1.75])
    mu, c = 0.25, 0.5
    base = crm_objective(g0, target, deltas, mu=mu, total=3).item()
    shifted = crm_objective(g0, target, deltas + c, mu=mu + c, total=3).item()
    assert shifted == base  # dyadic arithmetic: exactly equal


def test_crm_rejects_unsupported_logging():
    with pytest.raises(ValueError, match="g0"):
        crm_objective(np.array([0.5, 0.0]), Tensor(np.array([0.5, 0.5])),
                      np.zeros(2), mu=0.0, total=2)


def test_crm_gradient_matches_closed_form():
    g0 = np.array([0.5, 0.25, 0.25])
    deltas = np.array([1.0, -1.0, 0.5])
    mu = 0.25
    target = Tensor(np.array([0.4, 0.3, 0.3]), requires_grad=True)
    grads = backward(crm_objective(g0, target, deltas, mu, 3))
    expected = (deltas - mu) / g0 / 3.0
    np.testing.assert_allclose(grads[target], expected, atol=1e-15)


def test_breakdown_combined_identity():
    rng = np.random.default_rng(2)
    auth = rng.uniform(0.1, 0.9, size=10)
    gen = rng.uniform(0.1, 0.9, size=12)
    q_logs = np.log(rng.uniform(0.05, 1.0, size=12))
    terms, clamped = compute_breakdown(auth, gen, q_logs, code_entropy=0.9, info_weight=0.7)
    assert list(terms) == ["value_term", "info_term", "combined"]
    assert abs(terms["combined"] - (terms["value_term"] - 0.7 * terms["info_term"])) < 1e-12
    assert clamped == 0
