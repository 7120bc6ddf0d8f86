"""Scalar objectives: analytic values, enumeration oracles, graph/eager
agreement, and finite-difference gradient checks."""

import math

import numpy as np
import pytest

from segan import losses
from segan.losses import (
    adversarial_loss,
    adversarial_terms_node,
    consistency_loss,
    consistency_loss_node,
    ipm_estimate,
    perceptual_loss,
    pixel_ce_node,
    seg_loss,
    seg_loss_node,
    self_train_loss,
    semantic_consistency_loss,
    style_adversarial_loss,
    style_adversarial_terms_node,
    weighted_sum_node,
)
from segan.tensor import Graph, backward, finite_diff_grad, forward, tensor
from segan.trainer import TGSTNConfig

LN4 = math.log(4.0)


def _onehot(labels, classes):
    return np.eye(classes, dtype=np.float64)[np.asarray(labels)]


# ---------------------------------------------------------------------------
# segmentation cross-entropy


@pytest.mark.parametrize("classes", [2, 3, 4, 7])
def test_uniform_prediction_costs_log_class_count(classes):
    logits = np.zeros((2, 3, classes))
    y = _onehot(np.zeros((2, 3), dtype=int), classes)
    assert seg_loss(logits, y) == pytest.approx(math.log(classes), rel=1e-9)


def test_confident_correct_prediction_costs_almost_nothing():
    y = _onehot([[0, 1], [2, 3]], 4)
    logits = 50.0 * y
    assert seg_loss(logits, y) == pytest.approx(0.0, abs=1e-6)
    assert seg_loss(logits, y) >= 0.0


def test_two_pixel_hand_enumeration():
    # pixel A: logits (1,0), label 0 -> -log(e/(e+1))
    # pixel B: logits (0,2), label 0 -> -log(1/(1+e^2))
    logits = np.array([[[1.0, 0.0], [0.0, 2.0]]])
    y = _onehot([[0, 0]], 2)
    want = 0.5 * (-math.log(math.e / (math.e + 1)) - math.log(1 / (1 + math.e**2)))
    assert seg_loss(logits, y) == pytest.approx(want, rel=1e-9)


def test_transferred_view_shares_labels_half_each():
    y = _onehot([[0, 1]], 2)
    a = np.zeros((1, 2, 2))
    b = 50.0 * y
    joint = seg_loss(a, y, logits_aug=b)
    assert joint == pytest.approx(0.5 * seg_loss(a, y) + 0.5 * seg_loss(b, y), rel=1e-12)
    # collapsing both views onto the same map matches the single-view loss
    assert seg_loss(a, y, logits_aug=a) == pytest.approx(seg_loss(a, y), rel=1e-12)


def test_non_onehot_labels_rejected():
    logits = np.zeros((1, 2, 3))
    bad = np.full((1, 2, 3), 0.5)
    with pytest.raises(ValueError, match="one-hot"):
        seg_loss(logits, bad)
    with pytest.raises(ValueError, match="one-hot"):
        self_train_loss(logits, bad)
    with pytest.raises(ValueError, match="one-hot"):
        semantic_consistency_loss(logits, bad)


# ---------------------------------------------------------------------------
# consistency


def test_consistency_zero_on_identical_maps():
    p = np.random.default_rng(0).dirichlet(np.ones(4), size=(3, 5))
    assert consistency_loss(p, p) == 0.0


@pytest.mark.parametrize("classes", [2, 4, 6])
def test_consistency_hits_upper_bound_on_disjoint_onehots(classes):
    a = _onehot(np.zeros((2, 2), dtype=int), classes)
    b = _onehot(np.ones((2, 2), dtype=int), classes)
    assert consistency_loss(a, b) == pytest.approx(2.0, rel=1e-12)


def test_consistency_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    a = rng.dirichlet(np.ones(4), size=(4, 4))
    b = rng.dirichlet(np.ones(4), size=(4, 4))
    lab = consistency_loss(a, b)
    assert lab == pytest.approx(consistency_loss(b, a), rel=1e-15)
    assert 0.0 <= lab <= 2.0
    want = np.mean(np.sum((a - b) ** 2, axis=-1))
    assert lab == pytest.approx(want, rel=1e-12)


def test_consistency_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shapes differ"):
        consistency_loss(np.zeros((2, 2, 4)), np.zeros((2, 3, 4)))


# ---------------------------------------------------------------------------
# output-space adversarial loss


def test_adversarial_indifferent_discriminator_value():
    zeros = np.zeros((2, 3, 3, 1))  # sigmoid(0) = 0.5
    got = adversarial_loss(zeros, zeros, d_aug=zeros)
    assert got == pytest.approx(3 * math.log(0.5), rel=1e-9)
    assert got == pytest.approx(-2.07944, abs=1e-5)
    assert adversarial_loss(zeros, zeros) == pytest.approx(2 * math.log(0.5), rel=1e-9)


def test_adversarial_optimum_approaches_zero_from_below():
    src = np.full((1, 2, 2, 1), -40.0)  # D -> 0 on source
    tgt = np.full((1, 2, 2, 1), 40.0)  # D -> 1 on target
    got = adversarial_loss(src, tgt, d_aug=src)
    assert -1e-5 < got < 0.0


def test_adversarial_mixed_batch_matches_scripted_mean():
    rng = np.random.default_rng(2)
    d_src = rng.standard_normal((2, 2, 2, 1))
    d_tgt = rng.standard_normal((3, 2, 2, 1))
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    want = np.mean(np.log(1 - sig(d_src))) + np.mean(np.log(sig(d_tgt)))
    assert adversarial_loss(d_src, d_tgt) == pytest.approx(want, rel=1e-9)


def test_style_adversarial_values():
    zeros = np.zeros((2, 2, 2, 1))
    assert style_adversarial_loss(zeros, zeros, zeros) == pytest.approx(
        3 * math.log(0.5), rel=1e-9
    )
    real = np.full((1, 1, 1, 1), 40.0)
    fake = np.full((1, 1, 1, 1), -40.0)
    assert -1e-5 < style_adversarial_loss(real, fake, fake) < 0.0


# ---------------------------------------------------------------------------
# objectives


def test_negative_weights_rejected():
    with pytest.raises(ValueError, match="lambda_sem must be >= 0"):
        TGSTNConfig(lambda_sem=-0.1)


# ---------------------------------------------------------------------------
# self-training and TGSTN component losses


def test_self_train_loss_values():
    logits = np.zeros((1, 2, 4))
    pseudo = _onehot([[1, 3]], 4)
    assert self_train_loss(logits, pseudo) == pytest.approx(LN4, rel=1e-9)
    assert self_train_loss(50.0 * pseudo, pseudo) == pytest.approx(0.0, abs=1e-6)


def test_self_train_three_pixel_enumeration():
    logits = np.array([[[2.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]])
    pseudo = _onehot([[0, 0, 1]], 2)
    p0 = math.exp(2) / (math.exp(2) + 1)
    p1 = 1 / (1 + math.e)
    p2 = 0.5
    want = -(math.log(p0) + math.log(p1) + math.log(p2)) / 3
    assert self_train_loss(logits, pseudo) == pytest.approx(want, rel=1e-9)


def test_semantic_consistency_is_pixel_ce():
    logits = np.zeros((2, 2, 4))
    y = _onehot([[0, 1], [2, 3]], 4)
    assert semantic_consistency_loss(logits, y) == pytest.approx(LN4, rel=1e-9)
    assert semantic_consistency_loss(60.0 * y, y) == pytest.approx(0.0, abs=1e-6)


def test_perceptual_loss_values():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((4, 4, 6))
    assert perceptual_loss(f, f) == 0.0
    assert perceptual_loss(f + 1.0, f) == pytest.approx(6.0, rel=1e-9)  # channel count
    g2 = rng.standard_normal((4, 4, 6))
    assert perceptual_loss(f, g2) == pytest.approx(
        np.mean(np.sum((f - g2) ** 2, axis=-1)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# integral probability metric


def test_ipm_enumerated_cases():
    fns = [lambda x: x, lambda x: -x]
    assert ipm_estimate(fns, np.array([0.0, 2.0]), np.array([1.0])).value == 0.0
    est = ipm_estimate(fns, np.array([0.0, 4.0]), np.array([1.0]))
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert est.sample_sizes == (2, 1)


def test_ipm_identical_samples_and_nonnegativity():
    rng = np.random.default_rng(4)
    s = rng.standard_normal(10)
    fns = [lambda x: x, lambda x: -x, np.tanh, lambda x: -np.tanh(x)]
    assert ipm_estimate(fns, s, s.copy()).value == 0.0
    assert ipm_estimate(fns, s, rng.standard_normal(7)).value >= 0.0


def test_ipm_witness_identifies_maximizer():
    fns = [lambda x: np.zeros_like(x), lambda x: x]
    est = ipm_estimate(fns, np.array([3.0]), np.array([0.0]))
    assert est.witness_index == 1


def test_ipm_rejects_empty_inputs():
    with pytest.raises(ValueError):
        ipm_estimate([], np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ipm_estimate([lambda x: x], np.array([]), np.array([1.0]))


# ---------------------------------------------------------------------------
# graph builders agree with the eager references


def _graph_value(build):
    g = Graph()
    node, feeds = build(g)
    return forward(g, feeds)[node]


def test_graph_seg_loss_matches_eager():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((2, 4, 4, 3))
    aug = rng.standard_normal((2, 4, 4, 3))
    y = _onehot(rng.integers(0, 3, size=(2, 4, 4)), 3)

    def build(g):
        ls = g.input("ls", logits.shape)
        la = g.input("la", aug.shape)
        oh = g.input("oh", y.shape)
        return seg_loss_node(g, ls, oh, logits_aug=la), {ls: logits, la: aug, oh: y}

    got = _graph_value(build)
    assert float(got) == pytest.approx(seg_loss(logits, y, logits_aug=aug), rel=1e-6)


def test_graph_consistency_matches_eager():
    rng = np.random.default_rng(6)
    a = rng.dirichlet(np.ones(4), size=(2, 3, 3))
    b = rng.dirichlet(np.ones(4), size=(2, 3, 3))

    def build(g):
        na = g.input("a", a.shape)
        nb = g.input("b", b.shape)
        return consistency_loss_node(g, na, nb), {na: a, nb: b}

    assert float(_graph_value(build)) == pytest.approx(consistency_loss(a, b), rel=1e-9)


def test_graph_adversarial_terms_match_eager():
    rng = np.random.default_rng(7)
    d_src = rng.standard_normal((2, 2, 2, 1))
    d_tgt = rng.standard_normal((2, 2, 2, 1))
    d_aug = rng.standard_normal((2, 2, 2, 1))

    def build(g):
        ns = g.input("s", d_src.shape)
        nt = g.input("t", d_tgt.shape)
        na = g.input("a", d_aug.shape)
        terms = adversarial_terms_node(g, ns, nt, d_aug=na)
        return terms["full"], {ns: d_src, nt: d_tgt, na: d_aug}

    want = adversarial_loss(d_src, d_tgt, d_aug=d_aug)
    assert float(_graph_value(build)) == pytest.approx(want, rel=1e-9)


def test_graph_style_terms_match_eager():
    rng = np.random.default_rng(8)
    real, src, gen = (rng.standard_normal((2, 2, 2, 1)) for _ in range(3))

    def build(g):
        nr = g.input("r", real.shape)
        ns = g.input("s", src.shape)
        ng = g.input("g", gen.shape)
        terms = style_adversarial_terms_node(g, nr, ns, ng)
        return terms["full"], {nr: real, ns: src, ng: gen}

    want = style_adversarial_loss(real, src, gen)
    assert float(_graph_value(build)) == pytest.approx(want, rel=1e-9)


def test_weighted_sum_node_applies_weights():
    g = Graph()
    a = g.input("a", ())
    b = g.input("b", ())
    total = weighted_sum_node(g, [(a, 1.0), (b, 3.0)])
    acts = forward(g, {a: np.asarray(2.0), b: np.asarray(0.5)})
    assert float(acts[total]) == pytest.approx(3.5, rel=1e-12)
    with pytest.raises(ValueError):
        weighted_sum_node(g, [])


# ---------------------------------------------------------------------------
# gradients of the losses


def test_pixel_ce_gradient_matches_finite_difference():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((1, 3, 3, 4))
    y = _onehot(rng.integers(0, 4, size=(1, 3, 3)), 4)
    g = Graph()
    nl = g.input("logits", logits.shape)
    oh = g.input("oh", y.shape)
    loss = pixel_ce_node(g, nl, oh)
    feeds = {nl: tensor(logits, requires_grad=True), oh: y}
    acts = forward(g, feeds)
    grads = backward(g, loss, acts, feeds)
    fd = finite_diff_grad(g, loss, nl, feeds, h=1e-5)
    np.testing.assert_allclose(grads[nl], fd, rtol=1e-5, atol=1e-8)


def test_consistency_gradient_matches_finite_difference():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 2, 4))
    b = rng.dirichlet(np.ones(4), size=(2, 2))
    g = Graph()
    na = g.input("a", a.shape)
    nb = g.input("b", b.shape)
    # differentiate through the softmax producing the student map
    loss = consistency_loss_node(g, g.softmax(na), nb)
    feeds = {na: tensor(a, requires_grad=True), nb: b}
    acts = forward(g, feeds)
    grads = backward(g, loss, acts, feeds)
    fd = finite_diff_grad(g, loss, na, feeds, h=1e-5)
    np.testing.assert_allclose(grads[na], fd, rtol=1e-5, atol=1e-9)


def test_adversarial_gradient_matches_finite_difference():
    rng = np.random.default_rng(11)
    d_src = rng.standard_normal((1, 2, 2, 1))
    d_tgt = rng.standard_normal((1, 2, 2, 1))
    g = Graph()
    ns = g.input("s", d_src.shape)
    nt = g.input("t", d_tgt.shape)
    loss = adversarial_terms_node(g, ns, nt)["full"]
    feeds = {ns: tensor(d_src, requires_grad=True), nt: tensor(d_tgt, requires_grad=True)}
    acts = forward(g, feeds)
    grads = backward(g, loss, acts, feeds)
    for leaf in (ns, nt):
        fd = finite_diff_grad(g, loss, leaf, feeds, h=1e-5)
        np.testing.assert_allclose(grads[leaf], fd, rtol=1e-5, atol=1e-9)


def test_prob_floor_keeps_logs_finite():
    # extreme logits would give log(0) without the clamp
    y = _onehot([[0]], 2)
    val = seg_loss(np.array([[[-500.0, 500.0]]]), y)
    assert np.isfinite(val)
    assert val == pytest.approx(-math.log(losses.PROB_FLOOR), rel=1e-6)
