"""Training objectives, as graph builders.

Each ``*_node`` function appends a loss to a :class:`~segan.tensor.Graph`
and returns its node id. The test suite checks the losses against
independent eager float64 twins in ``tests/references.py``.

Conventions:

* segmentation losses take the segmenter's softmax probabilities;
  probabilities are clamped to ``[PROB_FLOOR, 1 - PROB_FLOOR]`` before any
  log
* discriminator scores are raw (pre-sigmoid) maps; expectations are means
  over all map cells and the batch
* consistency and perceptual penalties (both ``consistency_loss_node``) sum
  over channels and average over cells
"""

from __future__ import annotations

from .tensor import Graph

PROB_FLOOR = 1e-7


def pixel_ce_node(g: Graph, probs: int, onehot: int, name: str = "ce") -> int:
    """Mean over pixels of -log probability of the marked class.

    ``probs`` is a softmax output (last axis sums to one), e.g. the
    segmenter's "probs" node, so the same node can also feed the
    discriminator and the consistency loss without a second softmax.
    """
    safe = g.clip(probs, PROB_FLOOR, 1 - PROB_FLOOR, name=f"{name}.safe")
    picked = g.onehot_gather(g.log(safe, name=f"{name}.log"), onehot, name=f"{name}.pick")
    return g.scalar_mul(g.reduce_mean(picked, name=f"{name}.mean"), -1.0, name=name)


def seg_loss_node(g: Graph, probs_src: int, onehot: int, probs_aug: int | None = None) -> int:
    """Supervised loss on probability maps; with a transferred copy both
    views share the labels and each contributes half."""
    ce_src = pixel_ce_node(g, probs_src, onehot, name="seg.src")
    if probs_aug is None:
        return ce_src
    ce_aug = pixel_ce_node(g, probs_aug, onehot, name="seg.aug")
    half = g.add(g.scalar_mul(ce_src, 0.5), g.scalar_mul(ce_aug, 0.5), name="seg")
    return half


def consistency_loss_node(g: Graph, probs_a: int, probs_b: int, name: str = "con") -> int:
    """Mean over cells of the channel-summed squared difference."""
    diff = g.add(probs_a, g.scalar_mul(probs_b, -1.0), name=f"{name}.diff")
    per_cell = g.reduce_sum(g.square(diff), axis=-1, name=f"{name}.cell")
    return g.reduce_mean(per_cell, name=name)


def _mean_log_sigmoid(g: Graph, raw: int, name: str) -> int:
    """mean log sigma(raw), with the probability clamped away from 0/1."""
    p = g.clip(g.sigmoid(raw), PROB_FLOOR, 1 - PROB_FLOOR, name=f"{name}.p")
    return g.reduce_mean(g.log(p), name=name)


def adversarial_terms_node(
    g: Graph, d_src: int, d_tgt: int, d_aug: int | None = None
) -> dict[str, int]:
    """Alignment objective on discriminator score maps.

    full = E[log(1-D(src))] (+ E[log(1-D(aug))]) + E[log D(tgt)], where
    D = sigmoid(raw). The discriminator ascends "full" and the segmenter
    descends it; the per-domain parts are returned alongside.
    """
    terms: dict[str, int] = {}
    terms["src"] = _mean_log_sigmoid(g, g.scalar_mul(d_src, -1.0), "adv.src")
    if d_aug is not None:
        terms["aug"] = _mean_log_sigmoid(g, g.scalar_mul(d_aug, -1.0), "adv.aug")
    terms["tgt"] = _mean_log_sigmoid(g, d_tgt, "adv.tgt")
    total = g.add(terms["src"], terms["tgt"], name="adv.st")
    if d_aug is not None:
        total = g.add(total, terms["aug"], name="adv.sta")
    terms["full"] = total
    return terms


def style_adversarial_terms_node(
    g: Graph, d_real_tgt: int, d_src: int, d_transferred: int
) -> dict[str, int]:
    """Image-level realism objective: target images are the real class,
    source and transferred-source the fake class."""
    terms = {
        "real": _mean_log_sigmoid(g, d_real_tgt, "sty.real"),
        "src": _mean_log_sigmoid(g, g.scalar_mul(d_src, -1.0), "sty.src"),
        "gen": _mean_log_sigmoid(g, g.scalar_mul(d_transferred, -1.0), "sty.gen"),
    }
    terms["full"] = g.add(g.add(terms["real"], terms["src"]), terms["gen"], name="sty")
    return terms


def weighted_sum_node(g: Graph, terms: list[tuple[int, float]], name: str = "total") -> int:
    if not terms:
        raise ValueError("weighted_sum_node needs at least one term")
    acc = None
    for node, weight in terms:
        part = node if weight == 1.0 else g.scalar_mul(node, weight)
        acc = part if acc is None else g.add(acc, part)
    return g.scalar_mul(acc, 1.0, name=name)

