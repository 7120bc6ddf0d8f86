"""Training objectives.

Every loss exists twice: a graph builder (``*_node``) used by the training
loops, and an eager numpy evaluation used directly by tests and reports.
The two are written independently and asserted equal in the test suite.

Conventions:

* segmentation losses take raw logits; probabilities are clamped to
  ``[PROB_FLOOR, 1 - PROB_FLOOR]`` before any log
* discriminator scores are raw (pre-sigmoid) maps; expectations are means
  over all map cells and the batch
* consistency / perceptual penalties sum over channels and average over
  cells
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Graph

PROB_FLOOR = 1e-7


# ---------------------------------------------------------------------------
# graph builders


def pixel_ce_node(g: Graph, logits: int, onehot: int, name: str = "ce") -> int:
    """Mean over pixels of -log softmax probability of the marked class."""
    probs = g.softmax(logits, name=f"{name}.probs")
    safe = g.clip(probs, PROB_FLOOR, 1 - PROB_FLOOR, name=f"{name}.safe")
    picked = g.onehot_gather(g.log(safe, name=f"{name}.log"), onehot, name=f"{name}.pick")
    return g.scalar_mul(g.reduce_mean(picked, name=f"{name}.mean"), -1.0, name=name)


def seg_loss_node(g: Graph, logits_src: int, onehot: int, logits_aug: int | None = None) -> int:
    """Supervised loss; with a transferred copy both views share the labels
    and each contributes half."""
    ce_src = pixel_ce_node(g, logits_src, onehot, name="seg.src")
    if logits_aug is None:
        return ce_src
    ce_aug = pixel_ce_node(g, logits_aug, onehot, name="seg.aug")
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
    D = sigmoid(raw). The discriminator ascends "full"; the segmenter
    descends either "full" or just "tgt".
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


# ---------------------------------------------------------------------------
# eager references (numpy only, float64)


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _check_onehot(y: np.ndarray) -> None:
    if not (np.isin(y, (0.0, 1.0)).all() and np.allclose(y.sum(axis=-1), 1.0)):
        raise ValueError("labels must be one-hot along the last axis")


def _pixel_ce(logits: np.ndarray, onehot: np.ndarray) -> float:
    logits = np.asarray(logits, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if logits.shape != onehot.shape:
        raise ValueError(f"logits shape {logits.shape} != labels shape {onehot.shape}")
    _check_onehot(onehot)
    p = np.clip(_softmax(logits), PROB_FLOOR, 1 - PROB_FLOOR)
    return float(-np.mean((np.log(p) * onehot).sum(axis=-1)))


def seg_loss(
    logits_src: np.ndarray, y_onehot: np.ndarray, logits_aug: np.ndarray | None = None
) -> float:
    if logits_aug is None:
        return _pixel_ce(logits_src, y_onehot)
    return 0.5 * _pixel_ce(logits_src, y_onehot) + 0.5 * _pixel_ce(logits_aug, y_onehot)


def consistency_loss(probs_a: np.ndarray, probs_b: np.ndarray) -> float:
    a = np.asarray(probs_a, dtype=np.float64)
    b = np.asarray(probs_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"probability map shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean(np.square(a - b).sum(axis=-1)))


def _mean_log_d(raw: np.ndarray, target_real: bool) -> float:
    raw = np.asarray(raw, dtype=np.float64)
    p = _sigmoid(raw) if target_real else _sigmoid(-raw)
    return float(np.mean(np.log(np.clip(p, PROB_FLOOR, 1 - PROB_FLOOR))))


def adversarial_loss(
    d_src: np.ndarray, d_tgt: np.ndarray, d_aug: np.ndarray | None = None
) -> float:
    total = _mean_log_d(d_src, target_real=False) + _mean_log_d(d_tgt, target_real=True)
    if d_aug is not None:
        total += _mean_log_d(d_aug, target_real=False)
    return total


def style_adversarial_loss(
    d_real_tgt: np.ndarray, d_src: np.ndarray, d_transferred: np.ndarray
) -> float:
    return (
        _mean_log_d(d_real_tgt, target_real=True)
        + _mean_log_d(d_src, target_real=False)
        + _mean_log_d(d_transferred, target_real=False)
    )


def self_train_loss(logits: np.ndarray, pseudo_onehot: np.ndarray) -> float:
    return _pixel_ce(logits, pseudo_onehot)


def semantic_consistency_loss(phi_logits: np.ndarray, y_onehot: np.ndarray) -> float:
    return _pixel_ce(phi_logits, y_onehot)


def perceptual_loss(feat_a: np.ndarray, feat_b: np.ndarray) -> float:
    return consistency_loss(feat_a, feat_b)


# ---------------------------------------------------------------------------
# integral probability metric


@dataclass
class IPMEstimate:
    value: float
    witness_index: int
    sample_sizes: tuple[int, int]


def ipm_estimate(fns, mu_samples: np.ndarray, nu_samples: np.ndarray) -> IPMEstimate:
    """sup over the given critics of |E_mu f - E_nu f|, on empirical samples.

    Each critic maps an array of samples to an array of scalars. The witness
    index identifies the maximizing critic.
    """
    if len(fns) == 0:
        raise ValueError("need at least one critic function")
    mu = np.asarray(mu_samples, dtype=np.float64)
    nu = np.asarray(nu_samples, dtype=np.float64)
    if mu.shape[0] == 0 or nu.shape[0] == 0:
        raise ValueError("both sample sets must be non-empty")
    best, best_idx = -1.0, 0
    for idx, fn in enumerate(fns):
        gap = abs(float(np.mean(fn(mu))) - float(np.mean(fn(nu))))
        if gap > best:
            best, best_idx = gap, idx
    return IPMEstimate(best, best_idx, (mu.shape[0], nu.shape[0]))
