"""Behavioral acceptance gate.

One test per numbered criterion; each prints a single ``criterion NN ...
PASS`` line with the measured quantities (``tests/conftest.py`` repeats
the captured lines in the run's terminal summary). The heavyweight ablation
sweep is shared by criteria 06-08 through a module fixture.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from segan import cli
from segan.bounds import BoundSpec, covering_bound, gen_bound_from
from segan.datagen import appearance_gap, benchmark_shifts, generate_dataset
from segan.losses import (
    adversarial_terms_node,
    consistency_loss_node,
    pixel_ce_node,
    seg_loss_node,
    style_adversarial_terms_node,
    weighted_sum_node,
)
from segan.metrics import confusion_matrix, iou_report, transfer_gain
from segan.tensor import Graph, backward, forward
from segan.trainer import (
    TGSTNConfig,
    TrainConfig,
    apply_style_generator,
    ema_update,
    oracle_style_fn,
    pretrain_phi,
    run_ablation,
    train_tgstn,
)

from references import (
    adversarial_loss,
    consistency_loss,
    dudley_objective,
    finite_diff_grad,
    negative_classes,
    seg_loss,
    stability_index,
    style_adversarial_loss,
)


def _announce(line: str) -> None:
    print(line)


# ---------------------------------------------------------------------------
# criterion 1: every training loss matches finite differences


def _loss_graph():
    """One graph holding every training objective on small leaves.

    Returns the graph, the per-loss list of differentiable leaves, and the
    constant leaves that need normalized or one-hot feeds.
    """
    C = 3
    g = Graph()
    logits_src = g.input("logits_src", (1, 3, 3, C))
    logits_aug = g.input("logits_aug", (1, 3, 3, C))
    logits_tgt = g.input("logits_tgt", (1, 3, 3, C))
    y = g.input("y", (1, 3, 3, C))
    pseudo = g.input("pseudo", (1, 3, 3, C))
    teacher = g.input("teacher", (1, 3, 3, C))
    d_src = g.input("d_src", (1, 2, 2, 1))
    d_tgt = g.input("d_tgt", (1, 2, 2, 1))
    d_aug = g.input("d_aug", (1, 2, 2, 1))
    sty_real = g.input("sty_real", (1, 2, 2, 1))
    sty_src = g.input("sty_src", (1, 2, 2, 1))
    sty_gen = g.input("sty_gen", (1, 2, 2, 1))
    phi_logits = g.input("phi_logits", (1, 3, 3, C))
    feat_a = g.input("feat_a", (1, 2, 2, 5))
    feat_b = g.input("feat_b", (1, 2, 2, 5))

    seg = seg_loss_node(g, g.softmax(logits_src), y, g.softmax(logits_aug))
    con = consistency_loss_node(g, g.softmax(logits_tgt, name="stu"), teacher)
    adv = adversarial_terms_node(g, d_src, d_tgt, d_aug)["full"]
    total = weighted_sum_node(g, [(seg, 1.0), (con, 3.0), (adv, 0.001)], name="stu_total")
    st = pixel_ce_node(g, g.softmax(logits_tgt), pseudo, name="st")
    sty = style_adversarial_terms_node(g, sty_real, sty_src, sty_gen)["full"]
    sem = pixel_ce_node(g, g.softmax(phi_logits), y, name="sem")
    per = consistency_loss_node(g, feat_a, feat_b, name="per")
    tg_total = weighted_sum_node(g, [(sty, 1.0), (sem, 10.0), (per, 1.0)], name="tg_total")

    cases = [
        ("seg", seg, [logits_src, logits_aug]),
        ("con", con, [logits_tgt]),
        ("adv", adv, [d_src, d_tgt, d_aug]),
        ("total", total, [logits_src, logits_aug, logits_tgt, d_src, d_tgt, d_aug]),
        ("self_train", st, [logits_tgt]),
        ("style", sty, [sty_real, sty_src, sty_gen]),
        ("semantic", sem, [phi_logits]),
        ("perceptual", per, [feat_a, feat_b]),
        ("tgstn_total", tg_total, [sty_real, sty_src, sty_gen, phi_logits, feat_a, feat_b]),
    ]
    consts = {"y": y, "pseudo": pseudo, "teacher": teacher}
    return g, cases, consts


def test_criterion_01_gradient_suite_matches_finite_differences():
    started = time.monotonic()
    g, cases, consts = _loss_graph()
    leaf_ids = sorted({leaf for _, _, leaves in cases for leaf in leaves})
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        feeds = {}
        for _, _, leaves in cases:
            for leaf in leaves:
                if leaf not in feeds:
                    shape = g.nodes[leaf].shape
                    feeds[leaf] = rng.standard_normal(shape)
        onehot = np.eye(3, dtype=np.float64)[rng.integers(0, 3, (1, 3, 3))]
        feeds[consts["y"]] = onehot
        feeds[consts["pseudo"]] = np.eye(3, dtype=np.float64)[rng.integers(0, 3, (1, 3, 3))]
        t = rng.standard_normal((1, 3, 3, 3))
        t = np.exp(t) / np.exp(t).sum(axis=-1, keepdims=True)
        feeds[consts["teacher"]] = t

        for label, loss, leaves in cases:
            acts = forward(g, feeds)
            grads = backward(g, loss, acts, wrt=leaves)
            for leaf in leaves:
                fd = finite_diff_grad(g, loss, leaf, feeds, h=1e-5)
                denom = max(float(np.max(np.abs(fd))), 1e-8)
                rel = float(np.max(np.abs(grads[leaf] - fd))) / denom
                worst = max(worst, rel)
                assert rel < 1e-4, f"{label} leaf {g.nodes[leaf].name} seed {seed}: rel {rel:.3e}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    assert len(leaf_ids) == 12
    _announce(
        f"criterion 01 gradient suite: PASS (max rel err {worst:.2e}, {elapsed:.1f}s, 20 seeds)"
    )


# ---------------------------------------------------------------------------
# criterion 2: analytic identities


def test_criterion_02_analytic_identities():
    for C in (2, 3, 4, 7):
        logits = np.zeros((2, 4, 4, C))
        onehot = np.eye(C)[np.random.default_rng(C).integers(0, C, (2, 4, 4))]
        assert abs(seg_loss(logits, onehot) - math.log(C)) < 1e-6
    probs = np.random.default_rng(0).dirichlet(np.ones(4), size=(2, 5, 5)).astype(np.float64)
    assert consistency_loss(probs, probs) == 0.0
    z = np.zeros((2, 3, 3, 1))
    assert abs(adversarial_loss(z, z, z) - 3 * math.log(0.5)) < 1e-6
    assert abs(style_adversarial_loss(z, z, z) - 3 * math.log(0.5)) < 1e-6
    _announce(
        "criterion 02 analytic identities: PASS (ln C, zero consistency, 3 ln 1/2 at D=1/2)"
    )


# ---------------------------------------------------------------------------
# criterion 3: EMA closed form


def test_criterion_03_ema_closed_form():
    rng = np.random.default_rng(42)
    theta0 = rng.standard_normal(64)
    student = rng.standard_normal(64)
    k = 40
    for alpha in (0.0, 0.5, 0.999, 1.0):
        theta = theta0.copy()
        for _ in range(k):
            theta = ema_update(theta, student, alpha)
        want = alpha**k * theta0 + (1 - alpha**k) * student
        np.testing.assert_allclose(theta, want, rtol=1e-6, atol=1e-12)
    _announce("criterion 03 EMA closed form: PASS (alpha in {0, 0.5, 0.999, 1}, 40 steps)")


# ---------------------------------------------------------------------------
# criterion 4: bounds suite


def test_criterion_04_bounds_suite():
    unit = BoundSpec(s=(1.0,) * 5, b=(1.0,) * 5, rho=(1.0,) * 5, width=2, x_norm=1.0, epsilon=1.0,
                     n=1, delta=0.05, phi=0.0)
    log_cover, _ = covering_bound(unit, "statement")
    assert math.isclose(log_cover, math.log(8) * 125, rel_tol=1e-9)

    scaled = BoundSpec(s=(2.0,) * 5, b=(2.0,) * 5, rho=(1.0,) * 5, width=2, x_norm=1.0,
                       epsilon=1.0, n=1, delta=0.05, phi=0.0)
    assert math.isclose(covering_bound(scaled, "statement")[0], log_cover * 2**10, rel_tol=1e-9)

    rng = np.random.default_rng(7)
    for _ in range(20):
        R = float(10 ** rng.uniform(-1, 1.7))
        n = int(10 ** rng.uniform(2.5, 6))
        alpha_star = 3 * math.sqrt(R / n)
        grid = np.geomspace(alpha_star / 50, math.sqrt(n), 4000)
        vals = [dudley_objective(float(a), R, n) for a in grid]
        alpha_grid = float(grid[int(np.argmin(vals))])
        assert abs(alpha_grid - alpha_star) / alpha_star < 0.01, (R, n)

    n = 10**8
    asymptote = 2 * math.sqrt(2 * math.log(1 / 0.05))
    scaled_bound = gen_bound_from(1.0, n, out_bound=1.0, delta=0.05, phi=0.0) * math.sqrt(n)
    assert abs(scaled_bound - asymptote) / asymptote < 0.05
    _announce(
        "criterion 04 bounds suite: PASS (hand cover value, 2^10 scaling, "
        f"20 grid minima, sqrt(n)-scaled bound {scaled_bound:.4f} vs {asymptote:.4f})"
    )


# ---------------------------------------------------------------------------
# criterion 5: metrics oracle


def test_criterion_05_metrics_oracle():
    pred = np.array([0, 0, 1, 1], dtype=np.uint8).reshape(1, 2, 2)
    gt = np.array([0, 1, 1, 1], dtype=np.uint8).reshape(1, 2, 2)
    report = iou_report(confusion_matrix(pred, gt, classes=2))
    assert report.iou[0] == 0.5
    assert report.iou[1] == 2 / 3

    rng = np.random.default_rng(123)
    for _ in range(100):
        classes = 5
        pred = rng.integers(0, classes, (2, 9, 7)).astype(np.uint8)
        gt = rng.integers(0, classes, (2, 9, 7)).astype(np.uint8)
        report = iou_report(confusion_matrix(pred, gt, classes))
        for c in range(classes):
            inter = int(((pred == c) & (gt == c)).sum())
            union = int(((pred == c) | (gt == c)).sum())
            if union == 0:
                assert math.isnan(report.iou[c])
            else:
                assert report.iou[c] == inter / union
    _announce("criterion 05 metrics oracle: PASS (hand instance + 100 random maps, exact)")


# ---------------------------------------------------------------------------
# criteria 6-8: shared ablation sweep on the stock benchmark


MODES = ("noadapt", "at", "at-se-aug", "full")
SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def sweep():
    src, tgt = benchmark_shifts()
    ds = generate_dataset(src, tgt, 24, 24, seed=11, h=64, w=64, classes=4)
    style = oracle_style_fn(ds)
    miou = {m: [] for m in MODES}
    stability = {m: [] for m in MODES}
    reports = {}
    started = time.monotonic()
    for seed in SEEDS:
        cfg = TrainConfig(
            lr_student=0.1, momentum=0.9, lr_disc=1e-3, lambda_adv=0.01, lambda_con=3.0,
            alpha=0.95, maxiter=600, st_maxiter=400, st_lr=0.01, eval_interval=40,
            eval_count=16, batch_source=2, batch_target=2,
        )
        for mode in MODES:
            report, _, log = run_ablation(mode, ds, cfg, seed, style_fn=style)
            miou[mode].append(report.miou)
            stability[mode].append(stability_index([r["miou_eval"] for r in log.rows]))
            reports[(mode, seed)] = report
    return {
        "miou": miou,
        "stability": stability,
        "reports": reports,
        "elapsed": time.monotonic() - started,
    }


def test_criterion_06_module_contribution_ordering(sweep):
    miou = sweep["miou"]
    med = {m: statistics.median(miou[m]) for m in MODES}
    assert med["noadapt"] < med["at"] < med["at-se-aug"] <= med["full"], med
    strict = [("noadapt", "at"), ("at", "at-se-aug")]
    for a, b in strict:
        wins = sum(miou[b][i] > miou[a][i] for i in range(len(SEEDS)))
        assert wins >= 4, f"{a} -> {b}: {wins}/5"
    wins = sum(miou["full"][i] >= miou["at-se-aug"][i] for i in range(len(SEEDS)))
    assert wins >= 4, f"at-se-aug -> full: {wins}/5"
    assert sweep["elapsed"] < 1800.0, f"sweep took {sweep['elapsed']:.0f}s"
    _announce(
        "criterion 06 ablation ordering: PASS (medians "
        + " < ".join(f"{med[m]:.4f}" for m in MODES)
        + f", sweep {sweep['elapsed']:.0f}s)"
    )


def test_criterion_07_stability_improves(sweep):
    stab = sweep["stability"]
    wins = sum(stab["full"][i] < stab["at"][i] for i in range(len(SEEDS)))
    assert wins >= 4, f"stability full < at in {wins}/5 seeds"
    _announce(
        f"criterion 07 stability: PASS (full steadier than at in {wins}/5 seeds, "
        f"medians {statistics.median(stab['full']):.4f} vs {statistics.median(stab['at']):.4f})"
    )


def test_criterion_08_negative_transfer_not_worse(sweep):
    reports = sweep["reports"]
    wins = 0
    counts = []
    for seed in SEEDS:
        base = reports[("noadapt", seed)]
        neg_full = len(negative_classes(transfer_gain(reports[("full", seed)], base).gain))
        neg_at = len(negative_classes(transfer_gain(reports[("at", seed)], base).gain))
        counts.append((neg_full, neg_at))
        wins += neg_full <= neg_at
    assert wins >= 4, f"negative-transfer counts {counts}"
    _announce(f"criterion 08 negative transfer: PASS (full <= at in {wins}/5 seeds, {counts})")


# ---------------------------------------------------------------------------
# criterion 9: bit-identical reruns through the CLI


def test_criterion_09_cli_determinism(tmp_path):
    cfg = {
        "seed": 5,
        "dataset": {"n_source": 6, "n_target": 6, "height": 32, "width": 32},
        "train": {
            "maxiter": 30, "st_maxiter": 10, "eval_interval": 10, "eval_count": 4,
            "batch_source": 2, "batch_target": 2, "lambda_adv": 0.01,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli.main(
            ["train", "--config", str(cfg_path), "--data", str(data),
             "--mode", "full", "--oracle-style", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "checkpoint.sgt").read_bytes() == (b / "checkpoint.sgt").read_bytes()
    assert (a / "train_log.csv").read_bytes() == (b / "train_log.csv").read_bytes()
    assert (a / "report.json").read_text() == (b / "report.json").read_text()
    _announce("criterion 09 determinism: PASS (twin full runs bit-identical)")


# ---------------------------------------------------------------------------
# criterion 10: style transfer closes the appearance gap, labels untouched


def test_criterion_10_style_transfer_closes_gap():
    src, tgt = benchmark_shifts()
    ds = generate_dataset(src, tgt, 24, 24, seed=11, h=64, w=64, classes=4)
    imgs = ds.source_images()
    labels_before = ds.source_labels().copy()
    raw_gap = appearance_gap(imgs, ds.target_images())
    wins = 0
    gaps = []
    for seed in SEEDS:
        phi = pretrain_phi(ds, seed)
        gen, _ = train_tgstn(TGSTNConfig(lambda_sem=1.0, lambda_per=0.1, epochs=100), ds, phi, seed)
        styled = apply_style_generator(gen, imgs)
        assert styled.shape == imgs.shape
        assert styled.min() >= 0.0 and styled.max() <= 1.0
        styled_gap = appearance_gap(styled, ds.target_images())
        gaps.append(styled_gap)
        wins += styled_gap < raw_gap
        # styling consumes images only; the paired label maps stay bitwise
        # identical
        assert np.array_equal(ds.source_labels(), labels_before)
    assert wins >= 4, f"gap {raw_gap:.4f} -> {[round(v, 4) for v in gaps]}"
    _announce(
        f"criterion 10 style transfer: PASS (gap {raw_gap:.4f} -> "
        f"{[round(v, 4) for v in gaps]}, {wins}/5 seeds, labels unchanged)"
    )
