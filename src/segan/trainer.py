"""Training loops: the adversarial self-ensembling stage, style-transfer
pre-training, pseudo-label self-training, and the cumulative ablation runner.

All three training stages run one step function, ``_descend``. Each step,
in this order: take one batch of data feeds, add the parameter feeds of
every net in the graph, evaluate the graph once, check the named losses,
take every sweep's gradients from those activations, step each sweep's
optimizer at its poly-schedule rate, release the activations and
gradients, check the stepped parameters, then call the stage's hook, so the
hook and the next step hold one step's state. A sweep is one loss node, one
net, one optimizer and one schedule. All three stages log through one
:class:`TrainLog`. A non-finite loss or parameter aborts with the iteration
index, the loss breakdown and the names of the non-finite parameters.

Per adversarial iteration the student sweep descends the weighted objective
by SGD and the discriminator sweep descends the negated alignment loss by
Adam (ascent); the hook then updates the teacher as an exponential moving
average of the student, logs and checkpoints. Self-training descends the
pseudo-label cross entropy; TGSTN descends the generator objective and the
negated style-alignment loss.

Which terms a run trains with is its ablation mode, one rung of the
paper's cumulative ladder in :data:`MODES`. The mode and the seed are
arguments of every stage; the stage configs hold only what a config file
sets.

Determinism: all sampling and initialization derive from one seed through
named substreams, and batch indices for both domains are drawn every
iteration regardless of which terms are enabled, so runs in different
modes stay comparable and equal-seed runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sgt
from .datagen import DomainDataset, apply_domain_style, relative_appearance
from .losses import (
    adversarial_terms_node,
    consistency_loss_node,
    pixel_ce_node,
    seg_loss_node,
    style_adversarial_terms_node,
    weighted_sum_node,
)
from .metrics import MetricReport, confusion_matrix, iou_report
from .networks import (
    ModelBundle,
    NetParams,
    NetworksConfig,
    SegNetSpec,
    add_param_inputs,
    build_discriminator,
    build_segnet,
    build_style_generator,
    collect,
    disc_forward,
    infer_stack,
    label_slices,
    layer_shapes,
    multi_scale_predict,  # unused here; perfbench/tracing.py wraps trainer.multi_scale_predict
    multi_scale_slices,
    param_feeds,
    predict_segmentation,  # unused here; perfbench/tracing.py wraps trainer.predict_segmentation
    segnet_body,
    segnet_forward,
    spec_from_dict,
    spec_to_dict,
    stylegen_forward,
)
from .optim import SGD, Adam, PolySchedule, poly_lr
from .tensor import Graph, backward, forward
from .utils import ConfigError, derive_seed, one_hot, substream

# The rungs of the paper's cumulative ablation, in the spellings of ``segan
# train --mode``: no adaptation, then adversarial training (AT),
# self-ensembling (SE), style augmentation (Aug), self-training (ST) and
# multi-scale testing (MST), each added to the rung before.
MODES = ("noadapt", "at", "at-se", "at-se-aug", "full", "full-mst")


def resolve_mode(mode: str) -> tuple[bool, bool, bool, bool, bool]:
    """The (at, se, aug, st, mst) terms of a mode: each rung of the ladder
    adds one term to the rung before it."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    rung = MODES.index(mode)
    return tuple(k < rung for k in range(5))


class NumericAbort(RuntimeError):
    """A loss or a stepped parameter went non-finite; carries the iteration,
    the loss breakdown and the graph names of the non-finite parameters."""

    def __init__(self, iteration: int, losses: dict[str, float], params: list[str] | None = None):
        self.iteration = iteration
        self.losses = losses
        self.params = params or []
        what = "parameters " + ", ".join(self.params) if self.params else "loss"
        parts = ", ".join(f"{k}={v!r}" for k, v in losses.items())
        super().__init__(f"non-finite {what} at iteration {iteration}: {parts}")


def _check_at_least(record, **lows) -> None:
    """Raise :class:`ConfigError` at the first named field below its low."""
    for name, low in lows.items():
        if getattr(record, name) < low:
            raise ConfigError(name, f"{name} must be >= {low}, got {getattr(record, name)}")


@dataclass
class TrainConfig:
    """Adversarial and self-training stage configuration. The defaults are
    the desk-scale hyperparameters the acceptance sweep trains with; the
    paper-scale values are ``configs/paper.json``."""

    lambda_con: float = 3.0
    lambda_adv: float = 0.01
    alpha: float = 0.95
    lr_student: float = 0.1
    momentum: float = 0.9
    lr_disc: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 5e-5
    poly_power: float = 0.9
    maxiter: int = 600
    st_maxiter: int = 400
    st_lr: float = 0.01  # self-training lr
    batch_source: int = 2
    batch_target: int = 2
    eval_interval: int = 40
    checkpoint_interval: int = 0  # 0 disables interval checkpoints
    eval_count: int = 16  # held-out target scenes per logged eval; 0 scores all
    mst_scales: tuple[float, ...] = (0.75, 1.0, 1.25)

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ConfigError("alpha", f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("lambda_con", "lambda_adv", "lr_student", "lr_disc", "st_lr"):
            if getattr(self, name) < 0:
                raise ConfigError(name, f"{name} must be >= 0, got {getattr(self, name)}")
        _check_at_least(self, maxiter=1, st_maxiter=0, batch_source=1, batch_target=1,
                        eval_interval=1, checkpoint_interval=0, eval_count=0)
        self.mst_scales = tuple(self.mst_scales)
        if not self.mst_scales or any(s <= 0 for s in self.mst_scales):
            raise ConfigError("mst_scales",
                              f"scales must be positive and non-empty, got {list(self.mst_scales)}")


@dataclass
class TGSTNConfig:
    """Style-transfer stage configuration. The defaults are desk-scale, as
    :class:`TrainConfig`'s; the paper-scale loss weights are
    ``configs/paper.json``."""

    lambda_sem: float = 1.0
    lambda_per: float = 0.1
    lr_gen: float = 5e-4
    lr_disc: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 5e-5
    poly_power: float = 0.9
    epochs: int = 5
    batch_source: int = 2
    batch_target: int = 2

    def __post_init__(self):
        _check_at_least(self, epochs=0, batch_source=1, batch_target=1, lambda_sem=0,
                        lambda_per=0, lr_gen=0, lr_disc=0)


# The columns of ``train_log.csv``, which the adversarial and self-training
# stages share; ``stage`` names the stage a row comes from, since after
# ``maxiter`` the ``loss_seg`` column holds the self-training loss.
SEGAN_COLUMNS = ("iter", "lr_student", "lr_disc", "loss_seg", "loss_con", "loss_adv_g",
                 "loss_adv_d", "miou_eval", "stage")
TGSTN_COLUMNS = ("iter", "lr_gen", "lr_disc", "loss_style", "loss_sem", "loss_per")


@dataclass
class TrainLog:
    """A training stage's log: one row per logged step, keyed by ``columns``
    in their order, with an ``iter`` that increases from row to row."""

    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)

    def append(self, **row) -> None:
        if tuple(row) != self.columns:
            raise ValueError(f"log row has columns {tuple(row)}, expected {self.columns}")
        if self.rows and row["iter"] <= self.rows[-1]["iter"]:
            raise ValueError(
                f"log iterations must increase: {row['iter']} after {self.rows[-1]['iter']}"
            )
        self.rows.append(row)

    def to_csv(self, path) -> None:
        """Floats to eight significant digits, ``miou_eval`` to six decimals."""
        sgt.write_csv(path, self.columns, (
            [format(v, ".6f" if k == "miou_eval" else ".8g") if isinstance(v, float) else v
             for k, v in row.items()] for row in self.rows))


def ema_update(prev, now, alpha: float):
    """theta_t = alpha * theta_t_prev + (1 - alpha) * theta_s, elementwise.
    Accepts a single array or a dict of named arrays."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if isinstance(prev, dict):
        if prev.keys() != now.keys():
            raise ValueError("parameter sets differ in their names")
        return {k: ema_update(prev[k], now[k], alpha) for k in prev}
    prev = np.asarray(prev)
    now = np.asarray(now)
    if prev.shape != now.shape:
        raise ValueError(f"shape mismatch: {prev.shape} vs {now.shape}")
    a = prev.dtype.type(alpha)
    return a * prev + (prev.dtype.type(1) - a) * now


# ---------------------------------------------------------------------------
# adversarial stage


@dataclass
class _SeganGraph:
    """The adversarial graph: data inputs and each net's parameter nodes by
    name, and the loss nodes ("seg", "con", "adv_g", "adv_d", "total") that
    the enabled terms define."""

    graph: Graph
    inputs: dict[str, int]
    params: dict[str, dict[str, int]]
    losses: dict[str, int]


def _build_segan_graph(cfg: TrainConfig, ds: DomainDataset, student: NetParams,
                       teacher: NetParams | None, disc: NetParams | None,
                       aug: bool) -> _SeganGraph:
    """A teacher adds the consistency term (SE), a discriminator the
    adversarial term (AT), and ``aug`` the styled-source branch (Aug)."""
    g = Graph()
    sspec: SegNetSpec = student.spec
    bs, bt = cfg.batch_source, cfg.batch_target
    h, w, c = ds.h, ds.w, ds.classes

    inputs = {"x_src": g.input("x_src", (bs, h, w, 3)), "y_src": g.input("y_src", (bs, h, w, c))}
    params = {"student": add_param_inputs(g, "student", student)}
    sn = params["student"]
    probs_src = segnet_forward(g, sspec, sn, inputs["x_src"])["probs"]

    probs_aug = None
    if aug:
        inputs["x_aug"] = g.input("x_aug", (bs, h, w, 3))
        probs_aug = segnet_forward(g, sspec, sn, inputs["x_aug"])["probs"]
    losses = {"seg": seg_loss_node(g, probs_src, inputs["y_src"], probs_aug)}
    parts: list[tuple[int, float]] = [(losses["seg"], 1.0)]

    if disc is not None or teacher is not None:
        inputs["x_tgt"] = g.input("x_tgt", (bt, h, w, 3))
        probs_tgt_student = segnet_forward(g, sspec, sn, inputs["x_tgt"])["probs"]

    if teacher is not None:
        params["teacher"] = add_param_inputs(g, "teacher", teacher)
        probs_tgt_teacher = segnet_forward(g, sspec, params["teacher"], inputs["x_tgt"])["probs"]
        losses["con"] = consistency_loss_node(g, probs_tgt_student, probs_tgt_teacher)
        parts.append((losses["con"], cfg.lambda_con))

    if disc is not None:
        dn = params["disc"] = add_param_inputs(g, "disc", disc)
        d_src = disc_forward(g, disc.spec, dn, probs_src)
        d_aug = disc_forward(g, disc.spec, dn, probs_aug) if aug else None
        d_tgt = disc_forward(g, disc.spec, dn, probs_tgt_student)
        terms = adversarial_terms_node(g, d_src, d_tgt, d_aug)
        losses["adv_g"] = terms["full"]
        losses["adv_d"] = g.scalar_mul(terms["full"], -1.0, name="disc_descend")
        parts.append((losses["adv_g"], cfg.lambda_adv))

    losses["total"] = weighted_sum_node(g, parts, name="student_total")
    return _SeganGraph(g, inputs, params, losses)


def evaluate_student(
    net: NetParams, ds: DomainDataset, count: int, scales: tuple[float, ...] | None = None
) -> MetricReport:
    """mIoU of the network on the first ``count`` held-out target scenes,
    at ``scales`` when given (multi-scale testing).

    The confusion matrix is summed one inference slice at a time, or one
    averaged run of :func:`~segan.networks.multi_scale_slices`, so no
    probability stack is held; integer counts make the sum exact. Each
    slice's label pages are released once its counts are taken."""
    count = min(count, ds.n_target) if count > 0 else ds.n_target
    images = ds.target_images()[:count]
    labels = ds.eval_target_labels()[:count]
    if scales is None:
        slices = label_slices(net, images)
    else:
        slices = ((start, pred) for start, _, pred in multi_scale_slices(net, images, list(scales)))
    counts = 0
    for start, pred in slices:
        counts += confusion_matrix(pred, labels[start:start + len(pred)], ds.classes)
        sgt.release_pages(labels)
    return iou_report(counts)


@dataclass
class _Sweep:
    """One descent per step: ``loss`` moves ``net``, whose parameters are the
    graph inputs ``nodes``, by ``opt`` at the rate of ``sched``."""

    loss: int
    nodes: dict[str, int]
    net: NetParams
    opt: SGD | Adam
    sched: PolySchedule


def _descend(g: Graph, nets: list[tuple[dict[str, int], NetParams]], sweeps: list[_Sweep],
             losses: dict[str, int], batches, hook, offset: int = 0) -> None:
    """The training loop of every stage: one step per batch of data feeds.

    ``nets`` pairs the parameter nodes of every net in ``g`` with its
    parameters; ``losses`` names the loss nodes whose values are checked
    and handed to ``hook(it, values)`` after the optimizers step. Aborts
    are numbered ``offset + it + 1``.
    """
    for it, feeds in enumerate(batches):
        for nodes, net in nets:
            feeds.update(param_feeds(nodes, net))
        # overflow anywhere in the step is reported by the loss and
        # parameter checks, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            acts = forward(g, feeds)
            values = {name: float(acts[node]) for name, node in losses.items()}
            if not all(math.isfinite(v) for v in values.values()):
                raise NumericAbort(offset + it + 1, values)
            grads = [backward(g, s.loss, acts, list(s.nodes.values()))
                     for s in sweeps]
            for s, grad in zip(sweeps, grads):
                named = {name: grad[node] for name, node in s.nodes.items()}
                s.net.values = s.opt.step(s.net.values, named, poly_lr(s.sched, it))
            del acts, grads, grad, named
        bad = [g.nodes[s.nodes[name]].name for s in sweeps
               for name, arr in s.net.values.items() if not np.isfinite(arr).all()]
        if bad:
            raise NumericAbort(offset + it + 1, values, bad)
        hook(it, values)


def check_batches(section: str, ds: DomainDataset, source: int, target: int | None) -> None:
    """Reject, at ``<section>.batch_source`` or ``<section>.batch_target``,
    a batch of more scenes than its domain holds; a ``None`` batch is not
    checked. TGSTN walks a permutation of the source scenes, so it cannot
    fill a larger source batch. ``train`` draws with replacement, where such
    a batch only repeats scenes: it is a mistyped size, and one of 10^6
    32x32 source scenes asked numpy for 11.4 GiB."""
    for domain, batch in (("source", source), ("target", target)):
        n = getattr(ds, f"n_{domain}")
        if batch is not None and batch > n:
            raise ConfigError(
                f"{section}.batch_{domain}",
                f"batch_{domain} is {batch} but the dataset has only "
                f"n_{domain}={n} {domain} scenes; each step needs a full batch",
            )


def train_segan(
    cfg: TrainConfig,
    ds: DomainDataset,
    mode: str,
    seed: int,
    style_fn=None,
    networks: NetworksConfig = NetworksConfig(),
    out_dir=None,
) -> tuple[ModelBundle, TrainLog]:
    """Adversarial stage of Algorithm 1 (lines up to the EMA update), with
    the AT, SE and Aug terms of ``mode``, on the nets ``networks`` sets.

    ``style_fn`` maps a stack of source images to their target-styled
    counterparts; it is required when the mode has the Aug term. It styles
    each drawn source batch, so the stage holds one batch of scenes, never
    a styled copy of the source set. Both stock style functions give each
    image the bytes it gets alone, so this equals styling the whole set
    once and indexing it. After each batch is drawn, the pages it read from
    a mapped dataset are released (``sgt.release_pages``).
    """
    at, se, aug, _, _ = resolve_mode(mode)
    if aug and style_fn is None:
        raise ValueError(f"mode {mode!r} styles source images but no style transform was supplied")

    student = build_segnet(networks.segnet_spec(ds.classes), derive_seed(seed, "student"))
    teacher = student.copy().frozen() if se else None
    disc = None
    if at:
        disc = build_discriminator(networks.disc_spec(ds.classes), derive_seed(seed, "disc"))

    sg = _build_segan_graph(cfg, ds, student, teacher, disc, aug)
    sweeps = [_Sweep(sg.losses["total"], sg.params["student"], student,
                     SGD(momentum=cfg.momentum, weight_decay=cfg.weight_decay),
                     PolySchedule(cfg.lr_student, cfg.poly_power, cfg.maxiter))]
    if disc is not None:
        sweeps.append(_Sweep(sg.losses["adv_d"], sg.params["disc"], disc,
                             Adam(beta1=cfg.beta1, beta2=cfg.beta2, weight_decay=cfg.weight_decay),
                             PolySchedule(cfg.lr_disc, cfg.poly_power, cfg.maxiter)))

    src_imgs, src_labels = ds.source_images(), ds.source_labels()
    tgt_imgs = ds.target_images()
    batch_rng = substream(seed, "batch")
    log = TrainLog(SEGAN_COLUMNS)

    def batches():
        for _ in range(cfg.maxiter):
            idx_s = batch_rng.integers(0, ds.n_source, cfg.batch_source)
            idx_t = batch_rng.integers(0, ds.n_target, cfg.batch_target)
            x_src = src_imgs[idx_s]
            feeds = {sg.inputs["x_src"]: x_src,
                     sg.inputs["y_src"]: one_hot(src_labels[idx_s], ds.classes)}
            if "x_aug" in sg.inputs:
                x_aug = np.asarray(style_fn(x_src), dtype=np.float32)
                if x_aug.shape != x_src.shape:
                    raise ValueError(f"style transform changed the batch shape: "
                                     f"{x_aug.shape} vs {x_src.shape}")
                feeds[sg.inputs["x_aug"]] = x_aug
            if "x_tgt" in sg.inputs:
                feeds[sg.inputs["x_tgt"]] = tgt_imgs[idx_t]
            sgt.release_pages(src_imgs, src_labels, tgt_imgs)
            yield feeds

    def hook(it: int, losses: dict[str, float]) -> None:
        if teacher is not None:
            teacher.values = ema_update(teacher.values, student.values, cfg.alpha)
        step = it + 1
        if step % cfg.eval_interval == 0 or step == cfg.maxiter:
            report = evaluate_student(student, ds, cfg.eval_count)
            lr_disc = poly_lr(sweeps[1].sched, it) if disc is not None else 0.0
            log.append(iter=step, lr_student=poly_lr(sweeps[0].sched, it), lr_disc=lr_disc,
                       loss_seg=losses["seg"], loss_con=losses.get("con", 0.0),
                       loss_adv_g=losses.get("adv_g", 0.0), loss_adv_d=losses.get("adv_d", 0.0),
                       miou_eval=report.miou, stage="adversarial")
        if out_dir is not None and cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0:
            save_bundle(Path(out_dir) / f"checkpoint_{step:06d}.sgt",
                        ModelBundle(student, teacher, disc),
                        seed=seed, iteration=step)

    nets = {"student": student, "teacher": teacher, "disc": disc}
    _descend(sg.graph, [(nodes, nets[k]) for k, nodes in sg.params.items()],
             sweeps, sg.losses, batches(), hook)
    return ModelBundle(student=student, teacher=teacher, disc=disc), log


# ---------------------------------------------------------------------------
# pseudo labels and self-training


def generate_pseudo_labels(teacher: NetParams, images: np.ndarray) -> np.ndarray:
    """(n,h,w) uint8 label maps of the teacher's per-pixel argmax; ties
    resolve to the lowest class index. They are written one inference slice
    at a time, so no probability stack is held."""
    (pseudo,) = collect(label_slices(teacher, images), len(images))
    return pseudo


def self_train(
    cfg: TrainConfig,
    student: NetParams,
    pseudo: np.ndarray,
    ds: DomainDataset,
    seed: int,
    log: TrainLog | None = None,
    iter_offset: int = 0,
) -> tuple[NetParams, TrainLog]:
    """Descend the cross entropy against the (n_target,h,w) pseudo-label
    maps on target images for ``cfg.st_maxiter`` iterations on a fresh poly
    schedule from ``cfg.st_lr``."""
    pseudo = np.asarray(pseudo)
    expected = (ds.n_target, ds.h, ds.w)
    if pseudo.shape != expected:
        raise ValueError(f"pseudo labels have shape {pseudo.shape}, expected {expected}")
    log = log if log is not None else TrainLog(SEGAN_COLUMNS)
    if cfg.st_maxiter == 0:
        return student, log

    bt = cfg.batch_target
    g = Graph()
    x = g.input("x_tgt", (bt, ds.h, ds.w, 3))
    y = g.input("pseudo", (bt, ds.h, ds.w, ds.classes))
    pn = add_param_inputs(g, "student", student)
    probs = segnet_forward(g, student.spec, pn, x)["probs"]
    loss = pixel_ce_node(g, probs, y, name="st")

    sweep = _Sweep(loss, pn, student, SGD(momentum=cfg.momentum, weight_decay=cfg.weight_decay),
                   PolySchedule(cfg.st_lr, cfg.poly_power, cfg.st_maxiter))
    rng = substream(seed, "batch", "selftrain")
    tgt_imgs = ds.target_images()

    def batches():
        for _ in range(cfg.st_maxiter):
            idx = rng.integers(0, ds.n_target, bt)
            feeds = {x: tgt_imgs[idx], y: one_hot(pseudo[idx], ds.classes)}
            sgt.release_pages(tgt_imgs)
            yield feeds

    def hook(it: int, losses: dict[str, float]) -> None:
        step = it + 1
        if step % cfg.eval_interval == 0 or step == cfg.st_maxiter:
            report = evaluate_student(student, ds, cfg.eval_count)
            log.append(iter=iter_offset + step, lr_student=poly_lr(sweep.sched, it), lr_disc=0.0,
                       loss_seg=losses["self_train"], loss_con=0.0, loss_adv_g=0.0,
                       loss_adv_d=0.0, miou_eval=report.miou, stage="self_train")

    _descend(g, [(pn, student)], [sweep], {"self_train": loss}, batches(), hook, iter_offset)
    return student, log


# ---------------------------------------------------------------------------
# style-transfer stage


def train_tgstn(
    cfg: TGSTNConfig,
    ds: DomainDataset,
    phi: NetParams,
    seed: int,
    networks: NetworksConfig = NetworksConfig(),
) -> tuple[NetParams, TrainLog]:
    """Task-guided style transfer: the generator restyles source images to
    fool an image-level discriminator while a frozen segmenter anchors both
    the semantics (cross entropy under the source labels) and the features
    (perceptual penalty between original and restyled activations). The
    generator and the image discriminator are the nets ``networks`` sets."""
    if phi.trainable:
        raise ValueError("the guiding segmenter must be frozen; got trainable=True")
    if phi.spec.class_count != ds.classes:
        raise ValueError(
            f"guiding segmenter emits {phi.spec.class_count} classes, dataset has {ds.classes}"
        )
    # each epoch walks a permutation of the source scenes; target batches
    # draw with replacement
    check_batches("tgstn", ds, cfg.batch_source, None)

    gen = build_style_generator(networks.stylegen_spec(), derive_seed(seed, "gen"))
    disc = build_discriminator(networks.disc_spec(3), derive_seed(seed, "styledisc"))

    bs, bt = cfg.batch_source, cfg.batch_target
    g = Graph()
    x_src = g.input("x_src", (bs, ds.h, ds.w, 3))
    y_src = g.input("y_src", (bs, ds.h, ds.w, ds.classes))
    x_tgt = g.input("x_tgt", (bt, ds.h, ds.w, 3))
    gn = add_param_inputs(g, "gen", gen)
    dn = add_param_inputs(g, "disc", disc)
    phin = add_param_inputs(g, "phi", phi)

    transferred = stylegen_forward(g, gen.spec, gn, x_src)
    d_real = disc_forward(g, disc.spec, dn, x_tgt)
    d_src = disc_forward(g, disc.spec, dn, x_src)
    d_gen = disc_forward(g, disc.spec, dn, transferred)
    style = style_adversarial_terms_node(g, d_real, d_src, d_gen)

    phi_gen = segnet_forward(g, phi.spec, phin, transferred)
    phi_src = segnet_body(g, phi.spec, phin, x_src)
    loss_sem = pixel_ce_node(g, phi_gen["probs"], y_src, name="sem")
    loss_per = consistency_loss_node(g, phi_gen["features"], phi_src, name="per")

    gen_total = weighted_sum_node(
        g,
        [(style["full"], 1.0), (loss_sem, cfg.lambda_sem), (loss_per, cfg.lambda_per)],
        name="gen_total",
    )
    disc_loss = g.scalar_mul(style["full"], -1.0, name="styledisc_descend")

    steps_per_epoch = ds.n_source // bs
    total_steps = cfg.epochs * steps_per_epoch
    log = TrainLog(TGSTN_COLUMNS)
    if total_steps == 0:
        return gen, log

    sweeps = [
        _Sweep(loss, nodes, net,
               Adam(beta1=cfg.beta1, beta2=cfg.beta2, weight_decay=cfg.weight_decay),
               PolySchedule(lr, cfg.poly_power, total_steps))
        for loss, nodes, net, lr in ((gen_total, gn, gen, cfg.lr_gen),
                                     (disc_loss, dn, disc, cfg.lr_disc))
    ]
    rng = substream(seed, "batch", "tgstn")
    src_imgs, src_labels = ds.source_images(), ds.source_labels()
    tgt_imgs = ds.target_images()

    def batches():
        for _epoch in range(cfg.epochs):
            order = rng.permutation(ds.n_source)
            for k in range(steps_per_epoch):
                idx_s = order[k * bs : (k + 1) * bs]
                idx_t = rng.integers(0, ds.n_target, bt)
                feeds = {x_src: src_imgs[idx_s], y_src: one_hot(src_labels[idx_s], ds.classes),
                         x_tgt: tgt_imgs[idx_t]}
                sgt.release_pages(src_imgs, src_labels, tgt_imgs)
                yield feeds

    def hook(it: int, losses: dict[str, float]) -> None:
        lr_gen, lr_disc = (poly_lr(s.sched, it) for s in sweeps)
        log.append(iter=it + 1, lr_gen=lr_gen, lr_disc=lr_disc, loss_style=losses["style"],
                   loss_sem=losses["sem"], loss_per=losses["per"])

    _descend(g, [(gn, gen), (dn, disc), (phin, phi)], sweeps,
             {"style": style["full"], "sem": loss_sem, "per": loss_per}, batches(), hook)
    return gen, log


def apply_style_generator(gen: NetParams, images: np.ndarray) -> np.ndarray:
    """Run the generator over an (h,w,c) image or an (n,h,w,c) stack, one
    inference slice at a time. As in :func:`predict_segmentation`, only
    float rounding could move against one whole-batch graph; on the stock
    generator the output is bit-identical, and the tests hold it to that.
    """
    return infer_stack(gen, "gen", stylegen_forward, images)


def oracle_style_fn(ds: DomainDataset):
    """Style transform taken straight from the generating appearance
    parameters; the reference against which a trained generator is judged."""
    rel = relative_appearance(ds.source_params.appearance, ds.target_params.appearance)
    return lambda images: apply_domain_style(images, rel)


def tgstn_style_fn(gen: NetParams):
    return lambda images: apply_style_generator(gen, images)


def pretrain_phi(
    ds: DomainDataset,
    seed: int,
    maxiter: int = 400,
    networks: NetworksConfig = NetworksConfig(),
) -> NetParams:
    """Source-only supervised segmenter, frozen, for guiding style transfer.
    It trains ``noadapt`` at the default :class:`TrainConfig` rates, not at
    a run's ``train`` section, so a config file does not move it."""
    cfg = TrainConfig(maxiter=maxiter, eval_interval=max(1, maxiter), eval_count=1)
    bundle, _ = train_segan(cfg, ds, "noadapt", derive_seed(seed, "phi"), networks=networks)
    return bundle.student.frozen()


# ---------------------------------------------------------------------------
# checkpoints


def save_bundle(path, bundle: ModelBundle, **meta) -> None:
    tensors: dict[str, np.ndarray] = {}
    specs: dict[str, dict] = {}
    for comp in ("student", "teacher", "disc", "generator"):
        net: NetParams | None = getattr(bundle, comp)
        if net is None:
            continue
        specs[comp] = spec_to_dict(net.spec)
        for name, arr in net.values.items():
            tensors[f"{comp}/{name}"] = arr
    sgt.save_checkpoint(path, tensors, {"specs": specs, **meta})


def _check_tensors(path, comp: str, spec, values: dict[str, np.ndarray]) -> None:
    """Raise ``FormatError`` at the first tensor of net ``comp`` that is
    missing from ``values``, or is not the float32 shape its builder makes
    for ``spec``, or that the builder does not make at all."""
    want = {}
    for layer, shape in layer_shapes(spec).items():
        want[f"{layer}/w"], want[f"{layer}/b"] = shape, shape[3:]
    for name, shape in want.items():
        if name not in values:
            raise sgt.FormatError(f"{path}: tensor {comp}/{name} is missing")
        arr = values[name]
        if arr.shape != shape or arr.dtype != np.float32:
            raise sgt.FormatError(f"{path}: tensor {comp}/{name} is {arr.dtype} {arr.shape}, "
                                  f"its spec makes float32 {shape}")
    for name in values:
        if name not in want:
            raise sgt.FormatError(f"{path}: tensor {comp}/{name} is not in its spec")


def load_bundle(path) -> tuple[ModelBundle, dict]:
    """The nets of a checkpoint, each checked against its spec, and the
    discriminator against the segmenter whose maps it takes; raises
    ``FormatError`` naming the file at the first disagreement. Each net
    tensor is copied out of the checkpoint's read-only map, so the nets own
    writeable arrays and keep their values if the file is later rewritten,
    even in place."""
    tensors, meta = sgt.load_checkpoint(path)
    if not isinstance(meta.get("specs"), dict):
        raise sgt.FormatError(f"{path} holds no networks (no 'specs' object in its metadata)")
    seed = meta.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise sgt.FormatError(f"{path}: metadata seed must be a non-negative integer, "
                              f"got {seed!r}")
    nets: dict[str, NetParams | None] = {}
    for comp, spec_dict in meta["specs"].items():
        values = {
            name.split("/", 1)[1]: arr
            for name, arr in tensors.items()
            if name.startswith(f"{comp}/")
        }
        try:
            spec = spec_from_dict(spec_dict, f"specs.{comp}")
        except ConfigError as e:
            raise sgt.FormatError(f"{path}: bad network spec: {e}") from None
        _check_tensors(path, comp, spec, values)
        nets[comp] = NetParams(spec, values).copy()
    for name in tensors:
        comp, _, layer = name.partition("/")
        if comp not in nets or layer not in nets[comp].values:
            raise sgt.FormatError(f"{path}: tensor {name} belongs to no network spec")
    bundle = ModelBundle(*(nets.get(c) for c in ("student", "teacher", "disc", "generator")))
    s, d = bundle.student, bundle.disc
    if s is not None and d is not None and d.spec.in_channels != s.spec.class_count:
        raise sgt.FormatError(f"{path}: the discriminator takes {d.spec.in_channels} channels, "
                              f"but the segmenter emits {s.spec.class_count} classes")
    return bundle, meta


# ---------------------------------------------------------------------------
# ablation runner


def run_ablation(
    mode: str,
    ds: DomainDataset,
    cfg: TrainConfig,
    seed: int,
    style_fn=None,
    out_dir=None,
    networks: NetworksConfig = NetworksConfig(),
) -> tuple[MetricReport, ModelBundle, TrainLog]:
    """Run one rung of the ablation ladder on the nets ``networks`` sets
    and evaluate on held-out labels. ``out_dir`` receives only the
    adversarial stage's interval checkpoints."""
    _, _, _, st, mst = resolve_mode(mode)
    bundle, log = train_segan(cfg, ds, mode, seed, style_fn=style_fn, networks=networks,
                              out_dir=out_dir)
    if st:
        pseudo = generate_pseudo_labels(bundle.teacher, ds.target_images())
        self_train(cfg, bundle.student, pseudo, ds, seed, log=log, iter_offset=cfg.maxiter)

    scales = cfg.mst_scales if mst else None
    report = evaluate_student(bundle.student, ds, count=0, scales=scales)
    return report, bundle, log
