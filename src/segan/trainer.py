"""Training loops: the adversarial self-ensembling stage, style-transfer
pre-training, pseudo-label self-training, and the cumulative ablation runner.

Per adversarial iteration (in this order): sample a source/target batch,
evaluate the shared graph once, step the student by SGD on the weighted
objective, step the discriminator by Adam on the negated alignment loss
(ascent), then update the teacher as an exponential moving average of the
student. Both optimizers follow poly schedules. A NaN in any loss aborts
with the iteration index and a loss breakdown.

Determinism: all sampling and initialization derive from one seed through
named substreams, and batch indices for both domains are drawn every
iteration regardless of which terms are enabled, so runs with different
flags stay comparable and equal-seed runs are bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
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
    DiscSpec,
    ModelBundle,
    NetParams,
    SegNetSpec,
    StyleGenSpec,
    add_param_inputs,
    build_discriminator,
    build_segnet,
    build_style_generator,
    disc_forward,
    multi_scale_predict,
    param_feeds,
    predict_segmentation,
    segnet_forward,
    spec_from_dict,
    spec_to_dict,
    stylegen_forward,
)
from .optim import SGD, Adam, PolySchedule, poly_lr
from .tensor import Graph, Tensor, backward, forward
from .utils import derive_seed, one_hot, substream

LOG_HEADER = "iter, lr_student, lr_disc, loss_seg, loss_con, loss_adv_g, loss_adv_d, miou_eval"

MODES = ("NoAdapt", "AT", "AT+SE", "AT+SE+Aug", "+ST", "+MST")
_MODE_FLAGS = {
    "noadapt": (False, False, False, False, False),
    "at": (True, False, False, False, False),
    "at+se": (True, True, False, False, False),
    "at+se+aug": (True, True, True, False, False),
    "+st": (True, True, True, True, False),
    "+mst": (True, True, True, True, True),
}
_MODE_ALIASES = {"full": "+st", "full+mst": "+mst"}


def resolve_mode(mode: str) -> tuple[bool, bool, bool, bool, bool]:
    key = mode.strip().lower()
    key = _MODE_ALIASES.get(key, key)
    if key not in _MODE_FLAGS:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES} or 'full'")
    return _MODE_FLAGS[key]


class NumericAbort(RuntimeError):
    """A loss went non-finite; carries the iteration and loss breakdown."""

    def __init__(self, iteration: int, losses: dict[str, float]):
        self.iteration = iteration
        self.losses = losses
        parts = ", ".join(f"{k}={v!r}" for k, v in losses.items())
        super().__init__(f"non-finite loss at iteration {iteration}: {parts}")


@dataclass
class TrainConfig:
    """Adversarial stage configuration. Defaults follow the reference
    hyperparameters; desk-scale runs shrink maxiter and batch sizes."""

    lambda_con: float = 3.0
    lambda_adv: float = 0.001
    alpha: float = 0.999
    lr_student: float = 2.5e-5
    momentum: float = 0.9
    lr_disc: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 5e-5
    poly_power: float = 0.9
    maxiter: int = 3000
    st_maxiter: int = 1000
    st_lr: float | None = None  # self-training lr; falls back to lr_student
    batch_source: int = 2
    batch_target: int = 2
    eval_interval: int = 100
    checkpoint_interval: int = 0  # 0 disables interval checkpoints
    eval_count: int = 16
    seed: int = 0
    at: bool = False
    se: bool = False
    aug: bool = False
    st: bool = False
    mst: bool = False
    adv_target_only: bool = False
    mst_scales: tuple[float, ...] = (0.75, 1.0, 1.25)

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("lambda_con", "lambda_adv"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")
        if self.st_maxiter < 0:
            raise ValueError(f"st_maxiter must be >= 0, got {self.st_maxiter}")
        if self.batch_source < 1 or self.batch_target < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.eval_interval < 1:
            raise ValueError(f"eval_interval must be >= 1, got {self.eval_interval}")
        self.mst_scales = tuple(self.mst_scales)


@dataclass
class TGSTNConfig:
    """Style-transfer stage configuration."""

    lambda_sem: float = 10.0
    lambda_per: float = 1.0
    lr_gen: float = 5e-4
    lr_disc: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 5e-5
    poly_power: float = 0.9
    epochs: int = 5
    batch_source: int = 2
    batch_target: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_source < 1 or self.batch_target < 1:
            raise ValueError("batch sizes must be >= 1")
        for name in ("lambda_sem", "lambda_per"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class LogRow:
    iteration: int
    lr_student: float
    lr_disc: float
    loss_seg: float
    loss_con: float
    loss_adv_g: float
    loss_adv_d: float
    miou_eval: float


@dataclass
class TrainLog:
    rows: list[LogRow] = field(default_factory=list)

    def append(self, row: LogRow) -> None:
        if self.rows and row.iteration <= self.rows[-1].iteration:
            raise ValueError(
                f"log iterations must increase: {row.iteration} after "
                f"{self.rows[-1].iteration}"
            )
        self.rows.append(row)

    def miou_series(self) -> list[float]:
        return [r.miou_eval for r in self.rows]

    def to_csv(self, path) -> None:
        lines = [LOG_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.iteration},{r.lr_student:.8g},{r.lr_disc:.8g},{r.loss_seg:.8g},"
                f"{r.loss_con:.8g},{r.loss_adv_g:.8g},{r.loss_adv_d:.8g},{r.miou_eval:.6f}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


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
    graph: Graph
    x_src: int
    y_src: int
    x_aug: int | None
    x_tgt: int | None
    student_nodes: dict[str, int]
    teacher_nodes: dict[str, int] | None
    disc_nodes: dict[str, int] | None
    loss_seg: int
    loss_con: int | None
    adv_gen: int | None
    adv_full: int | None
    total: int
    disc_loss: int | None


def _build_segan_graph(cfg: TrainConfig, ds: DomainDataset, student: NetParams,
                       teacher: NetParams | None, disc: NetParams | None) -> _SeganGraph:
    g = Graph()
    sspec: SegNetSpec = student.spec
    bs, bt = cfg.batch_source, cfg.batch_target
    h, w, c = ds.h, ds.w, ds.classes

    x_src = g.input("x_src", (bs, h, w, 3))
    y_src = g.input("y_src", (bs, h, w, c))
    sn = add_param_inputs(g, "student", student)
    logits_src = segnet_forward(g, sspec, sn, x_src)["logits"]

    x_aug = logits_aug = None
    if cfg.aug:
        x_aug = g.input("x_aug", (bs, h, w, 3))
        logits_aug = segnet_forward(g, sspec, sn, x_aug)["logits"]
    loss_seg = seg_loss_node(g, logits_src, y_src, logits_aug)

    x_tgt = tn = dn = loss_con = adv_gen = adv_full = disc_loss = None
    probs_tgt_student = None
    if cfg.at or cfg.se:
        x_tgt = g.input("x_tgt", (bt, h, w, 3))
        logits_tgt = segnet_forward(g, sspec, sn, x_tgt)["logits"]
        probs_tgt_student = g.softmax(logits_tgt, name="probs_tgt_s")

    if cfg.se:
        tn = add_param_inputs(g, "teacher", teacher)
        t_logits = segnet_forward(g, sspec, tn, x_tgt)["logits"]
        probs_tgt_teacher = g.softmax(t_logits, name="probs_tgt_t")
        loss_con = consistency_loss_node(g, probs_tgt_student, probs_tgt_teacher)

    if cfg.at:
        dn = add_param_inputs(g, "disc", disc)
        d_src = disc_forward(g, disc.spec, dn, g.softmax(logits_src, name="probs_src"))
        d_aug = None
        if cfg.aug:
            d_aug = disc_forward(g, disc.spec, dn, g.softmax(logits_aug, name="probs_aug"))
        d_tgt = disc_forward(g, disc.spec, dn, probs_tgt_student)
        terms = adversarial_terms_node(g, d_src, d_tgt, d_aug)
        adv_full = terms["full"]
        adv_gen = terms["tgt"] if cfg.adv_target_only else terms["full"]
        disc_loss = g.scalar_mul(adv_full, -1.0, name="disc_descend")

    parts: list[tuple[int, float]] = [(loss_seg, 1.0)]
    if loss_con is not None:
        parts.append((loss_con, cfg.lambda_con))
    if adv_gen is not None:
        parts.append((adv_gen, cfg.lambda_adv))
    total = weighted_sum_node(g, parts, name="student_total")

    return _SeganGraph(
        graph=g, x_src=x_src, y_src=y_src, x_aug=x_aug, x_tgt=x_tgt,
        student_nodes=sn, teacher_nodes=tn, disc_nodes=dn,
        loss_seg=loss_seg, loss_con=loss_con, adv_gen=adv_gen, adv_full=adv_full,
        total=total, disc_loss=disc_loss,
    )


def evaluate_student(
    net: NetParams, ds: DomainDataset, count: int, scales: tuple[float, ...] | None = None
) -> MetricReport:
    """mIoU of the network on the first ``count`` held-out target scenes."""
    count = min(count, ds.n_target) if count > 0 else ds.n_target
    images = ds.target_images()[:count]
    labels = ds.eval_target_labels()[:count]
    if scales is not None:
        _, pred = multi_scale_predict(net, images, list(scales))
    else:
        _, pred = predict_segmentation(net, images)
    return iou_report(confusion_matrix(pred, labels, ds.classes))


def _check_finite(iteration: int, named_losses: dict[str, float]) -> None:
    if any(not math.isfinite(v) for v in named_losses.values()):
        raise NumericAbort(iteration, named_losses)


def train_segan(
    cfg: TrainConfig,
    ds: DomainDataset,
    style_fn=None,
    seed: int | None = None,
    seg_spec: SegNetSpec | None = None,
    disc_spec: DiscSpec | None = None,
    out_dir=None,
    log: TrainLog | None = None,
) -> tuple[ModelBundle, TrainLog]:
    """Adversarial stage of Algorithm 1 (lines up to the EMA update).

    ``style_fn`` maps a stack of source images to their target-styled
    counterparts; it is required when the Aug flag is set and is applied
    once up front since the generator stays fixed during this stage.
    """
    seed = cfg.seed if seed is None else seed
    if cfg.aug and style_fn is None:
        raise ValueError("Aug flag is set but no style transform was supplied")

    seg_spec = seg_spec or SegNetSpec(class_count=ds.classes)
    if seg_spec.class_count != ds.classes:
        raise ValueError(
            f"segmenter emits {seg_spec.class_count} classes, dataset has {ds.classes}"
        )
    student = build_segnet(seg_spec, derive_seed(seed, "student"))
    teacher = NetParams(seg_spec, {k: v.copy() for k, v in student.values.items()},
                        trainable=False) if cfg.se else None
    disc = None
    if cfg.at:
        dspec = disc_spec or DiscSpec(in_channels=ds.classes)
        if dspec.in_channels != ds.classes:
            raise ValueError(
                f"discriminator expects {dspec.in_channels} channels, maps have {ds.classes}"
            )
        disc = build_discriminator(dspec, derive_seed(seed, "disc"))

    sg = _build_segan_graph(cfg, ds, student, teacher, disc)
    g = sg.graph

    opt_student = SGD(momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    opt_disc = Adam(beta1=cfg.beta1, beta2=cfg.beta2, weight_decay=cfg.weight_decay)
    sched_s = PolySchedule(cfg.lr_student, cfg.poly_power, cfg.maxiter)
    sched_d = PolySchedule(cfg.lr_disc, cfg.poly_power, cfg.maxiter)

    src_imgs = ds.source_images()
    src_onehot = one_hot(ds.source_labels(), ds.classes, dtype=np.float32)
    tgt_imgs = ds.target_images()
    aug_imgs = np.asarray(style_fn(src_imgs), dtype=np.float32) if cfg.aug else None
    if cfg.aug and aug_imgs.shape != src_imgs.shape:
        raise ValueError(
            f"style transform changed the batch shape: {aug_imgs.shape} vs {src_imgs.shape}"
        )

    batch_rng = substream(seed, "batch")
    log = log if log is not None else TrainLog()

    student_ids = list(sg.student_nodes.values())
    disc_ids = list(sg.disc_nodes.values()) if disc is not None else []

    for it in range(cfg.maxiter):
        idx_s = batch_rng.integers(0, ds.n_source, cfg.batch_source)
        idx_t = batch_rng.integers(0, ds.n_target, cfg.batch_target)

        feeds: dict[int, Tensor] = {
            sg.x_src: Tensor(src_imgs[idx_s]),
            sg.y_src: Tensor(src_onehot[idx_s]),
        }
        if sg.x_aug is not None:
            feeds[sg.x_aug] = Tensor(aug_imgs[idx_s])
        if sg.x_tgt is not None:
            feeds[sg.x_tgt] = Tensor(tgt_imgs[idx_t])
        feeds.update(param_feeds(sg.student_nodes, student))
        if teacher is not None:
            feeds.update(param_feeds(sg.teacher_nodes, teacher))
        if disc is not None:
            feeds.update(param_feeds(sg.disc_nodes, disc))

        acts = forward(g, feeds)
        losses = {
            "seg": float(acts[sg.loss_seg]),
            "con": float(acts[sg.loss_con]) if sg.loss_con is not None else 0.0,
            "adv_g": float(acts[sg.adv_gen]) if sg.adv_gen is not None else 0.0,
            "adv_d": -float(acts[sg.adv_full]) if sg.adv_full is not None else 0.0,
            "total": float(acts[sg.total]),
        }
        _check_finite(it + 1, losses)

        sgrads = backward(g, sg.total, acts, feeds, wrt=student_ids)
        named_sgrads = {name: sgrads[node] for name, node in sg.student_nodes.items()}
        dgrads = None
        if disc is not None:
            dg = backward(g, sg.disc_loss, acts, feeds, wrt=disc_ids)
            dgrads = {name: dg[node] for name, node in sg.disc_nodes.items()}

        student.values = opt_student.step(student.values, named_sgrads, poly_lr(sched_s, it))
        if disc is not None:
            disc.values = opt_disc.step(disc.values, dgrads, poly_lr(sched_d, it))
        if teacher is not None:
            teacher.values = ema_update(teacher.values, student.values, cfg.alpha)

        step = it + 1
        if step % cfg.eval_interval == 0 or step == cfg.maxiter:
            report = evaluate_student(student, ds, cfg.eval_count)
            log.append(
                LogRow(
                    iteration=step,
                    lr_student=poly_lr(sched_s, it),
                    lr_disc=poly_lr(sched_d, it) if disc is not None else 0.0,
                    loss_seg=losses["seg"],
                    loss_con=losses["con"],
                    loss_adv_g=losses["adv_g"],
                    loss_adv_d=losses["adv_d"],
                    miou_eval=report.miou,
                )
            )
        if (
            out_dir is not None
            and cfg.checkpoint_interval
            and step % cfg.checkpoint_interval == 0
        ):
            bundle = ModelBundle(student, teacher, disc)
            save_bundle(Path(out_dir) / f"checkpoint_{step:06d}.sgt", bundle,
                        seed=seed, iteration=step, config=asdict(cfg))

    return ModelBundle(student=student, teacher=teacher, disc=disc), log


# ---------------------------------------------------------------------------
# pseudo labels and self-training


def generate_pseudo_labels(teacher: NetParams, images: np.ndarray) -> np.ndarray:
    """One-hot uint8 maps of the teacher's per-pixel argmax; ties resolve to
    the lowest class index."""
    _, labels = predict_segmentation(teacher, images)
    return one_hot(labels, teacher.spec.class_count, dtype=np.uint8)


def self_train(
    cfg: TrainConfig,
    student: NetParams,
    pseudo: np.ndarray,
    ds: DomainDataset,
    seed: int | None = None,
    log: TrainLog | None = None,
    iter_offset: int = 0,
) -> tuple[NetParams, TrainLog]:
    """Descend the pseudo-label cross entropy on target images for
    ``cfg.st_maxiter`` iterations on a fresh poly schedule."""
    seed = cfg.seed if seed is None else seed
    pseudo = np.asarray(pseudo)
    expected = (ds.n_target, ds.h, ds.w, ds.classes)
    if pseudo.shape != expected:
        raise ValueError(f"pseudo labels have shape {pseudo.shape}, expected {expected}")
    log = log if log is not None else TrainLog()
    if cfg.st_maxiter == 0:
        return student, log

    bt = cfg.batch_target
    g = Graph()
    x = g.input("x_tgt", (bt, ds.h, ds.w, 3))
    y = g.input("pseudo", (bt, ds.h, ds.w, ds.classes))
    pn = add_param_inputs(g, "student", student)
    logits = segnet_forward(g, student.spec, pn, x)["logits"]
    loss = pixel_ce_node(g, logits, y, name="st")

    opt = SGD(momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    st_lr = cfg.lr_student if cfg.st_lr is None else cfg.st_lr
    sched = PolySchedule(st_lr, cfg.poly_power, cfg.st_maxiter)
    rng = substream(seed, "batch", "selftrain")
    tgt_imgs = ds.target_images()
    pseudo_f = pseudo.astype(np.float32)
    param_ids = list(pn.values())

    for it in range(cfg.st_maxiter):
        idx = rng.integers(0, ds.n_target, bt)
        feeds = {x: Tensor(tgt_imgs[idx]), y: Tensor(pseudo_f[idx]), **param_feeds(pn, student)}
        acts = forward(g, feeds)
        val = float(acts[loss])
        _check_finite(iter_offset + it + 1, {"self_train": val})
        grads = backward(g, loss, acts, feeds, wrt=param_ids)
        named = {name: grads[node] for name, node in pn.items()}
        student.values = opt.step(student.values, named, poly_lr(sched, it))

        step = it + 1
        if step % cfg.eval_interval == 0 or step == cfg.st_maxiter:
            report = evaluate_student(student, ds, cfg.eval_count)
            log.append(
                LogRow(
                    iteration=iter_offset + step,
                    lr_student=poly_lr(sched, it),
                    lr_disc=0.0,
                    loss_seg=val,
                    loss_con=0.0,
                    loss_adv_g=0.0,
                    loss_adv_d=0.0,
                    miou_eval=report.miou,
                )
            )
    return student, log


# ---------------------------------------------------------------------------
# style-transfer stage


@dataclass
class TGSTNRow:
    iteration: int
    lr_gen: float
    lr_disc: float
    loss_style: float
    loss_sem: float
    loss_per: float


@dataclass
class TGSTNLog:
    rows: list[TGSTNRow] = field(default_factory=list)

    def to_csv(self, path) -> None:
        lines = ["iter, lr_gen, lr_disc, loss_style, loss_sem, loss_per"]
        for r in self.rows:
            lines.append(
                f"{r.iteration},{r.lr_gen:.8g},{r.lr_disc:.8g},{r.loss_style:.8g},"
                f"{r.loss_sem:.8g},{r.loss_per:.8g}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def check_tgstn_batches(cfg: TGSTNConfig, ds: DomainDataset) -> None:
    """Reject a source batch larger than the dataset: each step needs a full
    batch of distinct scenes."""
    if ds.n_source < cfg.batch_source:
        raise ValueError(
            f"tgstn batch_source is {cfg.batch_source} but the dataset has only "
            f"n_source={ds.n_source} source scenes; each step needs a full batch"
        )


def train_tgstn(
    cfg: TGSTNConfig,
    ds: DomainDataset,
    phi: NetParams,
    seed: int | None = None,
    gen_spec: StyleGenSpec | None = None,
    disc_spec: DiscSpec | None = None,
) -> tuple[NetParams, TGSTNLog]:
    """Task-guided style transfer: the generator restyles source images to
    fool an image-level discriminator while a frozen segmenter anchors both
    the semantics (cross entropy under the source labels) and the features
    (perceptual penalty between original and restyled activations)."""
    if phi.trainable:
        raise ValueError("the guiding segmenter must be frozen; got trainable=True")
    if phi.spec.class_count != ds.classes:
        raise ValueError(
            f"guiding segmenter emits {phi.spec.class_count} classes, dataset has {ds.classes}"
        )
    check_tgstn_batches(cfg, ds)
    seed = cfg.seed if seed is None else seed

    gen = build_style_generator(gen_spec or StyleGenSpec(), derive_seed(seed, "gen"))
    disc = build_discriminator(disc_spec or DiscSpec(in_channels=3),
                               derive_seed(seed, "styledisc"))

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
    phi_src = segnet_forward(g, phi.spec, phin, x_src)
    loss_sem = pixel_ce_node(g, phi_gen["logits"], y_src, name="sem")
    loss_per = consistency_loss_node(g, phi_gen["features"], phi_src["features"], name="per")

    gen_total = weighted_sum_node(
        g,
        [(style["full"], 1.0), (loss_sem, cfg.lambda_sem), (loss_per, cfg.lambda_per)],
        name="gen_total",
    )
    disc_loss = g.scalar_mul(style["full"], -1.0, name="styledisc_descend")

    steps_per_epoch = ds.n_source // bs
    total_steps = cfg.epochs * steps_per_epoch
    log = TGSTNLog()
    if total_steps == 0:
        return gen, log

    opt_gen = Adam(beta1=cfg.beta1, beta2=cfg.beta2, weight_decay=cfg.weight_decay)
    opt_disc = Adam(beta1=cfg.beta1, beta2=cfg.beta2, weight_decay=cfg.weight_decay)
    sched_g = PolySchedule(cfg.lr_gen, cfg.poly_power, total_steps)
    sched_d = PolySchedule(cfg.lr_disc, cfg.poly_power, total_steps)
    rng = substream(seed, "batch", "tgstn")

    src_imgs = ds.source_images()
    src_onehot = one_hot(ds.source_labels(), ds.classes, dtype=np.float32)
    tgt_imgs = ds.target_images()
    gen_ids = list(gn.values())
    disc_ids = list(dn.values())

    it = 0
    for _epoch in range(cfg.epochs):
        order = rng.permutation(ds.n_source)
        for k in range(steps_per_epoch):
            idx_s = order[k * bs : (k + 1) * bs]
            idx_t = rng.integers(0, ds.n_target, bt)
            feeds: dict[int, Tensor] = {
                x_src: Tensor(src_imgs[idx_s]),
                y_src: Tensor(src_onehot[idx_s]),
                x_tgt: Tensor(tgt_imgs[idx_t]),
                **param_feeds(gn, gen),
                **param_feeds(dn, disc),
                **param_feeds(phin, phi),
            }

            acts = forward(g, feeds)
            vals = {
                "style": float(acts[style["full"]]),
                "sem": float(acts[loss_sem]),
                "per": float(acts[loss_per]),
            }
            _check_finite(it + 1, vals)

            ggrads = backward(g, gen_total, acts, feeds, wrt=gen_ids)
            dgrads = backward(g, disc_loss, acts, feeds, wrt=disc_ids)
            gen.values = opt_gen.step(
                gen.values, {n: ggrads[node] for n, node in gn.items()}, poly_lr(sched_g, it)
            )
            disc.values = opt_disc.step(
                disc.values, {n: dgrads[node] for n, node in dn.items()}, poly_lr(sched_d, it)
            )
            it += 1
            log.rows.append(
                TGSTNRow(it, poly_lr(sched_g, it - 1), poly_lr(sched_d, it - 1),
                         vals["style"], vals["sem"], vals["per"])
            )
    return gen, log


def apply_style_generator(gen: NetParams, images: np.ndarray) -> np.ndarray:
    """Run the generator over a stack of images."""
    images = np.asarray(images, dtype=np.float32)
    squeeze = images.ndim == 3
    if squeeze:
        images = images[None]
    g = Graph()
    x = g.input("x", images.shape)
    pn = add_param_inputs(g, "gen", gen)
    out = stylegen_forward(g, gen.spec, pn, x)
    feeds = {x: images, **param_feeds(pn, gen)}
    result = forward(g, feeds)[out]
    return result[0] if squeeze else result


def oracle_style_fn(ds: DomainDataset):
    """Style transform taken straight from the generating appearance
    parameters; the reference against which a trained generator is judged."""
    rel = relative_appearance(ds.source_params.appearance, ds.target_params.appearance)

    def fn(images: np.ndarray) -> np.ndarray:
        images = np.asarray(images)
        if images.ndim == 3:
            return apply_domain_style(images, rel)
        return np.stack([apply_domain_style(im, rel) for im in images])

    return fn


def tgstn_style_fn(gen: NetParams):
    return lambda images: apply_style_generator(gen, images)


def pretrain_phi(
    ds: DomainDataset,
    seed: int,
    maxiter: int = 400,
    lr: float = 0.1,
    seg_spec: SegNetSpec | None = None,
) -> NetParams:
    """Source-only supervised segmenter, frozen, for guiding style transfer."""
    cfg = TrainConfig(maxiter=maxiter, lr_student=lr, eval_interval=max(1, maxiter),
                      eval_count=1, seed=seed)
    bundle, _ = train_segan(cfg, ds, seed=derive_seed(seed, "phi"), seg_spec=seg_spec)
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


def load_bundle(path) -> tuple[ModelBundle, dict]:
    tensors, meta = sgt.load_checkpoint(path)
    if "specs" not in meta:
        raise sgt.FormatError(f"{path} holds no networks (no 'specs' in its metadata)")
    nets: dict[str, NetParams | None] = {}
    for comp, spec_dict in meta["specs"].items():
        values = {
            name.split("/", 1)[1]: arr
            for name, arr in tensors.items()
            if name.startswith(f"{comp}/")
        }
        nets[comp] = NetParams(spec_from_dict(spec_dict), values)
    bundle = ModelBundle(
        student=nets.get("student"),
        teacher=nets.get("teacher"),
        disc=nets.get("disc"),
        generator=nets.get("generator"),
    )
    return bundle, meta


# ---------------------------------------------------------------------------
# ablation runner


def run_ablation(
    mode: str,
    ds: DomainDataset,
    cfg: TrainConfig,
    style_fn=None,
    seed: int | None = None,
    out_dir=None,
    seg_spec: SegNetSpec | None = None,
    disc_spec: DiscSpec | None = None,
) -> tuple[MetricReport, ModelBundle, TrainLog]:
    """Run one cumulative configuration and evaluate on held-out labels."""
    at, se, aug, st, mst = resolve_mode(mode)
    cfg = replace(cfg, at=at, se=se, aug=aug, st=st, mst=mst)
    seed = cfg.seed if seed is None else seed

    bundle, log = train_segan(
        cfg, ds, style_fn=style_fn, seed=seed,
        seg_spec=seg_spec, disc_spec=disc_spec, out_dir=out_dir,
    )
    if cfg.st:
        pseudo = generate_pseudo_labels(bundle.teacher, ds.target_images())
        self_train(cfg, bundle.student, pseudo, ds, seed=seed, log=log,
                   iter_offset=cfg.maxiter)

    scales = cfg.mst_scales if cfg.mst else None
    report = evaluate_student(bundle.student, ds, count=0, scales=scales)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log.to_csv(out / "train_log.csv")
        save_bundle(out / "checkpoint.sgt", bundle,
                    seed=seed, iteration=cfg.maxiter + (cfg.st_maxiter if cfg.st else 0),
                    config=asdict(cfg), mode=mode)
        (out / "run.json").write_text(
            json.dumps({"mode": mode, "seed": seed, "config": asdict(cfg)}, indent=2)
        )
    return report, bundle, log
