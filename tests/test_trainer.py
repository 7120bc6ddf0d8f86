"""Training stages: EMA algebra, the mode ladder, loop determinism, abort
behavior, self-training, and the style-transfer stage.

Runs here use miniature datasets and iteration counts; the full-scale
behavioral criteria live in test_acceptance.py.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from segan.datagen import (
    DATASET_FILE,
    AppearanceParams,
    ClassPrior,
    ShiftParams,
    benchmark_shifts,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from segan.metrics import confusion_matrix, iou_report
from segan.networks import (
    INFER_PIXELS,
    ModelBundle,
    SegNetSpec,
    StyleGenSpec,
    add_param_inputs,
    build_segnet,
    build_style_generator,
    multi_scale_predict,
    param_feeds,
    predict_segmentation,
    stylegen_forward,
)
from segan.trainer import (
    MODES,
    SEGAN_COLUMNS,
    TGSTN_COLUMNS,
    NumericAbort,
    TGSTNConfig,
    TrainConfig,
    TrainLog,
    apply_style_generator,
    ema_update,
    evaluate_student,
    generate_pseudo_labels,
    load_bundle,
    oracle_style_fn,
    pretrain_phi,
    resolve_mode,
    run_ablation,
    save_bundle,
    self_train,
    tgstn_style_fn,
    train_segan,
    train_tgstn,
)
from segan.tensor import Graph, forward
from segan.utils import derive_seed

from references import SMAPS, mapped_rss_kb


def _tiny_dataset(seed=11, n=6, shifted=True, n_target=None):
    src_priors = (
        ClassPrior(prob=0.95, mean=(0.35, 0.35), cov=((0.006, 0.0), (0.0, 0.006)), size_range=(0.12, 0.2)),
        ClassPrior(prob=0.9, mean=(0.68, 0.4), cov=((0.006, 0.0), (0.0, 0.006)), size_range=(0.1, 0.18)),
        ClassPrior(prob=0.9, mean=(0.5, 0.72), cov=((0.006, 0.0), (0.0, 0.006)), size_range=(0.1, 0.16)),
    )
    src = ShiftParams(layout=src_priors)
    if shifted:
        tgt = ShiftParams(
            appearance=AppearanceParams(palette_rotation=0.8, brightness=0.1, blur=0.7, texture_freq=4.0),
            layout=tuple(
                ClassPrior(prob=p.prob * 0.85, mean=p.mean, cov=((0.009, 0.0), (0.0, 0.009)),
                           size_range=p.size_range)
                for p in src_priors
            ),
        )
    else:
        tgt = src
    return generate_dataset(
        src, tgt, n_source=n, n_target=n if n_target is None else n_target,
        seed=seed, h=32, w=32, classes=4,
    )


@pytest.fixture(scope="module")
def ds():
    return _tiny_dataset()


def _fast_cfg(**kw):
    base = dict(
        lr_student=0.05,
        lr_disc=1e-3,
        lambda_adv=0.01,
        maxiter=20,
        st_maxiter=10,
        eval_interval=10,
        eval_count=4,
        batch_source=2,
        batch_target=2,
    )
    base.update(kw)
    return TrainConfig(**base)


SEED = 3


# ---------------------------------------------------------------------------
# mode resolution


def test_mode_table_is_cumulative():
    assert resolve_mode("noadapt") == (False, False, False, False, False)
    assert resolve_mode("at") == (True, False, False, False, False)
    assert resolve_mode("at-se") == (True, True, False, False, False)
    assert resolve_mode("at-se-aug") == (True, True, True, False, False)
    assert resolve_mode("full") == (True, True, True, True, False)
    assert resolve_mode("full-mst") == (True, True, True, True, True)


def test_mode_aliases_and_case():
    # one spelling per mode: no aliases, no case folding
    for mode in ("at+se", "+st", "AT", "full+mst", "everything"):
        with pytest.raises(ValueError, match="unknown mode") as err:
            resolve_mode(mode)
        assert str(MODES) in str(err.value), mode


# ---------------------------------------------------------------------------
# EMA update


def test_ema_endpoint_alphas():
    prev = np.array([1.0, 2.0])
    now = np.array([3.0, 4.0])
    assert np.array_equal(ema_update(prev, now, 0.0), now)
    assert np.array_equal(ema_update(prev, now, 1.0), prev)


def test_ema_half_alpha_three_step_recursion():
    theta = np.array([0.0])
    for want in (0.5, 0.75, 0.875):
        theta = ema_update(theta, np.array([1.0]), alpha=0.5)
        np.testing.assert_allclose(theta, want, rtol=1e-15)


def test_ema_closed_form_after_k_steps():
    # constant student: teacher_k = (1 - alpha^k) * student
    for alpha in (0.5, 0.95, 0.999):
        theta = np.zeros(3)
        target = np.full(3, 2.0)
        for _ in range(17):
            theta = ema_update(theta, target, alpha)
        np.testing.assert_allclose(theta, (1 - alpha**17) * target, rtol=1e-9)


def test_ema_is_linear_and_handles_dicts():
    rng = np.random.default_rng(0)
    a = {"w": rng.standard_normal(4), "b": rng.standard_normal(2)}
    b = {"w": rng.standard_normal(4), "b": rng.standard_normal(2)}
    out = ema_update(a, b, 0.9)
    for k in a:
        np.testing.assert_allclose(out[k], 0.9 * a[k] + 0.1 * b[k], rtol=1e-12)
    with pytest.raises(ValueError, match="names"):
        ema_update(a, {"w": b["w"], "c": b["b"]}, 0.9)
    with pytest.raises(ValueError, match="shape"):
        ema_update(np.zeros(2), np.zeros(3), 0.9)
    with pytest.raises(ValueError, match="alpha"):
        ema_update(np.zeros(2), np.zeros(2), 1.5)


def test_train_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        TrainConfig(alpha=1.2)
    with pytest.raises(ValueError, match="lambda_con"):
        TrainConfig(lambda_con=-1.0)
    with pytest.raises(ValueError, match="maxiter"):
        TrainConfig(maxiter=0)
    with pytest.raises(ValueError, match="batch"):
        TrainConfig(batch_source=0)
    with pytest.raises(ValueError, match="epochs"):
        TGSTNConfig(epochs=-1)


@pytest.mark.parametrize(
    "cls, name",
    [(TrainConfig, "lr_student"), (TrainConfig, "lr_disc"), (TrainConfig, "st_lr"),
     (TGSTNConfig, "lr_gen"), (TGSTNConfig, "lr_disc")],
)
def test_negative_learning_rates_rejected(cls, name):
    # checked up front: a stage that never builds this rate's schedule (the
    # disc rate in noadapt, st_lr without self-training) still rejects it
    with pytest.raises(ValueError, match=f"{name} must be >= 0"):
        cls(**{name: -1e-3})


# ---------------------------------------------------------------------------
# training loop contracts


def test_noadapt_builds_no_disc_or_teacher(ds):
    cfg = _fast_cfg(maxiter=4)
    bundle, log = train_segan(cfg, ds, "noadapt", SEED)
    assert bundle.disc is None
    assert bundle.teacher is None
    assert bundle.student is not None
    assert len(log.rows) == 1  # eval at the final iteration only


def test_log_cadence_and_header(ds, tmp_path):
    cfg = _fast_cfg(maxiter=12, eval_interval=5)
    _, log = train_segan(cfg, ds, "noadapt", SEED)
    assert [r["iter"] for r in log.rows] == [5, 10, 12]
    assert [r["stage"] for r in log.rows] == ["adversarial"] * 3
    log.to_csv(tmp_path / "log.csv")
    text = (tmp_path / "log.csv").read_text().splitlines()
    assert text[0] == (
        "iter,lr_student,lr_disc,loss_seg,loss_con,loss_adv_g,loss_adv_d,miou_eval,stage"
    )
    assert len(text) == 4


def test_log_rejects_non_increasing_iterations():
    for columns in (SEGAN_COLUMNS, TGSTN_COLUMNS):
        log = TrainLog(columns)
        row = dict.fromkeys(columns, 0.5)
        log.append(**dict(row, iter=5))
        with pytest.raises(ValueError, match="increase"):
            log.append(**dict(row, iter=5))
        with pytest.raises(ValueError, match="columns"):
            log.append(**dict(row, iter=6, extra=1.0))
        assert [r["iter"] for r in log.rows] == [5]


def test_training_is_deterministic(ds):
    cfg = _fast_cfg(maxiter=10)
    a, log_a = train_segan(cfg, ds, "at-se", SEED)
    b, log_b = train_segan(cfg, ds, "at-se", SEED)
    for name in a.student.values:
        assert np.array_equal(a.student.values[name], b.student.values[name])
    for name in a.disc.values:
        assert np.array_equal(a.disc.values[name], b.disc.values[name])
    assert [r["miou_eval"] for r in log_a.rows] == [r["miou_eval"] for r in log_b.rows]


def test_a_training_step_holds_one_steps_state(ds):
    # the hook and the next step's forward must not hold the previous step's
    # activations and gradients, so more steps need no more memory
    peaks = {}
    for maxiter in (1, 4):
        cfg = _fast_cfg(maxiter=maxiter, eval_interval=100, eval_count=1)
        tracemalloc.start()
        try:
            train_segan(cfg, ds, "at-se-aug", SEED, style_fn=oracle_style_fn(ds))
            peaks[maxiter] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] < 1.1 * peaks[1], peaks


def test_zero_weights_reduce_to_pure_segmentation_run(ds):
    # with lambda_con = lambda_adv = 0 the student gradient is exactly the
    # supervised gradient, so the weights must match a no-adaptation run
    # bit for bit even though the discriminator keeps updating
    plain, _ = train_segan(_fast_cfg(maxiter=15), ds, "noadapt", SEED)
    zeroed, _ = train_segan(
        _fast_cfg(maxiter=15, lambda_con=0.0, lambda_adv=0.0), ds, "at-se", SEED
    )
    for name in plain.student.values:
        assert np.array_equal(plain.student.values[name], zeroed.student.values[name])


def test_alpha_one_freezes_teacher_at_initialization(ds):
    cfg = _fast_cfg(maxiter=8, alpha=1.0)
    bundle, _ = train_segan(cfg, ds, "at-se", SEED)
    init = build_segnet(SegNetSpec(class_count=4), derive_seed(SEED, "student"))
    for name in init.values:
        assert np.array_equal(bundle.teacher.values[name], init.values[name])
        assert not np.array_equal(bundle.teacher.values[name], bundle.student.values[name])


def test_alpha_zero_teacher_tracks_student_exactly(ds):
    cfg = _fast_cfg(maxiter=8, alpha=0.0)
    bundle, _ = train_segan(cfg, ds, "at-se", SEED)
    for name in bundle.student.values:
        assert np.array_equal(bundle.teacher.values[name], bundle.student.values[name])


def test_divergent_learning_rate_aborts_with_context(ds):
    cfg = _fast_cfg(maxiter=50, lr_student=1e9)
    with pytest.raises(NumericAbort) as err:
        train_segan(cfg, ds, "noadapt", SEED)
    assert err.value.iteration >= 1
    assert "seg" in err.value.losses
    assert any(not math.isfinite(v) for v in err.value.losses.values())


@pytest.mark.parametrize("stage", ["train_segan", "self_train", "train_tgstn"])
def test_non_finite_parameters_abort_at_the_first_step(ds, stage):
    # a 1e39 rate overflows float32, so the first step leaves the stepped
    # net's parameters non-finite while every loss of that step was finite
    if stage == "train_segan":
        run = lambda: train_segan(_fast_cfg(lr_student=1e39), ds, "noadapt", SEED)
        iteration, net = 1, "student/"
    elif stage == "self_train":
        student = build_segnet(SegNetSpec(class_count=4), seed=5)
        pseudo = generate_pseudo_labels(student, ds.target_images())
        run = lambda: self_train(_fast_cfg(st_lr=1e39), student, pseudo, ds, SEED,
                                 iter_offset=100)
        iteration, net = 101, "student/"
    else:
        phi = build_segnet(SegNetSpec(class_count=4), seed=7).frozen()
        run = lambda: train_tgstn(TGSTNConfig(epochs=1, lr_gen=1e39), ds, phi, 9)
        iteration, net = 1, "gen/"
    with pytest.raises(NumericAbort) as err:
        run()
    assert err.value.iteration == iteration
    assert err.value.params and all(p.startswith(net) for p in err.value.params)
    assert err.value.params[0] in str(err.value)
    assert all(math.isfinite(v) for v in err.value.losses.values())


def test_aug_requires_style_fn(ds):
    with pytest.raises(ValueError, match="style"):
        train_segan(_fast_cfg(maxiter=2), ds, "at-se-aug", SEED)
    with pytest.raises(ValueError, match="shape"):
        train_segan(
            _fast_cfg(maxiter=2),
            ds,
            "at-se-aug",
            SEED,
            style_fn=lambda imgs: imgs[:, :16],
        )


# ---------------------------------------------------------------------------
# evaluation helper


def test_evaluate_student_count_semantics(ds):
    net = build_segnet(SegNetSpec(class_count=4), seed=1)
    full = evaluate_student(net, ds, count=0)
    assert full.pixel_count == ds.n_target * 32 * 32
    two = evaluate_student(net, ds, count=2)
    assert two.pixel_count == 2 * 32 * 32
    # single-scale multi-scale path agrees with the plain path
    assert evaluate_student(net, ds, count=0, scales=(1.0,)).miou == full.miou


@pytest.fixture(scope="module")
def stock_ds():
    """200 target scenes of the stock benchmark."""
    return generate_dataset(*benchmark_shifts(), n_source=1, n_target=200, seed=3,
                            h=64, w=64, classes=4)


def _traced_peak(fn):
    """``fn()`` and the tracemalloc peak of the call, after one warm-up call."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_styling_holds_only_live_activations():
    # holding every activation of a slice until it ended peaked at 12.3 MiB;
    # freeing each after its last reader, 7.9 MiB
    gen = build_style_generator(StyleGenSpec(), seed=5)
    images = generate_dataset(*benchmark_shifts(), n_source=24, n_target=1, seed=3,
                              h=64, w=64, classes=4).source_images()
    styled, peak = _traced_peak(lambda: apply_style_generator(gen, images))
    assert styled.shape == images.shape
    assert peak < 10 * 2**20, peak / 2**20


def test_sliced_evaluation_equals_whole_stack_confusion(stock_ds):
    net = build_segnet(SegNetSpec(), seed=4)
    _, pred = predict_segmentation(net, stock_ds.target_images())
    cm = confusion_matrix(pred, stock_ds.eval_target_labels(), stock_ds.classes)
    report, peak = _traced_peak(lambda: evaluate_student(net, stock_ds, count=0))
    ref = iou_report(cm)
    assert report.iou.tobytes() == ref.iou.tobytes() and report.miou == ref.miou
    assert report.pixel_count == ref.pixel_count == 200 * 64 * 64
    # a whole probability stack peaked at 25.8 MiB
    assert peak < 8 * 2**20, peak / 2**20


@pytest.mark.parametrize("scales", [(0.75, 1.0, 1.25), (1.25, 0.5, 1.0)])
def test_multi_scale_evaluation_equals_the_multi_scale_predict_report(stock_ds, scales):
    net = build_segnet(SegNetSpec(), seed=4)
    _, pred = multi_scale_predict(net, stock_ds.target_images(), list(scales))
    ref = iou_report(confusion_matrix(pred, stock_ds.eval_target_labels(), stock_ds.classes))
    report, peak = _traced_peak(lambda: evaluate_student(net, stock_ds, count=0, scales=scales))
    assert report.iou.tobytes() == ref.iou.tobytes() and report.miou == ref.miou
    assert report.pixel_count == ref.pixel_count == 200 * 64 * 64
    # the averaged probability stack alone is 13.1 MB
    assert peak < 8 * 2**20, peak / 2**20


def test_pseudo_label_memory_is_bounded_by_the_slice(stock_ds):
    net = build_segnet(SegNetSpec(), seed=4)
    images = stock_ds.target_images()
    pseudo, peak = _traced_peak(lambda: generate_pseudo_labels(net, images))
    assert np.array_equal(pseudo, predict_segmentation(net, images)[1])
    assert peak <= pseudo.nbytes + 4 * 2**20, peak / 2**20


def test_an_empty_stack_streams_to_empty_outputs():
    # every sliced output is collected from one empty slice, which shapes it
    empty = np.zeros((0, 64, 48, 3), dtype=np.float32)
    net = build_segnet(SegNetSpec(), seed=4)
    for probs, labels in (multi_scale_predict(net, empty, [0.75, 1.0, 1.25]),
                          predict_segmentation(net, empty)):
        assert probs.shape == (0, 64, 48, 4) and probs.dtype == np.float32
        assert labels.shape == (0, 64, 48) and labels.dtype == np.uint8
    pseudo = generate_pseudo_labels(net, empty)
    assert pseudo.shape == (0, 64, 48) and pseudo.dtype == np.uint8
    styled = apply_style_generator(build_style_generator(StyleGenSpec(), seed=5), empty)
    assert styled.shape == (0, 64, 48, 3) and styled.dtype == np.float32


# ---------------------------------------------------------------------------
# pseudo labels and self-training


def test_pseudo_labels_are_one_hot_argmax(ds):
    net = build_segnet(SegNetSpec(class_count=4), seed=2)
    pseudo = generate_pseudo_labels(net, ds.target_images())
    assert pseudo.shape == (ds.n_target, 32, 32)
    assert pseudo.dtype == np.uint8
    assert pseudo.max() < 4
    _, labels = predict_segmentation(net, ds.target_images())
    assert np.array_equal(pseudo, labels)


def test_self_train_zero_iterations_returns_input_unchanged(ds):
    cfg = _fast_cfg(st_maxiter=0)
    student = build_segnet(SegNetSpec(class_count=4), seed=3)
    before = {k: v.copy() for k, v in student.values.items()}
    out, log = self_train(cfg, student, generate_pseudo_labels(student, ds.target_images()), ds,
                          SEED)
    for name in before:
        assert np.array_equal(out.values[name], before[name])
    assert log.rows == []


def test_self_train_validates_pseudo_shape(ds):
    cfg = _fast_cfg()
    student = build_segnet(SegNetSpec(class_count=4), seed=3)
    with pytest.raises(ValueError, match="pseudo"):
        self_train(cfg, student, np.zeros((2, 32, 32), dtype=np.uint8), ds, SEED)


def test_self_training_on_own_argmax_descends():
    # a single target scene makes every sampled batch the full batch, so
    # each iteration is a deterministic gradient step and the logged loss
    # must be non-increasing over the first 10 steps
    ds1 = _tiny_dataset(n=2, n_target=1)
    warm, _ = train_segan(_fast_cfg(maxiter=15, batch_target=1), ds1, "noadapt", SEED)
    student = warm.student
    pseudo = generate_pseudo_labels(student, ds1.target_images())
    cfg = _fast_cfg(
        st_maxiter=10, st_lr=0.002, momentum=0.0, batch_target=1, eval_interval=1
    )
    _, log = self_train(cfg, student, pseudo, ds1, SEED)
    losses = [r["loss_seg"] for r in log.rows]
    assert len(losses) == 10
    assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


def test_self_train_offsets_log_iterations(ds):
    cfg = _fast_cfg(st_maxiter=4, eval_interval=2)
    student = build_segnet(SegNetSpec(class_count=4), seed=4)
    pseudo = generate_pseudo_labels(student, ds.target_images())
    _, log = self_train(cfg, student, pseudo, ds, SEED, iter_offset=100)
    assert [r["iter"] for r in log.rows] == [102, 104]
    assert [r["stage"] for r in log.rows] == ["self_train"] * 2


# ---------------------------------------------------------------------------
# ablation driver


def test_mst_with_unit_scale_equals_plain_self_training(ds):
    cfg = _fast_cfg(maxiter=12, st_maxiter=6, mst_scales=(1.0,))
    style = oracle_style_fn(ds)
    r_st, _, _ = run_ablation("full", ds, cfg, SEED, style_fn=style)
    r_mst, _, _ = run_ablation("full-mst", ds, cfg, SEED, style_fn=style)
    assert r_mst.miou == r_st.miou
    np.testing.assert_allclose(r_mst.iou, r_st.iou, rtol=0)


def test_run_ablation_writes_only_interval_checkpoints(ds, tmp_path):
    # ``segan train`` writes the rest of the run directory
    cfg = _fast_cfg(maxiter=10, st_maxiter=4, eval_interval=5, checkpoint_interval=5)
    _, bundle, log = run_ablation(
        "full", ds, cfg, SEED, style_fn=oracle_style_fn(ds), out_dir=tmp_path
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint_000005.sgt", "checkpoint_000010.sgt"]
    assert bundle.teacher is not None and bundle.disc is not None
    assert log.rows[-1]["iter"] == 14  # maxiter + st_maxiter


def test_interval_checkpoints_are_emitted(ds, tmp_path):
    cfg = _fast_cfg(maxiter=6, checkpoint_interval=3)
    train_segan(cfg, ds, "noadapt", SEED, out_dir=tmp_path)
    assert (tmp_path / "checkpoint_000003.sgt").exists()
    _, meta = load_bundle(tmp_path / "checkpoint_000006.sgt")
    assert (meta["seed"], meta["iteration"]) == (SEED, 6)


def test_bundle_round_trip_supports_partial_bundles(tmp_path):
    gen = build_style_generator(StyleGenSpec(), seed=5)
    save_bundle(tmp_path / "gen.sgt", ModelBundle(generator=gen), note=1)
    loaded, meta = load_bundle(tmp_path / "gen.sgt")
    assert loaded.student is None and loaded.disc is None
    assert meta["note"] == 1
    for name in gen.values:
        assert np.array_equal(loaded.generator.values[name], gen.values[name])


_REWRITE_A_LOADED_CHECKPOINT = """
import sys
import numpy as np
from segan.networks import ModelBundle, StyleGenSpec, build_style_generator
from segan.trainer import load_bundle, save_bundle

path, other = sys.argv[1:]
gen = build_style_generator(StyleGenSpec(), seed=5)
save_bundle(path, ModelBundle(generator=gen))
save_bundle(other, ModelBundle(generator=build_style_generator(StyleGenSpec(), seed=6)))
loaded, _ = load_bundle(path)


def check():
    for name, arr in loaded.generator.values.items():
        assert arr.flags.owndata and arr.flags.writeable, name
        assert np.array_equal(arr, gen.values[name]), name


with open(path, "r+b") as f:  # in place: the file keeps its inode
    f.truncate(0)
    check()
    f.write(open(other, "rb").read())
check()
"""


def test_loaded_nets_own_their_arrays_and_survive_an_in_place_rewrite(tmp_path):
    # a net still reading the checkpoint's map would see the other nets'
    # values, or end its process with SIGBUS, so the check runs in a child
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", _REWRITE_A_LOADED_CHECKPOINT,
                          str(tmp_path / "gen.sgt"), str(tmp_path / "other.sgt")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# style functions


def test_oracle_style_matches_target_appearance_for_identity_source(ds):
    styled = oracle_style_fn(ds)(ds.source_images()[:2])
    assert styled.shape == (2, 32, 32, 3)
    assert not np.array_equal(styled, ds.source_images()[:2])
    # identity source appearance means the relative transform is the raw
    # target appearance; datagen tests pin the exactness of that case
    assert styled.min() >= 0.0 and styled.max() <= 1.0


def test_tgstn_style_fn_wraps_generator(ds):
    gen = build_style_generator(StyleGenSpec(), seed=6)
    fn = tgstn_style_fn(gen)
    imgs = ds.source_images()[:2]
    np.testing.assert_allclose(fn(imgs), apply_style_generator(gen, imgs), rtol=0)
    # residual generator at initialization is the identity
    assert np.array_equal(fn(imgs), imgs)


def _whole_batch_styled(gen, images: np.ndarray) -> np.ndarray:
    """The generator's output from one graph over the whole stack."""
    g = Graph()
    x = g.input("x", images.shape)
    pn = add_param_inputs(g, "gen", gen)
    out = stylegen_forward(g, gen.spec, pn, x)
    return forward(g, {x: images, **param_feeds(pn, gen)})[out]


def _perturbed_generator(seed: int):
    gen = build_style_generator(StyleGenSpec(), seed=6)
    gen.values["out/w"] = np.random.default_rng(seed).standard_normal(
        gen.values["out/w"].shape).astype(np.float32) * 0.1  # leave the identity start
    return gen


@pytest.mark.parametrize("n", [None, "below", "equal", "above", "stock"])
def test_sliced_style_generator_is_bit_identical_to_whole_batch_graph(n):
    gen = _perturbed_generator(1)
    per_slice = INFER_PIXELS // (64 * 64)
    if n == "stock":
        images = generate_dataset(*benchmark_shifts(), n_source=200, n_target=1,
                                  seed=3, h=64, w=64, classes=4).source_images()
    else:
        count = {None: 1, "below": per_slice - 1, "equal": per_slice, "above": per_slice + 1}[n]
        images = np.random.default_rng(2).random((count, 64, 64, 3)).astype(np.float32)
    ref = _whole_batch_styled(gen, images)
    out = apply_style_generator(gen, images[0] if n is None else images)
    assert not np.array_equal(ref, images)
    assert out.dtype == np.float32
    assert np.array_equal(out, ref[0] if n is None else ref)


@pytest.mark.parametrize("batch", [1, 2, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("style", ["oracle", "generator"])
def test_styling_a_batch_equals_indexing_the_styled_set(ds, style, seed, batch):
    # train_segan styles each drawn batch; that must give the bytes that
    # styling the whole source set once and indexing it gave
    if style == "oracle":
        fn = oracle_style_fn(ds)
        sets = [ds.source_images()]
    else:
        fn = tgstn_style_fn(_perturbed_generator(seed))
        sets = [ds.source_images(),
                np.random.default_rng(seed).random((12, 64, 64, 3)).astype(np.float32)]
    rng = np.random.default_rng(seed)
    for images in sets:
        whole = fn(images)
        assert not np.array_equal(whole, images)
        for _ in range(4):
            idx = rng.integers(0, len(images), batch)
            assert fn(images[idx]).tobytes() == whole[idx].tobytes()


def test_train_segan_styles_one_source_batch_at_a_time(ds):
    oracle = oracle_style_fn(ds)
    rows = []

    def spy(images):
        rows.append(len(images))
        return oracle(images)

    cfg = _fast_cfg(maxiter=5, eval_interval=5, eval_count=1, batch_source=3)
    train_segan(cfg, ds, "at-se-aug", SEED, style_fn=spy)
    assert rows == [cfg.batch_source] * cfg.maxiter


@pytest.mark.skipif(not SMAPS.exists(), reason="no /proc/self/smaps to read resident maps from")
def test_training_and_evaluation_release_the_dataset_map(ds, tmp_path):
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert mapped_rss_kb(DATASET_FILE) == 0  # the load released its label check
    loaded.target_images().sum()  # the probe sees a read of the map
    assert mapped_rss_kb(DATASET_FILE) > 0
    cfg = _fast_cfg(maxiter=4, st_maxiter=2, eval_interval=2, eval_count=0)
    bundle, _ = train_segan(cfg, loaded, "at-se-aug", SEED, style_fn=oracle_style_fn(loaded))
    assert mapped_rss_kb(DATASET_FILE) == 0
    evaluate_student(bundle.student, loaded, count=0, scales=(0.75, 1.0))
    assert mapped_rss_kb(DATASET_FILE) == 0
    # pseudo-labels, self-training and multi-scale evaluation
    run_ablation("full-mst", loaded, cfg, SEED, style_fn=oracle_style_fn(loaded))
    assert mapped_rss_kb(DATASET_FILE) == 0
    train_tgstn(TGSTNConfig(epochs=1), loaded, bundle.student.frozen(), SEED)
    assert mapped_rss_kb(DATASET_FILE) == 0


# ---------------------------------------------------------------------------
# style-transfer training stage


def test_tgstn_rejects_trainable_or_mismatched_phi(ds):
    phi = build_segnet(SegNetSpec(class_count=4), seed=7)
    with pytest.raises(ValueError, match="frozen"):
        train_tgstn(TGSTNConfig(epochs=1), ds, phi, 0)
    phi3 = build_segnet(SegNetSpec(class_count=3), seed=7).frozen()
    with pytest.raises(ValueError, match="classes"):
        train_tgstn(TGSTNConfig(epochs=1), ds, phi3, 0)


def test_tgstn_zero_epochs_returns_untrained_generator(ds):
    phi = build_segnet(SegNetSpec(class_count=4), seed=7).frozen()
    gen, log = train_tgstn(TGSTNConfig(epochs=0), ds, phi, 9)
    init = build_style_generator(StyleGenSpec(), derive_seed(9, "gen"))
    assert log.rows == []
    for name in init.values:
        assert np.array_equal(gen.values[name], init.values[name])


def test_tgstn_logs_every_step_and_is_deterministic(ds):
    phi = pretrain_phi(ds, seed=8, maxiter=20)
    cfg = TGSTNConfig(epochs=2, batch_source=2, batch_target=2)
    gen_a, log_a = train_tgstn(cfg, ds, phi, 9)
    gen_b, log_b = train_tgstn(cfg, ds, phi, 9)
    steps = 2 * (ds.n_source // 2)
    assert len(log_a.rows) == steps
    assert [r["iter"] for r in log_a.rows] == list(range(1, steps + 1))
    for name in gen_a.values:
        assert np.array_equal(gen_a.values[name], gen_b.values[name])
    assert [r["loss_style"] for r in log_a.rows] == [r["loss_style"] for r in log_b.rows]


def test_tgstn_feature_anchor_dominates_when_weighted_up(ds):
    # an overwhelming perceptual weight steers the generator toward the
    # feature-preserving manifold; the optimizer normalizes step sizes, so
    # the contract is a contrast against the unanchored run, not an
    # absolute pin
    phi = pretrain_phi(ds, seed=8, maxiter=20)
    imgs = ds.source_images()[:3]
    results = {}
    for lam in (0.0, 1e4):
        cfg = TGSTNConfig(epochs=2, lambda_sem=0.0, lambda_per=lam)
        gen, log = train_tgstn(cfg, ds, phi, 10)
        dev = float(np.abs(apply_style_generator(gen, imgs) - imgs).max())
        results[lam] = (log.rows[-1]["loss_per"], dev)
    anchored_per, anchored_dev = results[1e4]
    free_per, free_dev = results[0.0]
    assert anchored_per < 0.25 * free_per
    assert anchored_dev < free_dev
    assert anchored_per < 0.02 and anchored_dev < 0.1


def test_pretrain_phi_returns_frozen_segmenter(ds):
    phi = pretrain_phi(ds, seed=12, maxiter=10)
    assert not phi.trainable
    assert phi.spec.class_count == 4
