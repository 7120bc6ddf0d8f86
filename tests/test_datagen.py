"""Synthetic two-domain scenes: determinism, appearance transforms,
layout statistics against closed-form expectations, and persistence.

The occupancy oracles use the translation-averaging identity: the
expected number of lattice points inside a region placed at a random
(effectively uniform mod 1) center equals the region's area.
"""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from segan import sgt
from segan.datagen import (
    STYLE_SLICE,
    AppearanceParams,
    ClassPrior,
    DomainDataset,
    ShiftParams,
    _blur_axis,
    _blur_weights,
    apply_domain_style,
    appearance_gap,
    benchmark_shifts,
    class_frequencies,
    generate_dataset,
    layout_gap,
    load_dataset,
    relative_appearance,
    save_dataset,
    shift_severity,
)
from segan.utils import record_from_dict, record_to_dict

from references import MALFORMED_DATASETS, per_scene_dataset, resave_dataset, scipy_style


def _single_class(prob=1.0, size_range=(0.1, 0.2)):
    prior = ClassPrior(
        prob=prob, mean=(0.5, 0.5), cov=((0.005, 0.0), (0.0, 0.005)), size_range=size_range
    )
    return ShiftParams(layout=(prior,))


def _scenes(params, n, h, w, classes, seed=0):
    """Images and labels of ``n`` scenes of one domain."""
    ds = generate_dataset(params, params, n, 1, seed=seed, h=h, w=w, classes=classes)
    return ds.source_images(), ds.source_labels()


# ---------------------------------------------------------------------------
# determinism and structure


def test_scene_generation_is_deterministic():
    params = _single_class()
    a_img, a_lab = _scenes(params, 2, 64, 64, 2, seed=3)
    b_img, b_lab = _scenes(params, 2, 64, 64, 2, seed=3)
    assert np.array_equal(a_img, b_img)
    assert np.array_equal(a_lab, b_lab)
    c_img, c_lab = _scenes(params, 2, 64, 64, 2, seed=4)
    assert not np.array_equal(a_lab, c_lab) or not np.array_equal(a_img, c_img)


def test_scene_value_ranges_and_dtypes():
    images, labels = _scenes(_single_class(), 1, 32, 48, 2)
    assert images.shape == (1, 32, 48, 3) and images.dtype == np.float32
    assert labels.shape == (1, 32, 48) and labels.dtype == np.uint8
    assert images.min() >= 0.0 and images.max() <= 1.0


def test_zero_occurrence_probability_leaves_background_only():
    _, labels = _scenes(_single_class(prob=0.0), 20, 32, 32, 2)
    assert (labels == 0).all()


def test_appearance_changes_pixels_but_never_labels():
    layout = _single_class().layout
    plain = ShiftParams(appearance=AppearanceParams(), layout=layout)
    styled = ShiftParams(
        appearance=AppearanceParams(palette_rotation=0.8, brightness=0.1, blur=0.7),
        layout=layout,
    )
    a_img, a_lab = _scenes(plain, 3, 32, 32, 2, seed=1)
    b_img, b_lab = _scenes(styled, 3, 32, 32, 2, seed=1)
    assert np.array_equal(a_lab, b_lab)
    for a, b in zip(a_img, b_img):
        assert not np.array_equal(a, b)


def test_styling_a_raw_scene_reproduces_the_styled_scene():
    # with an identity source appearance, the rendered source scene is the
    # raw base image, so restyling it must land exactly on the target scene
    layout = _single_class().layout
    tgt_ap = AppearanceParams(palette_rotation=0.5, brightness=0.15, blur=0.9, texture_freq=3.0)
    raw, _ = _scenes(ShiftParams(layout=layout), 3, 32, 32, 2, seed=9)
    styled, _ = _scenes(ShiftParams(appearance=tgt_ap, layout=layout), 3, 32, 32, 2, seed=9)
    assert np.array_equal(apply_domain_style(raw, tgt_ap), styled)
    assert np.array_equal(apply_domain_style(raw[1], tgt_ap), styled[1])


def test_scene_argument_validation():
    params = _single_class()
    with pytest.raises(ValueError, match="classes"):
        generate_dataset(params, params, 1, 1, seed=0, h=32, w=32, classes=1)
    with pytest.raises(ValueError, match="palette"):
        generate_dataset(params, params, 1, 1, seed=0, h=32, w=32, classes=9)
    with pytest.raises(ValueError, match="source layout must define 3 class priors"):
        generate_dataset(params, params, 1, 1, seed=0, h=32, w=32, classes=4)
    with pytest.raises(ValueError, match="too small"):
        generate_dataset(params, params, 1, 1, seed=0, h=4, w=64, classes=2)


def test_prior_validation():
    with pytest.raises(ValueError, match="prob"):
        ClassPrior(prob=1.5)
    with pytest.raises(ValueError, match="size_range"):
        ClassPrior(size_range=(0.2, 0.1))
    with pytest.raises(ValueError, match="positive semi-definite"):
        _scenes(ShiftParams(layout=(ClassPrior(cov=((1.0, 2.0), (2.0, 1.0))),)), 1, 32, 32, 2)
    with pytest.raises(ValueError, match="blur"):
        AppearanceParams(blur=-1.0)


# ---------------------------------------------------------------------------
# layout statistics


def test_rectangle_occupancy_matches_expected_area():
    # class 1 draws a rectangle with independent U(0.1,0.2)*64 half-sizes;
    # expected pixel count is (2*64*0.15)^2 by translation averaging
    params = _single_class(size_range=(0.1, 0.2))
    counts = (_scenes(params, 600, 64, 64, 2)[1] == 1).sum(axis=(1, 2)).astype(np.float64)
    want = (2 * 64 * 0.15) ** 2
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - want) < 4 * se


def test_disk_occupancy_matches_expected_area():
    # class 2 draws a disk of radius U(0.1,0.2)*64; E[pixels] = pi*E[r^2]
    bg = ClassPrior(prob=0.0)
    disk = ClassPrior(
        prob=1.0, mean=(0.5, 0.5), cov=((0.005, 0.0), (0.0, 0.005)), size_range=(0.1, 0.2)
    )
    params = ShiftParams(layout=(bg, disk))
    counts = (_scenes(params, 600, 64, 64, 3)[1] == 2).sum(axis=(1, 2)).astype(np.float64)
    want = np.pi * (0.1**2 + 0.1 * 0.2 + 0.2**2) / 3 * 64**2
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - want) < 4 * se


def test_occurrence_rate_matches_binomial():
    params = _single_class(prob=0.7)
    n = 1500
    present = int((_scenes(params, n, 32, 32, 2)[1] == 1).any(axis=(1, 2)).sum())
    sigma = np.sqrt(0.7 * 0.3 / n)
    assert abs(present / n - 0.7) < 3 * sigma


# ---------------------------------------------------------------------------
# appearance transforms


def test_identity_appearance_returns_values_unchanged():
    img = np.random.default_rng(0).random((16, 16, 3)).astype(np.float32)
    ap = AppearanceParams()
    assert (ap.palette_rotation, ap.brightness, ap.blur, ap.texture_freq) == (0, 0, 0, 0)
    assert np.array_equal(apply_domain_style(img, ap), img)


def test_brightness_offsets_every_channel():
    img = np.full((8, 8, 3), 0.5, dtype=np.float32)
    out = apply_domain_style(img, AppearanceParams(brightness=0.2))
    np.testing.assert_allclose(out, 0.7, atol=1e-7)


def test_palette_rotation_fixes_gray_and_preserves_saturation():
    gray = np.full((4, 4, 3), 0.5, dtype=np.float32)
    out = apply_domain_style(gray, AppearanceParams(palette_rotation=1.1))
    np.testing.assert_allclose(out, 0.5, atol=1e-6)
    # rotation about the gray axis preserves distance from that axis; keep
    # the image far enough inside [0,1] that the final clip never engages
    rng = np.random.default_rng(1)
    img = (0.5 + 0.1 * rng.uniform(-1.0, 1.0, size=(8, 8, 3))).astype(np.float32)
    rot = apply_domain_style(img, AppearanceParams(palette_rotation=0.6))
    axis = np.ones(3) / np.sqrt(3)
    def sat(a):
        a64 = a.astype(np.float64)
        radial = a64 - (a64 @ axis)[..., None] * axis
        return np.linalg.norm(radial, axis=-1)
    np.testing.assert_allclose(sat(rot), sat(img), atol=1e-6)


def test_blur_preserves_channel_means():
    rng = np.random.default_rng(2)
    img = rng.random((32, 32, 3)).astype(np.float32) * 0.5 + 0.25  # stay off the clip
    out = apply_domain_style(img, AppearanceParams(blur=1.3))
    for c in range(3):
        assert abs(float(out[..., c].mean()) - float(img[..., c].astype(np.float64).mean())) < 1e-6


def test_texture_adds_bounded_stripes():
    img = np.full((32, 32, 3), 0.5, dtype=np.float32)
    out = apply_domain_style(img, AppearanceParams(texture_freq=4.0))
    assert not np.array_equal(out, img)
    assert float(np.abs(out.astype(np.float64) - 0.5).max()) <= 0.15


@pytest.mark.parametrize(
    "shape, sigma",
    [(shape, sigma) for shape in ((64, 64, 3), (8, 12, 3), (9, 33, 3))
     for sigma in (0.1, 0.3, 0.5, 0.7, 0.9, 1.3, 3.0)] + [((8, 8, 3), 3.0)],
)
def test_numpy_blur_equals_scipy_gaussian_filter(shape, sigma):
    # sigma 0.1 has radius 0; sigma 3 on 8x8 has radius 9, past the side
    img = np.random.default_rng(3).random(shape)
    want = gaussian_filter(img, sigma=(sigma, sigma, 0), mode="reflect", truncate=3.0)
    weights = _blur_weights(sigma)
    got = _blur_axis(_blur_axis(img[None], weights, 1), weights, 2)[0]
    assert got.tobytes() == want.tobytes()
    ap = AppearanceParams(blur=sigma)
    assert apply_domain_style(img, ap).tobytes() == scipy_style(img, ap).tobytes()


@pytest.mark.parametrize("n", [1, 5, STYLE_SLICE, STYLE_SLICE + 1, 200])
def test_stack_styling_equals_per_image_calls(n):
    rng = np.random.default_rng(n)
    stack = rng.random((n, 64, 64, 3)).astype(np.float32)
    ap = benchmark_shifts()[1].appearance
    out = apply_domain_style(stack, ap)
    assert out.shape == stack.shape and out.dtype == np.float32
    each = np.stack([apply_domain_style(im, ap) for im in stack])
    assert out.tobytes() == each.tobytes()
    assert out[-1].tobytes() == scipy_style(stack[-1], ap).tobytes()


@pytest.mark.parametrize(
    "appearance, n, side",
    [
        (None, 200, 64),  # the stock shifts
        (AppearanceParams(palette_rotation=0.3, brightness=-0.1, blur=0.5), 12, 32),
        (AppearanceParams(palette_rotation=0.8, blur=1.3, texture_freq=2.0), 12, 32),
        (AppearanceParams(palette_rotation=0.8, brightness=0.1, texture_freq=4.0), 12, 32),
        (AppearanceParams(texture_freq=3.0), 12, 32),
    ],
    ids=["stock", "blur-0.5", "blur-1.3", "no-blur", "texture-only"],
)
def test_dataset_equals_the_per_scene_generator(appearance, n, side):
    source, target = benchmark_shifts()
    if appearance is not None:
        target = ShiftParams(appearance=appearance, layout=target.layout)
    ds = generate_dataset(source, target, n, n, seed=5, h=side, w=side, classes=4)
    want = per_scene_dataset(source, target, n, n, seed=5, h=side, w=side, classes=4)
    for name, arr in want.items():
        assert ds.arrays[name].tobytes() == arr.tobytes(), name


def test_relative_appearance_from_identity_is_target():
    tgt = AppearanceParams(palette_rotation=0.8, brightness=0.1, blur=0.7, texture_freq=4.0)
    rel = relative_appearance(AppearanceParams(), tgt)
    assert rel == tgt
    # brightness and rotation compose additively in general
    src = AppearanceParams(palette_rotation=0.3, brightness=-0.05)
    rel2 = relative_appearance(src, tgt)
    assert rel2.palette_rotation == pytest.approx(0.5)
    assert rel2.brightness == pytest.approx(0.15)
    # blur variances subtract; never negative
    assert rel2.blur == pytest.approx(0.7)
    assert relative_appearance(tgt, AppearanceParams()).blur == 0.0


# ---------------------------------------------------------------------------
# shift severity


def test_identical_domains_score_below_shifted_domains():
    params = _single_class()
    same = shift_severity(
        generate_dataset(params, params, n_source=8, n_target=8, seed=5, h=32, w=32, classes=2)
    )
    shifted_params = ShiftParams(
        appearance=AppearanceParams(palette_rotation=0.8, brightness=0.1, blur=0.7),
        layout=params.layout,
    )
    shifted = shift_severity(
        generate_dataset(params, shifted_params, 8, 8, seed=5, h=32, w=32, classes=2)
    )
    # with identical parameters the residual gap is pure sampling noise
    assert same.layout_gap < 0.05
    assert same.appearance_gap < 0.5 * shifted.appearance_gap


def test_layout_gap_hand_value():
    # frequencies (3/4, 1/4) vs (1/4, 3/4): TV distance = 0.5*(0.5+0.5) = 0.5
    a = np.array([[0, 0], [0, 1]], dtype=np.uint8)
    b = np.array([[1, 1], [1, 0]], dtype=np.uint8)
    assert layout_gap(a, b, classes=2) == pytest.approx(0.5, rel=1e-12)
    assert layout_gap(a, a, classes=2) == 0.0


def test_class_frequencies_count_pixels():
    labels = np.array([[0, 1, 1, 2]], dtype=np.uint8)
    np.testing.assert_allclose(class_frequencies(labels, 4), [0.25, 0.5, 0.25, 0.0])


def test_appearance_gap_detects_brightness_shift():
    rng = np.random.default_rng(6)
    imgs = rng.random((4, 16, 16, 3)).astype(np.float32)
    assert appearance_gap(imgs, imgs.copy()) == 0.0
    shifted = np.clip(imgs + 0.3, 0, 1)
    assert appearance_gap(imgs, shifted) > 0.1


def test_shifted_dataset_reports_positive_gaps():
    src = _single_class()
    tgt = ShiftParams(
        appearance=AppearanceParams(palette_rotation=0.8, brightness=0.1, blur=0.7),
        layout=(ClassPrior(prob=0.6, mean=(0.4, 0.4), cov=((0.009, 0.0), (0.0, 0.009))),),
    )
    ds = generate_dataset(src, tgt, n_source=8, n_target=8, seed=6, h=32, w=32, classes=2)
    sev = shift_severity(ds)
    assert sev.appearance_gap > 0.1
    assert sev.layout_gap > 0.0


# ---------------------------------------------------------------------------
# dataset assembly and persistence


def test_dataset_views_and_eval_labels():
    ds = generate_dataset(
        _single_class(), _single_class(), n_source=3, n_target=2, seed=7, h=32, w=32, classes=2
    )
    assert ds.n_source == 3 and ds.n_target == 2
    assert ds.source_images().shape == (3, 32, 32, 3)
    assert ds.target_images().shape == (2, 32, 32, 3)
    assert ds.eval_target_labels().shape == (2, 32, 32)
    # scenes use distinct per-index seeds
    assert not np.array_equal(ds.source_images()[0], ds.source_images()[1])


def test_dataset_arrays_reject_in_place_writes():
    ds = generate_dataset(
        _single_class(), _single_class(), n_source=2, n_target=2, seed=7, h=32, w=32, classes=2
    )
    for arr in (ds.source_images(), ds.source_labels(), ds.target_images(),
                ds.eval_target_labels()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    before = ds.source_images().copy()
    with pytest.raises(ValueError, match="read-only"):
        ds.source_images()[:1] += 1.0
    assert np.array_equal(ds.source_images(), before)


def test_dataset_generation_is_reproducible():
    a = generate_dataset(_single_class(), _single_class(), 2, 2, seed=8, h=32, w=32, classes=2)
    b = generate_dataset(_single_class(), _single_class(), 2, 2, seed=8, h=32, w=32, classes=2)
    assert np.array_equal(a.source_images(), b.source_images())
    assert np.array_equal(a.eval_target_labels(), b.eval_target_labels())


def test_dataset_round_trip_preserves_bits(tmp_path):
    ds = generate_dataset(
        _single_class(), _single_class(), n_source=2, n_target=2, seed=9, h=32, w=32, classes=2
    )
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.h == 32 and back.classes == 2 and back.seed == 9
    assert np.array_equal(back.source_images(), ds.source_images())
    assert np.array_equal(back.source_labels(), ds.source_labels())
    assert np.array_equal(back.target_images(), ds.target_images())
    assert np.array_equal(back.eval_target_labels(), ds.eval_target_labels())
    assert back.source_params == ds.source_params
    assert back.target_params == ds.target_params


def test_save_twice_produces_identical_bytes(tmp_path):
    ds = generate_dataset(
        _single_class(), _single_class(), n_source=2, n_target=1, seed=10, h=32, w=32, classes=2
    )
    save_dataset(ds, tmp_path / "a")
    save_dataset(ds, tmp_path / "b")
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["dataset.sgt"]
    assert (tmp_path / "a" / "dataset.sgt").read_bytes() == (
        tmp_path / "b" / "dataset.sgt"
    ).read_bytes()


def test_load_missing_manifest_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="dataset.sgt"):
        load_dataset(tmp_path / "nowhere")


@pytest.mark.parametrize("edit, match", MALFORMED_DATASETS)
def test_load_rejects_malformed_container(tmp_path, edit, match):
    with pytest.raises(sgt.FormatError, match=match):
        load_dataset(resave_dataset(tmp_path, edit))


def test_shift_params_dict_round_trip():
    sp = ShiftParams(
        appearance=AppearanceParams(palette_rotation=0.8, brightness=0.1),
        layout=(ClassPrior(prob=0.9), ClassPrior(prob=0.5, mean=(0.3, 0.6))),
    )
    assert record_from_dict(ShiftParams, record_to_dict(sp)) == sp
