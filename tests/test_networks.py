"""Network builders, forward shape contracts, prediction helpers, and
spectral norms against dense linear-algebra oracles."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from segan import networks
from segan.datagen import benchmark_shifts, generate_dataset
from segan.networks import (
    INFER_PIXELS,
    ConvOperator,
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
    label_slices,
    materialize,
    multi_scale_predict,
    param_feeds,
    predict_segmentation,
    resize_nearest,
    segnet_forward,
    spec_from_dict,
    spec_to_dict,
    spectral_norm,
    stylegen_forward,
)
from segan.tensor import Graph, backward, forward
from segan.trainer import TrainConfig, _build_segan_graph

from references import multi_scale_predict as whole_stack_multi_scale_predict
from references import resize_by_fancy_index


def _zeroed(net: NetParams) -> NetParams:
    out = net.copy()
    for v in out.values.values():
        v[...] = 0.0
    return out


# ---------------------------------------------------------------------------
# builders


def test_segnet_default_parameter_count_by_hand():
    # conv0 3*3*3*16+16=448, conv1 3*3*16*32+32=4640,
    # conv2 3*3*32*32+32=9248, head 1*1*32*4+4=132
    net = build_segnet(SegNetSpec(), seed=0)
    assert sum(v.size for v in net.values.values()) == 448 + 4640 + 9248 + 132 == 14468


def test_same_seed_same_weights_different_seed_differs():
    a = build_segnet(SegNetSpec(), seed=5)
    b = build_segnet(SegNetSpec(), seed=5)
    c = build_segnet(SegNetSpec(), seed=6)
    for name in a.values:
        assert np.array_equal(a.values[name], b.values[name])
    assert any(not np.array_equal(a.values[n], c.values[n]) for n in a.values)


def test_spec_validation():
    with pytest.raises(ValueError):
        SegNetSpec(class_count=1)
    with pytest.raises(ValueError):
        SegNetSpec(widths=())
    with pytest.raises(ValueError):
        SegNetSpec(widths=(8,), downsample=2)
    with pytest.raises(ValueError):
        DiscSpec(widths=(8, 16, 1))
    with pytest.raises(ValueError):
        DiscSpec(widths=(8, 16, 32, 64, 2))
    with pytest.raises(ValueError):
        StyleGenSpec(widths=(0,))


def test_spec_dict_round_trip():
    for spec in (SegNetSpec(), DiscSpec(), StyleGenSpec(residual=False)):
        back = spec_from_dict(spec_to_dict(spec))
        assert back == spec


# ---------------------------------------------------------------------------
# segmenter


def test_segnet_logits_keep_input_resolution():
    spec = SegNetSpec()
    net = build_segnet(spec, seed=1)
    probs, labels = predict_segmentation(net, np.zeros((2, 64, 64, 3), dtype=np.float32))
    assert probs.shape == (2, 64, 64, 4)
    assert labels.shape == (2, 64, 64)
    assert labels.dtype == np.uint8


def test_segnet_rejects_indivisible_size():
    net = build_segnet(SegNetSpec(), seed=1)
    with pytest.raises(ValueError, match="divisible"):
        predict_segmentation(net, np.zeros((30, 30, 3), dtype=np.float32))


def test_zero_parameter_net_predicts_uniform():
    net = _zeroed(build_segnet(SegNetSpec(), seed=1))
    probs, _ = predict_segmentation(net, np.random.default_rng(0).random((8, 8, 3)))
    np.testing.assert_allclose(probs, 0.25, atol=1e-7)


def test_bias_only_head_reproduces_hand_softmax():
    spec = SegNetSpec(widths=(4,), downsample=0)
    net = _zeroed(build_segnet(spec, seed=1))
    bias = np.array([0.2, 0.4, 0.6, 0.8], dtype=np.float32)
    net.values["head/b"] = bias.copy()
    probs, labels = predict_segmentation(net, np.full((8, 8, 3), 0.3, dtype=np.float32))
    e = np.exp(bias - bias.max())
    np.testing.assert_allclose(probs[0, 0], e / e.sum(), rtol=1e-6)
    assert (labels == 3).all()


def test_argmax_labels_consistent_with_probs():
    net = build_segnet(SegNetSpec(), seed=2)
    probs, labels = predict_segmentation(
        net, np.random.default_rng(1).random((2, 32, 32, 3)).astype(np.float32)
    )
    assert np.array_equal(labels, probs.argmax(axis=-1))


def test_features_node_is_downsampled_body_output():
    spec = SegNetSpec()
    net = build_segnet(spec, seed=3)
    g = Graph()
    x = g.input("x", (1, 64, 64, 3))
    pn = add_param_inputs(g, "seg", net)
    nodes = segnet_forward(g, spec, pn, x)
    assert g.shape(nodes["features"]) == (1, 16, 16, 32)
    assert g.shape(nodes["probs"]) == (1, 64, 64, 4)



def _head_orders(net: NetParams, images: np.ndarray):
    """Forward both head orders of one segnet on ``images``: the program's
    (head and softmax at body resolution, then upsample the class map) and
    the old one (upsample the features, then head and softmax). Returns each
    order's probabilities and the gradients of a fixed linear functional of
    them with respect to every segnet parameter."""
    spec: SegNetSpec = net.spec
    weights = np.random.default_rng(7).standard_normal(
        images.shape[:3] + (spec.class_count,)
    ).astype(images.dtype)
    out = []
    for old in (False, True):
        g = Graph()
        x = g.input("x", images.shape)
        pn = add_param_inputs(g, "seg", net)
        nodes = segnet_forward(g, spec, pn, x)
        probs = nodes["probs"]
        if old:
            up = g.upsample_nearest(nodes["features"], spec.scale)
            logits = g.conv2d(up, pn["head/w"], bias=pn["head/b"], stride=1, pad=0)
            probs = g.softmax(logits)
        r = g.input("r", weights.shape)
        loss = g.reduce_sum(g.onehot_gather(probs, r))
        feeds = {x: images, r: weights, **param_feeds(pn, net)}
        acts = forward(g, feeds)
        grads = backward(g, loss, acts, wrt=list(pn.values()))
        out.append((acts[probs], {name: grads[i] for name, i in pn.items()}))
    return out


def test_head_at_body_resolution_equals_upsampled_head_in_float64():
    net = build_segnet(SegNetSpec(), seed=4)
    net64 = NetParams(net.spec, {k: v.astype(np.float64) for k, v in net.values.items()})
    images = np.random.default_rng(3).random((2, 32, 32, 3))
    (new_p, new_g), (old_p, old_g) = _head_orders(net64, images)
    assert new_p.dtype == np.float64 and new_p.shape == (2, 32, 32, 4)
    np.testing.assert_allclose(new_p, old_p, rtol=1e-12, atol=0)
    assert set(new_g) == set(net.values)
    for name in net.values:
        # The gradients sum the same terms in another order, so an entry near
        # cancellation can move by more than 1e-12 of itself; the tolerance
        # also admits 1e-12 of the gradient's largest entry.
        scale = np.abs(old_g[name]).max()
        np.testing.assert_allclose(
            new_g[name], old_g[name], rtol=1e-12, atol=1e-12 * scale, err_msg=name
        )


@pytest.mark.parametrize("batch", [2, 16])
def test_head_at_body_resolution_float32_tolerance(batch):
    # The named tolerance of the reorder: OpenBLAS's per-row result depends
    # on the row count, so float32 probabilities may move by a few ulp. This
    # case moves one probability near 0.395 by 7 ulp (2.09e-7); the largest
    # move seen over other seeds was 10 ulp.
    net = build_segnet(SegNetSpec(), seed=4)
    images = np.random.default_rng(batch).random((batch, 64, 64, 3)).astype(np.float32)
    (new_p, _), (old_p, _) = _head_orders(net, images)
    assert new_p.dtype == np.float32
    ulp = np.spacing(np.maximum(np.abs(new_p), np.abs(old_p)))
    assert (np.abs(new_p - old_p) <= 16 * ulp).all()
    assert np.array_equal(new_p.argmax(axis=-1), old_p.argmax(axis=-1))


def test_training_graph_has_one_body_resolution_softmax_per_segnet_pass():
    cfg = TrainConfig()
    spec = SegNetSpec()
    student = build_segnet(spec, seed=1)
    teacher = student.copy().frozen()
    disc = build_discriminator(DiscSpec(), seed=1)
    ds = SimpleNamespace(h=64, w=64, classes=spec.class_count)
    g = _build_segan_graph(cfg, ds, student, teacher, disc, aug=True).graph
    softmaxes = [n for n in g.nodes if n.op == "softmax"]
    # student on source, styled source and target; teacher on target
    assert len(softmaxes) == 4
    for node in softmaxes:
        assert g.shape(node.inputs[0]) == (cfg.batch_source, 16, 16, spec.class_count)
    ups = [n for n in g.nodes if n.op == "upsample"]
    assert ups and all(n.shape[-1] <= spec.class_count for n in ups)


# ---------------------------------------------------------------------------
# discriminator


def test_disc_score_map_shape_and_min_input():
    spec = DiscSpec()
    assert spec.min_input == 32
    net = build_discriminator(spec, seed=4)
    g = Graph()
    x = g.input("x", (2, 64, 64, 4))
    pn = add_param_inputs(g, "disc", net)
    out = disc_forward(g, spec, pn, x)
    assert g.shape(out) == (2, 2, 2, 1)

    g2 = Graph()
    x2 = g2.input("x", (1, 16, 16, 4))
    pn2 = add_param_inputs(g2, "disc", net)
    with pytest.raises(ValueError, match="smaller than minimum"):
        disc_forward(g2, spec, pn2, x2)


def test_disc_last_layer_has_no_activation():
    # zero weights and a negative last bias must come through unsquashed;
    # a trailing leaky-relu would shrink it to slope*bias
    spec = DiscSpec()
    net = _zeroed(build_discriminator(spec, seed=4))
    net.values["conv4/b"][...] = -5.0
    g = Graph()
    x = g.input("x", (1, 32, 32, 4))
    pn = add_param_inputs(g, "disc", net)
    out = disc_forward(g, spec, pn, x)
    feeds = {x: np.zeros((1, 32, 32, 4), dtype=np.float32), **param_feeds(pn, net)}
    score = forward(g, feeds)[out]
    np.testing.assert_allclose(score, -5.0, rtol=0)


# ---------------------------------------------------------------------------
# sliced inference

SLICE = INFER_PIXELS // (64 * 64)  # stock 64x64 images per inference slice


@pytest.fixture(scope="module")
def stock_images():
    """200 target images of the stock benchmark."""
    ds = generate_dataset(*benchmark_shifts(), n_source=1, n_target=200, seed=3,
                          h=64, w=64, classes=4)
    return ds.target_images()


def _whole_batch_probs(net: NetParams, images: np.ndarray) -> np.ndarray:
    """The segmenter's probabilities from one graph over the whole stack."""
    g = Graph()
    x = g.input("x", images.shape)
    pn = add_param_inputs(g, "seg", net)
    probs = segnet_forward(g, net.spec, pn, x)["probs"]
    return forward(g, {x: images, **param_feeds(pn, net)})[probs]


def _assert_within_slice_tolerance(probs, labels, ref):
    # the named tolerance: 16 ulp per float32 probability, equal argmax
    assert probs.dtype == np.float32 and labels.dtype == np.uint8
    assert probs.shape == ref.shape and labels.shape == ref.shape[:-1]
    ulp = np.spacing(np.maximum(np.abs(probs), np.abs(ref)))
    assert (np.abs(probs - ref) <= 16 * ulp).all()
    assert np.array_equal(labels, ref.argmax(axis=-1))


@pytest.mark.parametrize("n", [None, SLICE - 1, SLICE, SLICE + 1])
def test_sliced_prediction_matches_whole_batch_graph(n):
    net = build_segnet(SegNetSpec(), seed=4)
    shape = (64, 64, 3) if n is None else (n, 64, 64, 3)
    images = np.random.default_rng(5).random(shape).astype(np.float32)
    probs, labels = predict_segmentation(net, images)
    ref = _whole_batch_probs(net, images if n is not None else images[None])
    if n is None:
        ref = ref[0]
    _assert_within_slice_tolerance(probs, labels, ref)


def test_sliced_prediction_of_200_stock_images(stock_images):
    net = build_segnet(SegNetSpec(), seed=4)
    probs, labels = predict_segmentation(net, stock_images)
    _assert_within_slice_tolerance(probs, labels, _whole_batch_probs(net, stock_images))


def test_prediction_builds_at_most_two_graphs_and_runs_one_per_slice(monkeypatch):
    built, ran = [], []
    monkeypatch.setattr(networks, "Graph", lambda: built.append(Graph()) or built[-1])
    monkeypatch.setattr(networks, "forward",
                        lambda g, feeds, read: ran.append(g) or forward(g, feeds, read))
    net = build_segnet(SegNetSpec(), seed=4)
    images = np.zeros((2 * SLICE + 3, 64, 64, 3), dtype=np.float32)
    probs, labels = predict_segmentation(net, images)
    assert probs.shape == (2 * SLICE + 3, 64, 64, 4) and labels.shape == (2 * SLICE + 3, 64, 64)
    assert [g.shape(0)[0] for g in built] == [SLICE, 3]
    assert [g.shape(0)[0] for g in ran] == [SLICE, SLICE, 3]


def test_prediction_memory_is_bounded_by_the_slice(stock_images):
    # the whole-batch graph peaked at 6.2x the outputs on this stack
    net = build_segnet(SegNetSpec(), seed=4)
    predict_segmentation(net, stock_images[:1])
    tracemalloc.start()
    try:
        probs, labels = predict_segmentation(net, stock_images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * (probs.nbytes + labels.nbytes)


def _tied_net():
    """The stock segmenter with classes 1 and 2 given one head filter, so
    that their probabilities tie exactly at every pixel, and lifted so that
    they are often the top two."""
    net = build_segnet(SegNetSpec(), seed=4)
    head_w, head_b = net.values["head/w"], net.values["head/b"]
    head_w[..., 2] = head_w[..., 1]
    head_b[1:3] = head_b[1] + 0.5
    return net


def test_one_slice_prediction_equals_the_training_graph_bit_for_bit():
    # the inference graph stops at the body-resolution softmax; upsampling
    # outside it copies the values the graph's own upsampling would
    net = _tied_net()
    images = np.random.default_rng(5).random((SLICE, 64, 64, 3)).astype(np.float32)
    probs, labels = predict_segmentation(net, images)
    ref = _whole_batch_probs(net, images)
    assert probs.dtype == ref.dtype and probs.tobytes() == ref.tobytes()
    assert np.array_equal(labels, ref.argmax(axis=-1))


@pytest.mark.parametrize("n", [1, SLICE, SLICE + 3])
def test_body_resolution_labels_equal_the_full_resolution_argmax(n):
    net = _tied_net()
    images = np.random.default_rng(6).random((n, 64, 64, 3)).astype(np.float32)
    probs, _ = predict_segmentation(net, images)
    starts, parts = zip(*label_slices(net, images))
    assert starts == tuple(range(0, n, SLICE))
    labels = np.concatenate(parts)
    assert labels.dtype == np.uint8 and labels.shape == probs.shape[:-1]
    assert np.array_equal(labels, probs.argmax(axis=-1))
    # exact ties between the top two classes resolve to the lower index
    tied = (probs[..., 1] == probs[..., 2]) & (probs[..., 1] == probs.max(axis=-1))
    assert 0 < tied.mean() < 1
    assert (labels[tied] == 1).all()


# ---------------------------------------------------------------------------
# style generator


def test_residual_generator_starts_as_identity():
    spec = StyleGenSpec(residual=True)
    net = build_style_generator(spec, seed=5)
    img = np.random.default_rng(2).random((1, 16, 16, 3)).astype(np.float32)
    g = Graph()
    x = g.input("x", img.shape)
    pn = add_param_inputs(g, "gen", net)
    out = stylegen_forward(g, spec, pn, x)
    got = forward(g, {x: img, **param_feeds(pn, net)})[out]
    assert np.array_equal(got, img)


@pytest.mark.parametrize("residual", [True, False])
def test_generator_output_stays_in_unit_range(residual):
    spec = StyleGenSpec(residual=residual)
    net = build_style_generator(spec, seed=6)
    for v in net.values.values():
        v[...] += 0.3  # push away from the identity start
    img = np.random.default_rng(3).random((1, 16, 16, 3)).astype(np.float32)
    g = Graph()
    x = g.input("x", img.shape)
    pn = add_param_inputs(g, "gen", net)
    out = stylegen_forward(g, spec, pn, x)
    got = forward(g, {x: img, **param_feeds(pn, net)})[out]
    assert got.min() >= 0.0 and got.max() <= 1.0


# ---------------------------------------------------------------------------
# multi-scale prediction


def test_multi_scale_single_and_repeated_scale_are_identity():
    net = build_segnet(SegNetSpec(), seed=7)
    img = np.random.default_rng(4).random((64, 64, 3)).astype(np.float32)
    p_ref, l_ref = predict_segmentation(net, img)
    p1, l1 = multi_scale_predict(net, img, [1.0])
    assert np.array_equal(p1, p_ref) and np.array_equal(l1, l_ref)
    p2, l2 = multi_scale_predict(net, img, [1.0, 1.0])
    assert np.array_equal(p2, p_ref) and np.array_equal(l2, l_ref)
    # a stack of more than one inference slice
    images = np.random.default_rng(6).random((SLICE + 3, 64, 64, 3)).astype(np.float32)
    p_ref, l_ref = predict_segmentation(net, images)
    p1, l1 = multi_scale_predict(net, images, [1.0])
    assert np.array_equal(p1, p_ref) and np.array_equal(l1, l_ref)


def test_multi_scale_constant_image():
    # padding-free case (uniform output) is exactly constant under resampling
    net = _zeroed(build_segnet(SegNetSpec(), seed=8))
    img = np.full((64, 64, 3), 0.4, dtype=np.float32)
    p_ms, _ = multi_scale_predict(net, img, [0.5, 1.0])
    np.testing.assert_allclose(p_ms, 0.25, atol=1e-7)

    # with nonzero weights the zero-padding halo scales with the input, so
    # probabilities agree only approximately; labels can only flip where the
    # single-scale margin is smaller than the probability deviation
    net = build_segnet(SegNetSpec(), seed=8)
    p_ref, l_ref = predict_segmentation(net, img)
    p_ms, l_ms = multi_scale_predict(net, img, [0.5, 1.0])
    dev = float(np.abs(p_ms - p_ref).max())
    assert dev < 0.05
    top2 = np.sort(p_ref, axis=-1)[..., -2:]
    margin = top2[..., 1] - top2[..., 0]
    assert np.array_equal(l_ms[margin > 2 * dev], l_ref[margin > 2 * dev])


@pytest.mark.parametrize("scales", [(0.75, 1.0, 1.25), (1.25, 0.5, 1.0)])
@pytest.mark.parametrize("n", [None, 1, 4, 5, 6, 13, 14, 15, 200])
def test_multi_scale_is_bit_identical_to_whole_stack_resizing(stock_images, n, scales):
    # the stacks straddle the slice sizes at 80x80 (5), 64x64 (8) and 48x48 (14)
    net = build_segnet(SegNetSpec(), seed=4)
    images = stock_images[0] if n is None else stock_images[:n]
    probs, labels = multi_scale_predict(net, images, list(scales))
    ref_probs, ref_labels = whole_stack_multi_scale_predict(net, images, scales)
    assert probs.dtype == ref_probs.dtype and probs.shape == ref_probs.shape
    assert probs.tobytes() == ref_probs.tobytes()
    assert labels.dtype == np.uint8 and np.array_equal(labels, ref_labels)


def test_multi_scale_memory_is_bounded_by_the_slice(stock_images):
    # resizing whole stacks peaked at 64.9 MiB, 4.9x the outputs, on this stack
    net = build_segnet(SegNetSpec(), seed=4)
    scales = [0.75, 1.0, 1.25]
    multi_scale_predict(net, stock_images[:1], scales)
    tracemalloc.start()
    try:
        probs, labels = multi_scale_predict(net, stock_images, scales)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (probs.nbytes + labels.nbytes), peak / (probs.nbytes + labels.nbytes)


def test_multi_scale_rejects_bad_scales():
    net = build_segnet(SegNetSpec(), seed=7)
    img = np.zeros((16, 16, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        multi_scale_predict(net, img, [])
    with pytest.raises(ValueError):
        multi_scale_predict(net, img, [0.5, -1.0])


def test_resize_nearest_identity_and_block_structure():
    arr = np.arange(2 * 4 * 4 * 3, dtype=np.float64).reshape(2, 4, 4, 3)
    assert np.array_equal(resize_nearest(arr, 4, 4), arr)
    up = resize_nearest(arr, 8, 8)
    assert np.array_equal(up[:, ::2, ::2, :], arr)
    assert np.array_equal(up[:, 1::2, 1::2, :], arr)


@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 64, 64, 3), (5, 64, 48, 4), (2, 3, 7, 5, 2)])
@pytest.mark.parametrize("size", [(48, 48), (80, 80), (64, 48), (1, 1), (13, 29)])
def test_resize_nearest_is_bit_identical_to_the_fancy_index(shape, size):
    # an (h, w, c) image, image stacks, and a stack with two leading axes
    arr = np.random.default_rng(3).random(shape).astype(np.float32)
    out, ref = resize_nearest(arr, *size), resize_by_fancy_index(arr, *size)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# spectral norm


def _matrix(mat) -> ConvOperator:
    """The operator of ``mat``: a 1x1 conv on a 1x1 input is that matrix."""
    return ConvOperator(np.asarray(mat).T[None, None], in_hw=(1, 1), stride=1, pad=0)


def test_spectral_norm_identity_and_diagonal():
    assert spectral_norm(_matrix(np.eye(4)), iters=200) == pytest.approx(1.0, rel=1e-12)
    diag = _matrix(np.diag([3.0, 1.0]))
    assert spectral_norm(diag, iters=200) == pytest.approx(3.0, rel=1e-12)
    assert spectral_norm(_matrix(np.zeros((3, 3))), iters=200) == 0.0


def test_spectral_norm_matches_svd_on_random_matrix():
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((8, 8))
    want = np.linalg.svd(mat, compute_uv=False)[0]
    assert spectral_norm(_matrix(mat), iters=200) == pytest.approx(want, abs=1e-6)


def test_spectral_norm_scales_linearly():
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((6, 4))
    base = spectral_norm(_matrix(mat), iters=200)
    np.testing.assert_allclose(spectral_norm(_matrix(-2.5 * mat), iters=200), 2.5 * base,
                               rtol=1e-9)


def test_conv_operator_matches_dense_svd():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((3, 3, 2, 3))
    op = ConvOperator(w, in_hw=(8, 8), stride=2, pad=1)
    dense = materialize(op)
    assert dense.shape == (op.out_dim, op.in_dim)
    want = np.linalg.svd(dense, compute_uv=False)[0]
    assert spectral_norm(op, iters=200) == pytest.approx(want, abs=1e-5)


def test_conv_operator_adjoint_consistency():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((3, 3, 2, 2))
    op = ConvOperator(w, in_hw=(6, 6), stride=1, pad=1)
    v = rng.standard_normal(op.in_dim)
    u = rng.standard_normal(op.out_dim)
    np.testing.assert_allclose(
        float(u @ op.matvec(v)), float(op.rmatvec(u) @ v), rtol=1e-10
    )


# ---------------------------------------------------------------------------
# bundles


def test_bundle_teacher_mirrors_student_shapes():
    student = build_segnet(SegNetSpec(), seed=13)
    bundle = ModelBundle(student=student, teacher=student.copy())
    for name, arr in bundle.student.values.items():
        assert bundle.teacher.values[name].shape == arr.shape
    frozen = student.frozen()
    assert not frozen.trainable and frozen.values is student.values
