"""Network builders: segmenter, output-map discriminator, style generator.

Parameters live in plain ``dict[str, np.ndarray]`` collections wrapped in
:class:`NetParams` (which also carries the architecture spec and whether the
net is trainable). Builders are seeded and deterministic. Forward functions
append nodes to a caller-supplied :class:`~segan.tensor.Graph` and return
node ids, so several nets can share one graph and one backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Any

import numpy as np

from . import kernels
from .tensor import Graph, Tensor, forward
from .utils import substream


@dataclass
class SegNetSpec:
    """Encoder-decoder segmenter: strided 3x3 convs, nearest upsample, 1x1 head.

    ``widths[i]`` is the i-th body conv's output channels; the first
    ``downsample`` body convs use stride 2, the rest stride 1.
    """

    in_channels: int = 3
    class_count: int = 4
    widths: tuple[int, ...] = (16, 32, 32)
    downsample: int = 2

    def __post_init__(self):
        self.widths = tuple(self.widths)
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")
        if not 0 <= self.downsample <= len(self.widths):
            raise ValueError(
                f"downsample {self.downsample} exceeds body depth {len(self.widths)}"
            )

    @property
    def scale(self) -> int:
        return 2**self.downsample


@dataclass
class DiscSpec:
    """Fully-convolutional discriminator: 5 convs, kernel 4, stride 2,
    leaky-relu(0.2) after every layer except the last."""

    in_channels: int = 4
    widths: tuple[int, ...] = (8, 16, 32, 64, 1)
    kernel: int = 4
    stride: int = 2
    leaky_slope: float = 0.2

    def __post_init__(self):
        self.widths = tuple(self.widths)
        if len(self.widths) != 5:
            raise ValueError(f"discriminator has exactly 5 conv layers, got {len(self.widths)}")
        if self.widths[-1] != 1:
            raise ValueError(f"last width must be 1 (score map), got {self.widths[-1]}")

    @property
    def min_input(self) -> int:
        return self.stride ** len(self.widths)


@dataclass
class StyleGenSpec:
    """Image-to-image generator: 3x3 convs; residual output clipped to [0,1],
    or a sigmoid output when ``residual`` is off."""

    in_channels: int = 3
    widths: tuple[int, ...] = (16, 16)
    residual: bool = True

    def __post_init__(self):
        self.widths = tuple(self.widths)
        if any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")


@dataclass
class NetParams:
    """A network's spec plus its named parameter arrays."""

    spec: Any
    values: dict[str, np.ndarray]
    trainable: bool = True

    def copy(self) -> "NetParams":
        return NetParams(self.spec, {k: v.copy() for k, v in self.values.items()}, self.trainable)

    def frozen(self) -> "NetParams":
        return NetParams(self.spec, self.values, trainable=False)

    def param_count(self) -> int:
        return sum(v.size for v in self.values.values())


@dataclass
class ModelBundle:
    """Everything a training run produces or consumes."""

    student: NetParams | None = None
    teacher: NetParams | None = None
    disc: NetParams | None = None
    generator: NetParams | None = None


def _kaiming(rng: np.random.Generator, kh: int, kw: int, cin: int, cout: int) -> np.ndarray:
    std = np.sqrt(2.0 / (kh * kw * cin))
    return (rng.standard_normal((kh, kw, cin, cout)) * std).astype(np.float32)


def _conv_pair(rng, kh, kw, cin, cout):
    return _kaiming(rng, kh, kw, cin, cout), np.zeros(cout, dtype=np.float32)


def build_segnet(spec: SegNetSpec, seed: int) -> NetParams:
    rng = substream(seed, "init", "segnet")
    values: dict[str, np.ndarray] = {}
    cin = spec.in_channels
    for i, width in enumerate(spec.widths):
        values[f"conv{i}/w"], values[f"conv{i}/b"] = _conv_pair(rng, 3, 3, cin, width)
        cin = width
    values["head/w"], values["head/b"] = _conv_pair(rng, 1, 1, cin, spec.class_count)
    return NetParams(spec, values)


def build_discriminator(spec: DiscSpec, seed: int) -> NetParams:
    rng = substream(seed, "init", "disc")
    values: dict[str, np.ndarray] = {}
    cin = spec.in_channels
    for i, width in enumerate(spec.widths):
        values[f"conv{i}/w"], values[f"conv{i}/b"] = _conv_pair(
            rng, spec.kernel, spec.kernel, cin, width
        )
        cin = width
    return NetParams(spec, values)


def build_style_generator(spec: StyleGenSpec, seed: int) -> NetParams:
    rng = substream(seed, "init", "stylegen")
    values: dict[str, np.ndarray] = {}
    cin = spec.in_channels
    for i, width in enumerate(spec.widths):
        values[f"conv{i}/w"], values[f"conv{i}/b"] = _conv_pair(rng, 3, 3, cin, width)
        cin = width
    if spec.residual:
        # identity start: the generator begins as a no-op on the image
        values["out/w"] = np.zeros((3, 3, cin, spec.in_channels), dtype=np.float32)
    else:
        values["out/w"] = _kaiming(rng, 3, 3, cin, spec.in_channels)
    values["out/b"] = np.zeros(spec.in_channels, dtype=np.float32)
    return NetParams(spec, values)


def add_param_inputs(g: Graph, prefix: str, net: NetParams) -> dict[str, int]:
    return {name: g.input(f"{prefix}/{name}", arr.shape) for name, arr in net.values.items()}


def param_feeds(nodes: dict[str, int], net: NetParams) -> dict[int, Tensor]:
    return {
        nodes[name]: Tensor(arr, requires_grad=net.trainable)
        for name, arr in net.values.items()
    }


def segnet_forward(g: Graph, spec: SegNetSpec, pn: dict[str, int], x: int) -> dict[str, int]:
    """Returns node ids for "logits" (full resolution) and "features"
    (pre-upsample body output). Inputs in [0,1] are centered to [-1,1]
    before the first conv."""
    h = g.scalar_add(g.scalar_mul(x, 2.0, name="seg.scale"), -1.0, name="seg.center")
    for i in range(len(spec.widths)):
        stride = 2 if i < spec.downsample else 1
        h = g.conv2d(
            h, pn[f"conv{i}/w"], bias=pn[f"conv{i}/b"], stride=stride, pad=1,
            name=f"seg.conv{i}"
        )
        h = g.relu(h, name=f"seg.relu{i}")
    features = h
    if spec.downsample:
        h = g.upsample_nearest(h, spec.scale, name="seg.up")
    logits = g.conv2d(h, pn["head/w"], bias=pn["head/b"], stride=1, pad=0, name="seg.head")
    return {"logits": logits, "features": features}


def disc_forward(g: Graph, spec: DiscSpec, pn: dict[str, int], x: int) -> int:
    """Raw (pre-sigmoid) score map node for input node ``x``."""
    h_in, w_in = g.shape(x)[1], g.shape(x)[2]
    if min(h_in, w_in) < spec.min_input:
        raise ValueError(
            f"discriminator input {h_in}x{w_in} smaller than minimum {spec.min_input}"
        )
    h = x
    for i in range(len(spec.widths)):
        h = g.conv2d(
            h, pn[f"conv{i}/w"], bias=pn[f"conv{i}/b"],
            stride=spec.stride, pad=1, name=f"disc.conv{i}"
        )
        if i < len(spec.widths) - 1:
            h = g.leaky_relu(h, spec.leaky_slope, name=f"disc.lrelu{i}")
    return h


def stylegen_forward(g: Graph, spec: StyleGenSpec, pn: dict[str, int], x: int) -> int:
    h = x
    for i in range(len(spec.widths)):
        h = g.conv2d(h, pn[f"conv{i}/w"], bias=pn[f"conv{i}/b"], stride=1, pad=1,
                     name=f"gen.conv{i}")
        h = g.relu(h, name=f"gen.relu{i}")
    out = g.conv2d(h, pn["out/w"], bias=pn["out/b"], stride=1, pad=1, name="gen.out")
    if spec.residual:
        return g.clip(g.add(x, out, name="gen.residual"), 0.0, 1.0, name="gen.clip")
    return g.sigmoid(out, name="gen.squash")


# ---------------------------------------------------------------------------
# inference helpers


def _as_batch(images: np.ndarray) -> tuple[np.ndarray, bool]:
    images = np.asarray(images, dtype=np.float32)
    if images.ndim == 3:
        return images[None], True
    if images.ndim != 4:
        raise ValueError(f"expected (h,w,c) or (n,h,w,c) images, got shape {images.shape}")
    return images, False


def predict_segmentation(net: NetParams, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities (n,h,w,classes) and argmax labels (n,h,w)."""
    batch, squeeze = _as_batch(images)
    spec: SegNetSpec = net.spec
    if batch.shape[1] % spec.scale or batch.shape[2] % spec.scale:
        raise ValueError(
            f"spatial size {batch.shape[1]}x{batch.shape[2]} not divisible by {spec.scale}"
        )
    g = Graph()
    x = g.input("x", batch.shape)
    pn = add_param_inputs(g, "seg", net)
    logits = segnet_forward(g, spec, pn, x)["logits"]
    probs_node = g.softmax(logits)
    feeds = {x: batch, **param_feeds(pn, net)}
    probs = forward(g, feeds)[probs_node]
    labels = probs.argmax(axis=-1).astype(np.uint8)
    if squeeze:
        return probs[0], labels[0]
    return probs, labels


def resize_nearest(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resize of (..., h, w, c); exact identity at same size."""
    h, w = arr.shape[-3], arr.shape[-2]
    iy = (np.arange(out_h) * h) // out_h
    ix = (np.arange(out_w) * w) // out_w
    return arr[..., iy[:, None], ix, :]


def multi_scale_predict(
    net: NetParams, images: np.ndarray, scales: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Average softmax maps over resized copies of the input.

    Each scaled size is rounded to the segmenter's stride multiple; with
    ``scales=[1.0]`` this is exactly :func:`predict_segmentation`.
    """
    if not scales or any(s <= 0 for s in scales):
        raise ValueError(f"scales must be positive and non-empty, got {scales}")
    batch, squeeze = _as_batch(images)
    spec: SegNetSpec = net.spec
    n, h, w, _ = batch.shape
    total = None
    for s in scales:
        th = max(spec.scale, int(round(h * s / spec.scale)) * spec.scale)
        tw = max(spec.scale, int(round(w * s / spec.scale)) * spec.scale)
        scaled = batch if (th, tw) == (h, w) else resize_nearest(batch, th, tw)
        probs, _ = predict_segmentation(net, scaled)
        if (th, tw) != (h, w):
            probs = resize_nearest(probs, h, w)
        total = probs if total is None else total + probs
    avg = total / np.float32(len(scales))
    labels = avg.argmax(axis=-1).astype(np.uint8)
    if squeeze:
        return avg[0], labels[0]
    return avg, labels


# ---------------------------------------------------------------------------
# linear-operator views and spectral norms


class MatrixOperator:
    def __init__(self, mat: np.ndarray):
        self.mat = np.asarray(mat, dtype=np.float64)
        self.in_dim = self.mat.shape[1]
        self.out_dim = self.mat.shape[0]

    def matvec(self, v):
        return self.mat @ v

    def rmatvec(self, u):
        return self.mat.T @ u


class ConvOperator:
    """The linear map of one (bias-free) conv layer at a fixed input size."""

    def __init__(self, weight: np.ndarray, in_hw: tuple[int, int], stride: int, pad: int):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.in_hw = in_hw
        self.stride = stride
        self.pad = pad
        kh, kw, cin, cout = self.weight.shape
        self.in_shape = (1, in_hw[0], in_hw[1], cin)
        ho = kernels.conv_output_size(in_hw[0], kh, stride, pad)
        wo = kernels.conv_output_size(in_hw[1], kw, stride, pad)
        self.out_shape = (1, ho, wo, cout)
        self.in_dim = int(np.prod(self.in_shape))
        self.out_dim = int(np.prod(self.out_shape))

    def matvec(self, v):
        x = np.asarray(v, dtype=np.float64).reshape(self.in_shape)
        return kernels.conv2d_forward(x, self.weight, self.stride, self.pad).ravel()

    def rmatvec(self, u):
        g = np.asarray(u, dtype=np.float64).reshape(self.out_shape)
        return kernels.conv2d_bwd_input(g, self.weight, self.in_hw, self.stride, self.pad).ravel()


def materialize(op) -> np.ndarray:
    """Dense matrix of a linear operator (test-sized operators only)."""
    cols = [op.matvec(e) for e in np.eye(op.in_dim)]
    return np.stack(cols, axis=1)


def spectral_norm(op, iters: int = 200, tol: float = 1e-12, seed: int = 0) -> float:
    """Largest singular value via power iteration on ``A^T A``.

    ``op`` is a 2-d ndarray or anything with matvec/rmatvec and in_dim. The
    start vector is seeded, so results are reproducible; scaling the operator
    scales the result exactly (up to float rounding).
    """
    if isinstance(op, np.ndarray):
        op = MatrixOperator(op)
    rng = substream(seed, "specnorm")
    v = rng.standard_normal(op.in_dim)
    nv = np.linalg.norm(v)
    if nv == 0 or op.in_dim == 0:
        return 0.0
    v /= nv
    sigma = 0.0
    for _ in range(iters):
        u = op.matvec(v)
        su = np.linalg.norm(u)
        if su == 0:
            return 0.0
        w = op.rmatvec(u / su)
        sw = np.linalg.norm(w)
        if sw == 0:
            return 0.0
        v = w / sw
        if abs(sw - sigma) <= tol * max(sw, 1e-300):
            return float(sw)
        sigma = sw
    return float(sigma)


def spec_to_dict(spec) -> dict:
    d = asdict(spec)
    d["kind"] = type(spec).__name__
    return d


_SPEC_KINDS = {"SegNetSpec": SegNetSpec, "DiscSpec": DiscSpec, "StyleGenSpec": StyleGenSpec}


def spec_from_dict(d: dict):
    d = dict(d)
    kind = d.pop("kind")
    for key in ("widths",):
        if key in d:
            d[key] = tuple(d[key])
    return _SPEC_KINDS[kind](**d)
