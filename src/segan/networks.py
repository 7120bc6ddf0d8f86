"""Network builders: segmenter, output-map discriminator, style generator.

Each net's spec record defaults to the stock architecture. The ``networks``
config section, :class:`NetworksConfig`, takes the specs' defaults as its
own and builds every spec from its widths and the dataset's class count.

Parameters live in plain ``dict[str, np.ndarray]`` collections wrapped in
:class:`NetParams` (which also carries the architecture spec and whether the
net is trainable). Builders are seeded and deterministic. Forward functions
append nodes to a caller-supplied :class:`~segan.tensor.Graph` and return
node ids, so several nets can share one graph and one backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import kernels
from .tensor import Graph, forward
from .utils import ConfigError, record_from_dict, record_to_dict, substream


@dataclass
class SegNetSpec:
    """Encoder-decoder segmenter: strided 3x3 convs, a 1x1 head and a
    softmax at body resolution, then a nearest upsample of the class map.

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

    def check_size(self, h: int, w: int) -> None:
        if h % self.scale or w % self.scale:
            raise ValueError(f"spatial size {h}x{w} not divisible by {self.scale}")


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

    def check_size(self, h: int, w: int) -> None:
        if min(h, w) < self.min_input:
            raise ValueError(f"discriminator input {h}x{w} smaller than minimum {self.min_input}")


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


@dataclass(frozen=True)
class NetworksConfig:
    """The ``networks`` config section: the widths of every net, defaulting
    to the specs' own. Channel and class counts come from the dataset."""

    segnet_widths: tuple[int, ...] = SegNetSpec.widths
    segnet_downsample: int = SegNetSpec.downsample
    disc_widths: tuple[int, ...] = DiscSpec.widths
    stylegen_widths: tuple[int, ...] = StyleGenSpec.widths
    stylegen_residual: bool = StyleGenSpec.residual

    def segnet_spec(self, classes: int) -> SegNetSpec:
        return SegNetSpec(class_count=classes, widths=self.segnet_widths,
                          downsample=self.segnet_downsample)

    def disc_spec(self, in_channels: int) -> DiscSpec:
        return DiscSpec(in_channels=in_channels, widths=self.disc_widths)

    def stylegen_spec(self) -> StyleGenSpec:
        return StyleGenSpec(widths=self.stylegen_widths, residual=self.stylegen_residual)


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


def param_feeds(nodes: dict[str, int], net: NetParams) -> dict[int, np.ndarray]:
    return {nodes[name]: arr for name, arr in net.values.items()}


def segnet_body(g: Graph, spec: SegNetSpec, pn: dict[str, int], x: int) -> int:
    """The segmenter without its head: the node of the body output."""
    h = g.scalar_add(g.scalar_mul(x, 2.0, name="seg.scale"), -1.0, name="seg.center")
    for i in range(len(spec.widths)):
        stride = 2 if i < spec.downsample else 1
        h = g.conv2d(
            h, pn[f"conv{i}/w"], bias=pn[f"conv{i}/b"], stride=stride, pad=1,
            name=f"seg.conv{i}"
        )
        h = g.relu(h, name=f"seg.relu{i}")
    return h


def segnet_forward(g: Graph, spec: SegNetSpec, pn: dict[str, int], x: int) -> dict[str, int]:
    """Returns node ids for "probs" (softmax class map at input resolution)
    and "features" (body output). Inputs in [0,1] are centered to [-1,1]
    before the first conv.

    The 1x1 head and the softmax run on the body output, and only the
    ``class_count``-channel probability map is upsampled. Both act on each
    pixel alone, so they commute exactly with nearest upsampling: in exact
    arithmetic the function and its gradients equal those of upsampling the
    features first, at 1/scale^2 of the head and softmax work. Only float
    rounding moves, because a BLAS matmul's per-row result may depend on the
    row count. The named tolerance on the stock net is 16 ulp per float32
    probability (at most 10 ulp, 2.1e-7 absolute, seen at batch 2 and 16)
    with identical argmax labels; float64 agrees to rtol 1e-12.
    """
    features = segnet_body(g, spec, pn, x)
    logits = g.conv2d(features, pn["head/w"], bias=pn["head/b"], stride=1, pad=0,
                      name="seg.head")
    probs = g.softmax(logits, name="seg.softmax")
    if spec.downsample:
        probs = g.upsample_nearest(probs, spec.scale, name="seg.up")
    return {"probs": probs, "features": features}


def disc_forward(g: Graph, spec: DiscSpec, pn: dict[str, int], x: int) -> int:
    """Raw (pre-sigmoid) score map node for input node ``x``."""
    spec.check_size(*g.shape(x)[1:3])
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


# Inference runs over an image stack in slices of at most this many input
# pixels: 8 stock 64x64 images (5 at 80x80, 14 at 48x48). A slice's
# activations and conv temporaries then stay near the per-core L2 size,
# where a whole-stack graph holds 13-20 MB per layer.
INFER_PIXELS = 8 * 64 * 64


def _as_batch(images: np.ndarray) -> tuple[np.ndarray, bool]:
    images = np.asarray(images, dtype=np.float32)
    if images.ndim == 3:
        return images[None], True
    if images.ndim != 4:
        raise ValueError(f"expected (h,w,c) or (n,h,w,c) images, got shape {images.shape}")
    return images, False


def infer_in_slices(net: NetParams, prefix: str, build, batch: np.ndarray,
                    size: tuple[int, int] | None = None):
    """Yield ``(start, output)`` for each slice of an (n,h,w,c) stack: the
    node ``build(g, net.spec, param_nodes, x)`` returns, evaluated on
    ``batch[start:start + m]``.

    With ``size`` each slice is first resized (nearest) to that (h, w).
    Slices hold at most ``INFER_PIXELS`` pixels at that size, so one graph
    is built per slice length: at most two per call (full slices and the
    remainder). An empty stack still runs one empty slice, so its outputs
    have a shape.
    """
    n, h, w, _ = batch.shape
    th, tw = size or (h, w)
    step = max(1, INFER_PIXELS // (th * tw))
    graphs: dict[int, tuple[Graph, int, dict[str, int], int]] = {}
    for start in range(0, max(n, 1), step):
        chunk = batch[start:start + step]
        if (th, tw) != (h, w):
            chunk = resize_nearest(chunk, th, tw)
        m = chunk.shape[0]
        if m not in graphs:
            g = Graph()
            x = g.input("x", chunk.shape)
            pn = add_param_inputs(g, prefix, net)
            graphs[m] = (g, x, pn, build(g, net.spec, pn, x))
        g, x, pn, node = graphs[m]
        yield start, forward(g, {x: chunk, **param_feeds(pn, net)})[node]


def infer_stack(net: NetParams, prefix: str, build, images: np.ndarray,
                labels: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The outputs of :func:`infer_in_slices` over an (h,w,c) image or an
    (n,h,w,c) stack, written into one preallocated array. With ``labels``
    each slice's last-axis argmax goes into a uint8 array while the slice is
    still in cache (else labels is None)."""
    batch, squeeze = _as_batch(images)
    out = lab = None
    for start, res in infer_in_slices(net, prefix, build, batch):
        if out is None:
            out = np.empty((len(batch),) + res.shape[1:], dtype=res.dtype)
            lab = np.empty(out.shape[:-1], dtype=np.uint8) if labels else None
        out[start:start + len(res)] = res
        if labels:
            lab[start:start + len(res)] = res.argmax(axis=-1)
    if squeeze:
        return out[0], lab[0] if labels else None
    return out, lab


def _segnet_probs(g: Graph, spec: SegNetSpec, pn: dict[str, int], x: int) -> int:
    spec.check_size(*g.shape(x)[1:3])
    return segnet_forward(g, spec, pn, x)["probs"]


def predict_segmentation(net: NetParams, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities (n,h,w,classes) and argmax labels (n,h,w).

    The stack runs through :func:`infer_in_slices`, ``INFER_PIXELS`` input
    pixels per slice (8 images at 64x64), so memory is bounded by the slice,
    not the stack. A stack of at most one slice runs the whole-batch graph.
    Otherwise only float rounding can move, because a BLAS matmul's per-row
    result may depend on the row count (here the 1x1 head's). The named
    tolerance against the whole-batch graph is 16 ulp per float32
    probability, with identical argmax labels; on 200 stock images the
    largest move seen was 14 ulp (2.4e-7).
    """
    return infer_stack(net, "seg", _segnet_probs, images, labels=True)


def label_slices(net: NetParams, images: np.ndarray):
    """Yield ``(start, labels)`` for each inference slice of an (n,h,w,c)
    stack: the uint8 argmax of :func:`predict_segmentation`'s probabilities
    for those images, without holding the probability stack."""
    batch, _ = _as_batch(images)
    for start, probs in infer_in_slices(net, "seg", _segnet_probs, batch):
        yield start, probs.argmax(axis=-1).astype(np.uint8)


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

    Each scale runs :func:`infer_in_slices` at the scaled size, so every
    graph sees the slices :func:`predict_segmentation` would run on the
    resized stack. Each slice's probabilities are resized back and added
    into one float32 sum in scale order; the last scale divides its slices
    and takes their argmax. Beyond the outputs only one slice is held, and
    the result is bit-identical to averaging whole resized stacks.
    """
    if not scales or any(s <= 0 for s in scales):
        raise ValueError(f"scales must be positive and non-empty, got {scales}")
    batch, squeeze = _as_batch(images)
    spec: SegNetSpec = net.spec
    n, h, w, _ = batch.shape
    total = labels = None
    for k, s in enumerate(scales):
        th = max(spec.scale, int(round(h * s / spec.scale)) * spec.scale)
        tw = max(spec.scale, int(round(w * s / spec.scale)) * spec.scale)
        for start, probs in infer_in_slices(net, "seg", _segnet_probs, batch, (th, tw)):
            if (th, tw) != (h, w):
                probs = resize_nearest(probs, h, w)
            if total is None:
                total = np.empty((n,) + probs.shape[1:], dtype=np.float32)
                labels = np.empty(total.shape[:-1], dtype=np.uint8)
            part = total[start:start + len(probs)]
            if k == 0:
                part[...] = probs
            else:
                part += probs
            if k == len(scales) - 1:
                part /= np.float32(len(scales))
                labels[start:start + len(probs)] = part.argmax(axis=-1)
    if squeeze:
        return total[0], labels[0]
    return total, labels


# ---------------------------------------------------------------------------
# linear-operator views and spectral norms


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


POWER_TOL = 1e-12  # power iteration stops once an estimate moves by this fraction


def spectral_norm(op, iters: int) -> float:
    """Largest singular value via at most ``iters`` power iterations on
    ``A^T A``.

    ``op`` is a linear operator with ``matvec``, ``rmatvec`` and ``in_dim``,
    such as a :class:`ConvOperator`. The start vector comes from one fixed
    seed, so results are reproducible; scaling the operator scales the
    result exactly (up to float rounding).
    """
    rng = substream(0, "specnorm")
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
        if abs(sw - sigma) <= POWER_TOL * max(sw, 1e-300):
            return float(sw)
        sigma = sw
    return float(sigma)


def spec_to_dict(spec) -> dict:
    return {**record_to_dict(spec), "kind": type(spec).__name__}


_SPEC_KINDS = {"SegNetSpec": SegNetSpec, "DiscSpec": DiscSpec, "StyleGenSpec": StyleGenSpec}


def spec_from_dict(d: dict, path: str = ""):
    """The spec a :func:`spec_to_dict` object names by its ``kind``; raises
    :class:`ConfigError` for anything else."""
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {type(d).__name__}")
    d = dict(d)
    kind = d.pop("kind", None)
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ConfigError(f"{path}.kind" if path else "kind",
                          f"expected one of {', '.join(_SPEC_KINDS)}, got {kind!r}")
    return record_from_dict(_SPEC_KINDS[kind], d, path)
