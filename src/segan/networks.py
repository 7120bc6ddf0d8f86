"""Network builders: segmenter, output-map discriminator, style generator.

Each net's spec record defaults to the stock architecture. The ``networks``
config section, :class:`NetworksConfig`, takes the specs' defaults as its
own and builds every spec from its widths and the dataset's class count.

Parameters live in plain ``dict[str, np.ndarray]`` collections wrapped in
:class:`NetParams` (which also carries the architecture spec and whether the
net is trainable). Builders are seeded and deterministic. Forward functions
append nodes to a caller-supplied :class:`~segan.tensor.Graph` and return
node ids, so several nets can share one graph and one backward pass.

Inference streams a stack in slices of ``INFER_PIXELS`` input pixels, and
:func:`collect` writes the slices' outputs into preallocated stacks.
Multi-scale testing (:func:`multi_scale_slices`) is one loop over output
runs, each averaged from the held scale slices that cover it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import kernels, sgt
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
            raise ConfigError("class_count", f"class_count must be >= 2, got {self.class_count}")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ConfigError("widths", f"widths must be positive, got {self.widths}")
        if not 0 <= self.downsample <= len(self.widths):
            raise ConfigError("downsample", f"downsample {self.downsample} exceeds body "
                                            f"depth {len(self.widths)}")

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
        if len(self.widths) != 5 or self.widths[-1] != 1 or min(self.widths) < 1:
            raise ConfigError("widths", "the discriminator has 5 positive conv widths, the "
                                        f"last 1 (its score map); got {self.widths}")
        for name in ("kernel", "stride"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be >= 1, got {getattr(self, name)}")

    @property
    def min_input(self) -> int:
        return self.stride ** len(self.widths)

    def check_size(self, h: int, w: int) -> None:
        if min(h, w) < self.min_input:
            raise ValueError(f"discriminator input {h}x{w} smaller than minimum {self.min_input}")
        for _ in self.widths:  # a kernel above stride + 2 can still collapse a layer
            h, w = (kernels.conv_output_size(side, self.kernel, self.stride, 1) for side in (h, w))


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
            raise ConfigError("widths", f"widths must be positive, got {self.widths}")


@dataclass(frozen=True)
class NetworksConfig:
    """The ``networks`` config section: the widths of every net, defaulting
    to the specs' own. Channel and class counts come from the dataset."""

    segnet_widths: tuple[int, ...] = SegNetSpec.widths
    segnet_downsample: int = SegNetSpec.downsample
    disc_widths: tuple[int, ...] = DiscSpec.widths
    stylegen_widths: tuple[int, ...] = StyleGenSpec.widths
    stylegen_residual: bool = StyleGenSpec.residual

    def __post_init__(self):
        # build each spec once, so a bad width fails when the file is parsed
        for net, build in (("segnet", lambda: self.segnet_spec(SegNetSpec.class_count)),
                           ("disc", lambda: self.disc_spec(DiscSpec.in_channels)),
                           ("stylegen", self.stylegen_spec)):
            try:
                build()
            except ConfigError as exc:
                raise ConfigError(f"{net}_{exc.path}", exc.message) from None

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


def layer_shapes(spec) -> dict[str, tuple[int, int, int, int]]:
    """(kh, kw, c_in, c_out) of each conv of the net ``spec`` describes, by
    layer name in build order; each layer has a ``w`` and a ``b`` tensor."""
    k = spec.kernel if isinstance(spec, DiscSpec) else 3
    shapes, cin = {}, spec.in_channels
    for i, width in enumerate(spec.widths):
        shapes[f"conv{i}"] = (k, k, cin, width)
        cin = width
    if isinstance(spec, SegNetSpec):
        shapes["head"] = (1, 1, cin, spec.class_count)
    elif isinstance(spec, StyleGenSpec):
        shapes["out"] = (3, 3, cin, spec.in_channels)
    return shapes


def _build(spec, seed: int, stream: str, zero_layers=()) -> NetParams:
    rng = substream(seed, "init", stream)
    values: dict[str, np.ndarray] = {}
    for layer, (kh, kw, cin, cout) in layer_shapes(spec).items():
        if layer in zero_layers:
            values[f"{layer}/w"] = np.zeros((kh, kw, cin, cout), dtype=np.float32)
            values[f"{layer}/b"] = np.zeros(cout, dtype=np.float32)
        else:
            values[f"{layer}/w"], values[f"{layer}/b"] = _conv_pair(rng, kh, kw, cin, cout)
    return NetParams(spec, values)


def build_segnet(spec: SegNetSpec, seed: int) -> NetParams:
    return _build(spec, seed, "segnet")


def build_discriminator(spec: DiscSpec, seed: int) -> NetParams:
    return _build(spec, seed, "disc")


def build_style_generator(spec: StyleGenSpec, seed: int) -> NetParams:
    # a residual generator starts from a zero output conv, a no-op on the image
    return _build(spec, seed, "stylegen", ("out",) if spec.residual else ())


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


def segnet_head(g: Graph, pn: dict[str, int], features: int) -> int:
    """The 1x1 head and the softmax on the body output: the node of the
    class probabilities at body resolution."""
    logits = g.conv2d(features, pn["head/w"], bias=pn["head/b"], stride=1, pad=0,
                      name="seg.head")
    return g.softmax(logits, name="seg.softmax")


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
    probs = segnet_head(g, pn, features)
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
    remainder). Each pass is told its output node, so it holds only the
    activations a later node still reads. An empty stack still runs one
    empty slice, so its outputs have a shape. When ``batch`` is a view of a
    mapped file, the pages each slice read are released
    (``sgt.release_pages``) before the slice's output is yielded.
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
        out = forward(g, {x: chunk, **param_feeds(pn, net)}, node)[node]
        del chunk  # a resized slice is not held while the generator waits
        sgt.release_pages(batch)
        yield start, out


def collect(slices, n: int) -> list[np.ndarray]:
    """Write each ``(start, *outputs)`` slice of an n-image stack into one
    preallocated array per output, each of ``n`` rows, shaped and typed by
    the first slice."""
    stacks = None
    for start, *parts in slices:
        if stacks is None:
            stacks = [np.empty((n,) + p.shape[1:], dtype=p.dtype) for p in parts]
        for stack, part in zip(stacks, parts):
            stack[start:start + len(part)] = part
    return stacks


def infer_stack(net: NetParams, prefix: str, build, images: np.ndarray) -> np.ndarray:
    """The outputs of :func:`infer_in_slices` over an (h,w,c) image or an
    (n,h,w,c) stack, collected into one array."""
    batch, squeeze = _as_batch(images)
    (out,) = collect(infer_in_slices(net, prefix, build, batch), len(batch))
    return out[0] if squeeze else out


def _segnet_probs(g: Graph, spec: SegNetSpec, pn: dict[str, int], x: int) -> int:
    """The inference graph: the segmenter up to its body-resolution softmax."""
    spec.check_size(*g.shape(x)[1:3])
    return segnet_head(g, pn, segnet_body(g, spec, pn, x))


def label_slices(net: NetParams, images: np.ndarray):
    """Yield ``(start, labels)`` for each inference slice of an (n,h,w,c)
    stack: the uint8 argmax of :func:`predict_segmentation`'s probabilities
    for those images.

    The argmax is taken at body resolution and the labels are upsampled.
    Nearest upsampling copies each probability unchanged, so this is exact,
    ties included, and no full-resolution probabilities are made.
    """
    batch, _ = _as_batch(images)
    for start, probs in infer_in_slices(net, "seg", _segnet_probs, batch):
        labels = probs.argmax(axis=-1).astype(np.uint8)
        yield start, kernels.upsample_nearest(labels[..., None], net.spec.scale)[..., 0]


def _scale_stream(net: NetParams, batch: np.ndarray, s: float):
    """The inference slices of ``batch`` resized by ``s``, each side
    rounded to the segmenter's stride multiple: :func:`infer_in_slices`
    over them with their body-resolution probabilities, and the nearest
    indices ``(iy, ix)`` that take such a map straight to the batch's
    (h, w). The indices compose the stride's upsampling with the resize
    back, so taking rows ``iy`` and then columns ``ix`` copies the same
    values those two steps would."""
    spec: SegNetSpec = net.spec
    _, h, w, _ = batch.shape
    th = max(spec.scale, int(round(h * s / spec.scale)) * spec.scale)
    tw = max(spec.scale, int(round(w * s / spec.scale)) * spec.scale)
    iy = (np.arange(h) * th) // h // spec.scale
    ix = (np.arange(w) * tw) // w // spec.scale
    return infer_in_slices(net, "seg", _segnet_probs, batch, (th, tw)), (iy, ix)


def multi_scale_slices(net: NetParams, images: np.ndarray, scales: list[float]):
    """Yield ``(start, probs, labels)`` over an (n,h,w,c) stack, in order:
    the softmax maps averaged over resized copies of those images, and
    their uint8 argmax.

    Each scale runs :func:`infer_in_slices` at its scaled size, in the
    slices :func:`predict_segmentation` would run on the resized stack
    (14 images at 48x48, 8 at 64x64, 5 at 80x80), and only their
    body-resolution probabilities are held. The output comes in runs of
    at most ``INFER_PIXELS`` pixels at (h, w). For each run, every scale's
    stream advances until its held slices cover the run; the scales' maps
    are gathered and summed in scale order, then divided; and the slices
    that end inside the run are dropped. The result is bit-identical to
    averaging whole resized stacks. An empty stack is one empty run, which
    pulls each stream's one empty slice.
    """
    if not scales or any(s <= 0 for s in scales):
        raise ValueError(f"scales must be positive and non-empty, got {scales}")
    batch, _ = _as_batch(images)
    n, h, w, _ = batch.shape
    streams, gathers = zip(*(_scale_stream(net, batch, s) for s in scales))
    held = [[] for _ in scales]  # each scale's (start, probs) slices that reach past the last run
    run = max(1, INFER_PIXELS // (h * w))
    for a in range(0, max(n, 1), run):
        b = min(n, a + run)
        for k, (stream, (iy, ix), parts) in enumerate(zip(streams, gathers, held)):
            while not parts or parts[-1][0] + len(parts[-1][1]) < b:
                parts.append(next(stream))
            if k == 0:  # sum from +0, which keeps the first scale's values (>= +0) exactly
                total = np.zeros((b - a, h, w) + parts[0][1].shape[-1:], parts[0][1].dtype)
            for lo, probs in parts:
                i, j = max(a, lo), min(b, lo + len(probs))
                total[i - a:j - a] += probs[i - lo:j - lo].take(iy, axis=1).take(ix, axis=2)
            parts[:] = [(lo, p) for lo, p in parts if lo + len(p) > b]
        total /= np.float32(len(scales))
        yield a, total, total.argmax(axis=-1).astype(np.uint8)


def multi_scale_predict(
    net: NetParams, images: np.ndarray, scales: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax maps averaged over resized copies of an (h,w,c) image or an
    (n,h,w,c) stack, and their argmax labels: :func:`multi_scale_slices`
    collected into two arrays.

    Each scaled size is rounded to the segmenter's stride multiple; with
    ``scales=[1.0]`` this is exactly :func:`predict_segmentation`.
    """
    batch, squeeze = _as_batch(images)
    probs, labels = collect(multi_scale_slices(net, batch, scales), len(batch))
    return (probs[0], labels[0]) if squeeze else (probs, labels)


def predict_segmentation(net: NetParams, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities (n,h,w,classes) and argmax labels (n,h,w):
    :func:`multi_scale_predict` at the one scale 1.0, after checking that
    the segmenter's stride divides (h, w), so that no image is resized.

    Each inference slice's graph stops at the body-resolution softmax,
    and its probabilities are upsampled outside the graph, which copies the
    values the graph's own upsampling would. So a stack of at most one
    slice gives the whole-batch graph's output bit for bit. Otherwise only
    float rounding can move, because a BLAS matmul's per-row result may
    depend on the row count (here the 1x1 head's). The named tolerance
    against the whole-batch graph is 16 ulp per float32 probability, with
    identical argmax labels; on 200 stock images the largest move seen was
    14 ulp (2.4e-7).
    """
    batch, _ = _as_batch(images)
    net.spec.check_size(*batch.shape[1:3])
    return multi_scale_predict(net, images, [1.0])


def resize_nearest(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resize of (..., h, w, c); exact identity at same size.
    Rows are taken, then columns: two contiguous copies, where one 2-d
    fancy index gathers cell by cell."""
    h, w = arr.shape[-3], arr.shape[-2]
    iy = (np.arange(out_h) * h) // out_h
    ix = (np.arange(out_w) * w) // out_w
    return arr.take(iy, axis=-3).take(ix, axis=-2)


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


def l2_norm(v: np.ndarray) -> float:
    """The Euclidean norm of the 1-d ``v``, summed by numpy: BLAS's dot
    (``np.linalg.norm``) rounds differently at each thread count."""
    return math.sqrt(np.einsum("i,i->", v, v))


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
    nv = l2_norm(v)
    if nv == 0 or op.in_dim == 0:
        return 0.0
    v /= nv
    sigma = 0.0
    for _ in range(iters):
        u = op.matvec(v)
        su = l2_norm(u)
        if su == 0:
            return 0.0
        w = op.rmatvec(u / su)
        sw = l2_norm(w)
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
