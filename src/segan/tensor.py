"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Graph` is a static, topologically ordered list of operator nodes
built ahead of time; :func:`forward` evaluates it for a set of feeds (float
arrays keyed by input node id), and :func:`backward` accumulates
vector-Jacobian products from a scalar loss node back to the input leaves
it is asked for. The op set is what the networks and losses build.

Shapes are inferred and validated at build time, so mismatches surface when
the graph is assembled, not mid-training. Activation layout is channel-last
throughout; ``softmax`` always normalizes the last axis.

Activation gradients use the positive-side derivative at kinks (relu,
leaky_relu at 0; clip at its edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels


class GraphError(Exception):
    """Structural problem in a graph or in how it is being evaluated."""


class ShapeError(GraphError):
    """Operands fed to a node do not fit; message names the node."""


@dataclass
class Node:
    op: str
    inputs: tuple[int, ...]
    shape: tuple[int, ...]
    name: str
    attrs: dict = field(default_factory=dict)


def _normalize_axes(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(sorted(a % ndim for a in axis))
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate reduction axes {axis}")
    return axes


class Graph:
    """Static operator graph; node ids are topological by construction."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _label(self, idx: int) -> str:
        n = self.nodes[idx]
        return f"node {idx} ({n.op} '{n.name}')"

    def _push(self, op: str, inputs: tuple[int, ...], shape, name: str | None, **attrs) -> int:
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise GraphError(f"{op}: input id {i} does not exist yet")
        idx = len(self.nodes)
        self.nodes.append(Node(op, inputs, tuple(shape), name or f"{op}:{idx}", attrs))
        return idx

    def shape(self, idx: int) -> tuple[int, ...]:
        return self.nodes[idx].shape

    # -- leaves ------------------------------------------------------------

    def input(self, name: str, shape) -> int:
        return self._push("input", (), shape, name)

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int, name: str | None = None) -> int:
        sa, sb = self.shape(a), self.shape(b)
        if sa != sb:
            raise ShapeError(f"add '{name or 'add'}': operand shapes differ, {sa} vs {sb}")
        return self._push("add", (a, b), sa, name)

    def scalar_mul(self, a: int, value: float, name: str | None = None) -> int:
        return self._push("scalar_mul", (a,), self.shape(a), name, value=float(value))

    def scalar_add(self, a: int, value: float, name: str | None = None) -> int:
        return self._push("scalar_add", (a,), self.shape(a), name, value=float(value))

    # -- structure ---------------------------------------------------------

    def conv2d(
        self,
        x: int,
        w: int,
        bias: int | None = None,
        stride: int = 1,
        pad: int = 0,
        name: str | None = None,
    ) -> int:
        sx, sw = self.shape(x), self.shape(w)
        label = name or "conv2d"
        if len(sx) != 4 or len(sw) != 4:
            raise ShapeError(f"conv2d '{label}': need 4-d input/weight, got {sx} and {sw}")
        if sx[3] != sw[2]:
            raise ShapeError(
                f"conv2d '{label}': input channels {sx[3]} != weight channels {sw[2]}"
            )
        try:
            ho = kernels.conv_output_size(sx[1], sw[0], stride, pad)
            wo = kernels.conv_output_size(sx[2], sw[1], stride, pad)
        except ValueError as e:
            raise ShapeError(f"conv2d '{label}': {e}") from None
        inputs = (x, w)
        if bias is not None:
            sb = self.shape(bias)
            if sb != (sw[3],):
                raise ShapeError(f"conv2d '{label}': bias shape {sb} != ({sw[3]},)")
            inputs = (x, w, bias)
        return self._push(
            "conv2d", inputs, (sx[0], ho, wo, sw[3]), name, stride=stride, pad=pad
        )

    def upsample_nearest(self, x: int, factor: int, name: str | None = None) -> int:
        s = self.shape(x)
        if len(s) != 4:
            raise ShapeError(f"upsample '{name or 'upsample'}': need 4-d input, got {s}")
        out = (s[0], s[1] * factor, s[2] * factor, s[3])
        return self._push("upsample", (x,), out, name, factor=int(factor))

    # -- pointwise ---------------------------------------------------------

    def _unary(self, op: str, x: int, name, **attrs) -> int:
        return self._push(op, (x,), self.shape(x), name, **attrs)

    def relu(self, x: int, name: str | None = None) -> int:
        return self._unary("relu", x, name)

    def leaky_relu(self, x: int, slope: float = 0.2, name: str | None = None) -> int:
        return self._unary("leaky_relu", x, name, slope=float(slope))

    def sigmoid(self, x: int, name: str | None = None) -> int:
        return self._unary("sigmoid", x, name)

    def log(self, x: int, name: str | None = None) -> int:
        return self._unary("log", x, name)

    def square(self, x: int, name: str | None = None) -> int:
        return self._unary("square", x, name)

    def clip(self, x: int, lo: float, hi: float, name: str | None = None) -> int:
        if not lo < hi:
            raise ValueError(f"clip bounds must satisfy lo < hi, got [{lo}, {hi}]")
        return self._unary("clip", x, name, lo=float(lo), hi=float(hi))

    def softmax(self, x: int, name: str | None = None) -> int:
        s = self.shape(x)
        if len(s) < 1 or s[-1] < 1:
            raise ShapeError(f"softmax '{name or 'softmax'}': bad shape {s}")
        return self._unary("softmax", x, name)

    # -- reductions and selection -------------------------------------------

    def _reduce(self, op: str, x: int, axis, name) -> int:
        s = self.shape(x)
        axes = _normalize_axes(axis, len(s))
        if axes is None:
            out = ()
        else:
            out = tuple(d for i, d in enumerate(s) if i not in axes)
        return self._push(op, (x,), out, name, axes=axes)

    def reduce_mean(self, x: int, axis=None, name: str | None = None) -> int:
        return self._reduce("reduce_mean", x, axis, name)

    def reduce_sum(self, x: int, axis=None, name: str | None = None) -> int:
        return self._reduce("reduce_sum", x, axis, name)

    def onehot_gather(self, x: int, onehot: int, name: str | None = None) -> int:
        sx, so = self.shape(x), self.shape(onehot)
        if sx != so:
            raise ShapeError(
                f"onehot_gather '{name or 'gather'}': shapes differ, {sx} vs {so}"
            )
        return self._push("onehot_gather", (x, onehot), sx[:-1], name)


# ---------------------------------------------------------------------------
# evaluation


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax_last(x: np.ndarray) -> np.ndarray:
    # Over a short class axis, a running maximum of channel slices beats
    # numpy's last-axis reduction; max is exact, so the bits are the same.
    m = x[..., 0]
    for c in range(1, x.shape[-1]):
        m = np.maximum(m, x[..., c])
    e = np.exp(x - m[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def _eval_node(node: Node, args: list[np.ndarray]) -> np.ndarray:
    op, at = node.op, node.attrs
    if op == "add":
        return args[0] + args[1]
    if op == "scalar_mul":
        return args[0] * args[0].dtype.type(at["value"])
    if op == "scalar_add":
        return args[0] + args[0].dtype.type(at["value"])
    if op == "conv2d":
        out = kernels.conv2d_forward(args[0], args[1], at["stride"], at["pad"])
        if len(args) == 3:
            out = out + args[2]
        return out
    if op == "upsample":
        return kernels.upsample_nearest(args[0], at["factor"])
    if op == "relu":
        return np.maximum(args[0], 0)
    if op == "leaky_relu":
        x = args[0]
        return np.where(x >= 0, x, x.dtype.type(at["slope"]) * x)
    if op == "sigmoid":
        return _stable_sigmoid(args[0])
    if op == "log":
        return np.log(args[0])
    if op == "square":
        return np.square(args[0])
    if op == "clip":
        return np.clip(args[0], at["lo"], at["hi"])
    if op == "softmax":
        return _softmax_last(args[0])
    if op == "reduce_mean":
        return np.mean(args[0], axis=at["axes"])
    if op == "reduce_sum":
        return np.sum(args[0], axis=at["axes"])
    if op == "onehot_gather":
        return (args[0] * args[1]).sum(axis=-1)
    raise GraphError(f"unknown op {op!r}")


def forward(graph: Graph, feeds: dict[int, np.ndarray], read: int | None = None) -> list:
    """Evaluate every node; returns activations indexed by node id.

    ``read``, when given, is the one node the caller will read. Every other
    activation, feeds included, is then dropped once the last node that
    reads it has run, so the pass holds only live activations and the
    returned list is None everywhere but at ``read``. Training passes no
    ``read``: its backward sweep reads most activations."""
    input_ids = {i for i, n in enumerate(graph.nodes) if n.op == "input"}
    missing = input_ids - set(feeds)
    if missing:
        names = ", ".join(graph.nodes[i].name for i in sorted(missing))
        raise GraphError(f"missing feeds for inputs: {names}")
    extra = set(feeds) - input_ids
    if extra:
        raise GraphError(f"feeds given for non-input nodes: {sorted(extra)}")

    values: dict[int, np.ndarray] = {}
    for i, v in feeds.items():
        arr = np.asarray(v)
        if not np.issubdtype(arr.dtype, np.floating):
            raise GraphError(f"{graph._label(i)}: feeds must be float arrays, got {arr.dtype}")
        if arr.shape != graph.nodes[i].shape:
            raise ShapeError(
                f"{graph._label(i)}: feed shape {arr.shape} != declared {graph.nodes[i].shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise GraphError(f"{graph._label(i)}: feed contains non-finite values")
        values[i] = arr

    dead: dict[int, list[int]] = {}  # node id -> the ids it is the last reader of
    if read is not None:
        last = list(range(len(graph.nodes)))  # a node no other reads is dead once made
        for idx, node in enumerate(graph.nodes):
            for i in node.inputs:
                last[i] = idx
        for i, idx in enumerate(last):
            if i != read:
                dead.setdefault(idx, []).append(i)
    acts: list[np.ndarray | None] = []
    for idx, node in enumerate(graph.nodes):
        if node.op == "input":
            acts.append(values[idx])
        else:
            acts.append(_eval_node(node, [acts[i] for i in node.inputs]))
        for i in dead.get(idx, ()):
            acts[i] = None
    return acts


def _reduce_vjp(g: np.ndarray, in_shape: tuple[int, ...], axes) -> np.ndarray:
    if axes is None:
        return np.broadcast_to(g, in_shape)
    keep = tuple(1 if i in axes else d for i, d in enumerate(in_shape))
    return np.broadcast_to(np.asarray(g).reshape(keep), in_shape)


def _node_vjps(
    node: Node, acts, out: np.ndarray, grad: np.ndarray, want: list[bool]
) -> list[np.ndarray | None]:
    """Gradient contributions to each input of ``node``; None where not wanted.
    ``out`` is the node's forward value, which sigmoid and softmax reuse."""
    op, at = node.op, node.attrs
    args = [acts[i] for i in node.inputs]
    res: list[np.ndarray | None] = [None] * len(node.inputs)

    if op == "add":
        if want[0]:
            res[0] = grad
        if want[1]:
            res[1] = grad
    elif op == "scalar_mul":
        if want[0]:
            res[0] = grad * grad.dtype.type(at["value"])
    elif op == "scalar_add":
        if want[0]:
            res[0] = grad
    elif op == "conv2d":
        stride, pad = at["stride"], at["pad"]
        if want[0]:
            res[0] = kernels.conv2d_bwd_input(
                grad, args[1], (args[0].shape[1], args[0].shape[2]), stride, pad
            )
        if want[1]:
            res[1] = kernels.conv2d_bwd_weight(
                args[0], grad, (args[1].shape[0], args[1].shape[1]), stride, pad
            )
        if len(node.inputs) == 3 and want[2]:
            res[2] = grad.sum(axis=(0, 1, 2))
    elif op == "upsample":
        if want[0]:
            res[0] = kernels.upsample_nearest_bwd(grad, at["factor"])
    elif op == "relu":
        if want[0]:
            res[0] = grad * (args[0] >= 0)
    elif op == "leaky_relu":
        if want[0]:
            slope = args[0].dtype.type(at["slope"])
            res[0] = grad * np.where(args[0] >= 0, args[0].dtype.type(1), slope)
    elif op == "sigmoid":
        if want[0]:
            res[0] = grad * out * (1 - out)
    elif op == "log":
        if want[0]:
            res[0] = grad / args[0]
    elif op == "square":
        if want[0]:
            res[0] = 2 * args[0] * grad
    elif op == "clip":
        if want[0]:
            inside = (args[0] >= at["lo"]) & (args[0] <= at["hi"])
            res[0] = grad * inside
    elif op == "softmax":
        if want[0]:
            res[0] = out * (grad - (grad * out).sum(axis=-1, keepdims=True))
    elif op == "reduce_mean":
        if want[0]:
            in_shape = args[0].shape
            axes = at["axes"]
            count = args[0].size if axes is None else int(
                np.prod([in_shape[a] for a in axes])
            )
            res[0] = _reduce_vjp(grad, in_shape, axes) / count
    elif op == "reduce_sum":
        if want[0]:
            res[0] = _reduce_vjp(grad, args[0].shape, at["axes"])
    elif op == "onehot_gather":
        if want[0]:
            res[0] = grad[..., None] * args[1]
        if want[1]:
            res[1] = grad[..., None] * args[0]
    else:
        raise GraphError(f"unknown op {op!r}")
    return res


def backward(
    graph: Graph,
    loss: int,
    acts: list[np.ndarray],
    wrt: list[int],
) -> dict[int, np.ndarray]:
    """Accumulate d(loss)/d(leaf) for the input leaves ``wrt``.

    Gradients are returned keyed by node id. Subgraphs that do not lead to
    any requested leaf are skipped.
    """
    if acts[loss].size != 1:
        raise GraphError(
            f"{graph._label(loss)}: backward needs a scalar loss, shape is {acts[loss].shape}"
        )
    for i in wrt:
        if graph.nodes[i].op != "input":
            raise GraphError(f"{graph._label(i)}: gradients only flow to input leaves")

    # Nodes that can influence a requested leaf's gradient path.
    useful = set(wrt)
    for idx, node in enumerate(graph.nodes):
        if any(i in useful for i in node.inputs):
            useful.add(idx)

    dtype = acts[loss].dtype
    grads: dict[int, np.ndarray] = {loss: np.ones(acts[loss].shape, dtype=dtype)}
    for idx in range(loss, -1, -1):
        node = graph.nodes[idx]
        if idx not in grads or node.op == "input":
            continue
        grad = grads.pop(idx)  # a node's gradient is spent once its VJP runs
        want = [i in useful for i in node.inputs]
        if not any(want):
            continue
        for inp, contrib in zip(node.inputs, _node_vjps(node, acts, acts[idx], grad, want)):
            if contrib is None:
                continue
            grads[inp] = contrib if inp not in grads else grads[inp] + contrib

    out: dict[int, np.ndarray] = {}
    for i in wrt:
        g = grads.get(i)
        if g is None:
            g = np.zeros(graph.nodes[i].shape, dtype=dtype)
        out[i] = np.array(g, dtype=dtype)  # broadcast views become owned arrays
    return out

