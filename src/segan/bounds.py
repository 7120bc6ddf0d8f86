"""Capacity bounds for the output-space discriminator.

The chain implemented here: a covering-number bound for the discriminator
class (log cover <= R^2/eps^2), the per-layer cover radius allocation behind
it, a Dudley-integral Rademacher bound with its closed-form minimizer, and
the resulting generalization bound on the distribution-alignment gap.

Naming maps to the usual math: ``s`` spectral norms, ``b`` distances to the
reference maps, ``rho`` activation Lipschitz constants, ``width`` the
largest feature dimension W, ``x_norm`` the Frobenius norm of the input
batch, ``n`` the sample count, ``out_bound`` the output range bound,
``delta`` the confidence level, ``phi`` the optimization slack.

Two readings of the covering bound circulate in the derivation this follows:
the statement form (sum of (b_i/s_i)^{2/3}, cubed) and the proof's final
line (sum of b_i^2/s_i^2). The statement form is the default; the other is
available as ``variant="proof-final-line"``. Likewise the Dudley objective
4a/sqrt(n) + (12 sqrt(R)/n) log(sqrt(n)/a) carries sqrt(R) where the quoted
closed form carries R; :func:`rademacher_bound` is the closed form, which is
the objective's minimum with R^2 in place of R (the tests check it against
a grid search of the objective).

:func:`measure_discriminator` takes the ``bounds`` config section,
:class:`BoundsConfig`, whole: every input that is not the net or its batch.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .networks import ConvOperator, DiscSpec, NetParams, build_discriminator, l2_norm, spectral_norm
from .utils import ConfigError, record_to_dict

VARIANTS = ("statement", "proof-final-line")


@dataclass
class BoundsConfig:
    """The ``bounds`` config section: the inputs of the discriminator
    complexity measurement and bound chain."""

    epsilon: float = 1.0
    n: int = 10**8  # large enough that n >= 3R for desk-scale discriminators
    delta: float = 0.05
    phi: float = 0.0
    m_policy: str = "zero"
    tight_sigmoid: bool = False
    power_iters: int = 200
    batch_count: int = 8

    def __post_init__(self):
        if self.m_policy not in ("zero", "init"):
            raise ConfigError("m_policy", f"expected 'zero' or 'init', got {self.m_policy!r}")
        if not 0 < self.delta <= 1:
            raise ConfigError("delta", f"must be in (0, 1], got {self.delta}")
        if self.epsilon <= 0:
            raise ConfigError("epsilon", f"must be > 0, got {self.epsilon}")
        if self.n < 1:
            raise ConfigError("n", f"must be >= 1, got {self.n}")
        if self.batch_count < 1:
            raise ConfigError("batch_count", f"must be >= 1, got {self.batch_count}")
        if self.power_iters < 1:
            raise ConfigError("power_iters", f"must be >= 1, got {self.power_iters}")


@dataclass(kw_only=True)
class BoundSpec:
    s: tuple[float, ...]
    b: tuple[float, ...]
    rho: tuple[float, ...]
    width: int
    x_norm: float
    epsilon: float
    n: int
    out_bound: float = 1.0
    delta: float
    phi: float

    def __post_init__(self):
        self.s = tuple(float(v) for v in self.s)
        self.b = tuple(float(v) for v in self.b)
        self.rho = tuple(float(v) for v in self.rho)
        if not (len(self.s) == len(self.b) == len(self.rho)) or not self.s:
            raise ValueError(
                f"s, b, rho must be equal-length and non-empty, got "
                f"{len(self.s)}/{len(self.b)}/{len(self.rho)}"
            )
        if any(v <= 0 for v in self.s):
            raise ValueError(f"spectral norms must be > 0, got {self.s}")
        if any(v <= 0 for v in self.rho):
            raise ValueError(f"Lipschitz constants must be > 0, got {self.rho}")
        if any(v < 0 for v in self.b):
            raise ValueError(f"reference distances must be >= 0, got {self.b}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.x_norm < 0 or self.epsilon < 0 or self.out_bound < 0 or self.phi < 0:
            raise ValueError("x_norm, epsilon, out_bound, phi must all be >= 0")
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        if not 0 < self.delta <= 1:
            raise ValueError(f"confidence delta must be in (0, 1], got {self.delta}")

    @property
    def layers(self) -> int:
        return len(self.s)

    def to_dict(self) -> dict:
        return record_to_dict(self)


@dataclass
class LayerRadii:
    radii: tuple[float, ...]
    alphas: tuple[float, ...]
    degenerate: bool  # all b_i were zero; uniform fallback in effect


@dataclass
class BoundReport:
    log_cover: float
    R: float
    radii: tuple[float, ...]
    rademacher: float
    gen_bound: float
    variant: str = "statement"

    def to_dict(self) -> dict:
        return record_to_dict(self)


def covering_bound(spec: BoundSpec, variant: str = "statement") -> tuple[float, float]:
    """log covering number bound and the complexity constant R.

    statement form:
        log_cover = log(2 W^2) * ||X||^2/eps^2 * (prod rho_i prod s_i)^2
                    * (sum (b_i/s_i)^{2/3})^3
    R = eps * sqrt(log_cover), so log_cover = R^2/eps^2 holds exactly.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if spec.epsilon <= 0:
        raise ValueError(f"cover radius epsilon must be > 0, got {spec.epsilon}")
    ratios = np.array(spec.b, dtype=np.float64) / np.array(spec.s, dtype=np.float64)
    if variant == "statement":
        mix = float(np.sum(ratios ** (2.0 / 3.0)) ** 3)
    else:
        mix = float(np.sum(ratios**2))
    lead = math.log(2 * spec.width**2) * spec.x_norm**2 / spec.epsilon**2
    gain = (np.prod(np.array(spec.rho)) * np.prod(np.array(spec.s))) ** 2
    log_cover = float(lead * gain * mix)
    return log_cover, spec.epsilon * math.sqrt(log_cover)


def layer_radii(spec: BoundSpec) -> LayerRadii:
    """Split the cover radius ``spec.epsilon`` across layers.

    eps_i = alpha_i * eps / (rho_i * prod_{j>i} rho_j s_j), with weights
    alpha_i proportional to (b_i/s_i)^{2/3}. When every b_i is zero the
    weights are undefined; a uniform split is returned with ``degenerate``
    set.
    """
    eps = spec.epsilon
    if eps <= 0:
        raise ValueError(f"cover radius must be > 0, got {eps}")
    L = spec.layers
    ratios = np.array(spec.b) / np.array(spec.s)
    raw = ratios ** (2.0 / 3.0)
    total = raw.sum()
    degenerate = total == 0
    alphas = np.full(L, 1.0 / L) if degenerate else raw / total
    radii = []
    for i in range(L):
        tail = 1.0
        for j in range(i + 1, L):
            tail *= spec.rho[j] * spec.s[j]
        radii.append(float(alphas[i] * eps / (spec.rho[i] * tail)))
    return LayerRadii(tuple(radii), tuple(float(a) for a in alphas), bool(degenerate))


def rademacher_bound(R: float, n: int) -> float:
    """Rademacher complexity bound for the discriminator class.

    (12R/n)(1 + log(n/3R)) for n > 3R. At or below n = 3R the radius
    allocation pins alpha to the boundary sqrt(n), where the objective is
    exactly 4 regardless of R (the integral term vanishes).
    """
    if R <= 0:
        raise ValueError(f"R must be > 0, got {R}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n <= 3 * R:
        return 4.0
    return (12.0 * R / n) * (1.0 + math.log(n / (3.0 * R)))


def gen_bound_from(R: float, n: int, out_bound: float, delta: float, phi: float) -> float:
    """24R/n (1 + log(n/3R)) + 2 Delta sqrt(2 log(1/delta)/n) + phi.

    Valid for n >= 3R (at the boundary the log term is zero); R = 0 (a
    single-point class) zeroes the complexity term.
    """
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    if not 0 < delta <= 1:
        raise ValueError(f"confidence delta must be in (0, 1], got {delta}")
    if R > 0 and n < 3 * R:
        raise ValueError(
            f"sample size n={n} below 3R={3 * R:.3g}; closed form not applicable"
        )
    complexity = 0.0 if R == 0 else (24.0 * R / n) * (1.0 + math.log(n / (3.0 * R)))
    concentration = 2.0 * out_bound * math.sqrt(2.0 * math.log(1.0 / delta) / n)
    return complexity + concentration + phi


def generalization_bound(spec: BoundSpec, variant: str = "statement") -> float:
    """High-probability bound on the alignment gap for a measured spec."""
    _, R = covering_bound(spec, variant)
    return gen_bound_from(R, spec.n, spec.out_bound, spec.delta, spec.phi)


def bound_report(spec: BoundSpec, variant: str = "statement") -> BoundReport:
    log_cover, R = covering_bound(spec, variant)
    rad = rademacher_bound(R, spec.n) if R > 0 else 0.0
    return BoundReport(
        log_cover=log_cover,
        R=R,
        radii=layer_radii(spec).radii,
        rademacher=rad,
        gen_bound=generalization_bound(spec, variant),
        variant=variant,
    )


# ---------------------------------------------------------------------------
# measuring a trained discriminator


def disc_layer_operators(disc: NetParams, input_hw: tuple[int, int]) -> list[ConvOperator]:
    """One linear operator per conv layer at its actual feature-map size.
    Biases shift, not stretch, so they do not enter the operators."""
    spec: DiscSpec = disc.spec
    ops = []
    h, w = input_hw
    for i in range(len(spec.widths)):
        weight = disc.values[f"conv{i}/w"]
        ops.append(ConvOperator(weight, (h, w), spec.stride, pad=1))
        h = ops[-1].out_shape[1]
        w = ops[-1].out_shape[2]
    return ops


def measure_discriminator(
    disc: NetParams,
    input_batch: np.ndarray,
    bounds: BoundsConfig,
    init_seed: int | None = None,
) -> BoundSpec:
    """Extract a BoundSpec from a trained discriminator and an input batch.

    s_i is the spectral norm of layer i's conv operator at its feature-map
    size, after ``bounds.power_iters`` power iterations; b_i the spectral
    norm of (A_i - M_i) with M_i all-zero (``m_policy="zero"``) or the
    seeded initialization snapshot (``m_policy="init"``, regenerated from
    ``init_seed``). Activation Lipschitz constants are 1 for leaky-relu; the
    final sigmoid read-out is 1 (or 1/4 with ``tight_sigmoid``). The input
    norm is the Frobenius norm of the whole batch, and the output bound is 1
    for sigmoid scores. The cover radius, sample count, confidence and
    slack are those of ``bounds``.
    """
    batch = np.asarray(input_batch, dtype=np.float64)
    if batch.ndim != 4 or batch.shape[3] != disc.spec.in_channels:
        raise ValueError(
            f"input batch must be (n, h, w, {disc.spec.in_channels}), got {batch.shape}"
        )
    spec: DiscSpec = disc.spec
    reference = None
    if bounds.m_policy == "init":
        if init_seed is None:
            raise ValueError("m_policy='init' needs the builder seed (init_seed)")
        reference = build_discriminator(spec, init_seed)

    ops = disc_layer_operators(disc, (batch.shape[1], batch.shape[2]))
    s, b = [], []
    for i, op in enumerate(ops):
        sigma = spectral_norm(op, iters=bounds.power_iters)
        s.append(max(sigma, 1e-12))
        if reference is None:
            # A_i - 0 is A_i, and the seeded iteration would repeat exactly
            b.append(sigma)
            continue
        diff = disc.values[f"conv{i}/w"] - reference.values[f"conv{i}/w"]
        diff_op = ConvOperator(diff, (op.in_shape[1], op.in_shape[2]), spec.stride, pad=1)
        b.append(spectral_norm(diff_op, iters=bounds.power_iters))

    rho = [1.0] * (len(ops) - 1) + [0.25 if bounds.tight_sigmoid else 1.0]
    dims = [int(np.prod(batch.shape[1:]))] + [op.out_dim for op in ops]
    return BoundSpec(
        s=tuple(s),
        b=tuple(b),
        rho=tuple(rho),
        width=max(dims),
        x_norm=l2_norm(batch.ravel()),
        epsilon=bounds.epsilon,
        n=bounds.n,
        delta=bounds.delta,
        phi=bounds.phi,
    )
