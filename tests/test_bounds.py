"""Complexity and generalization bound calculator.

Closed forms are re-derived with independent in-test arithmetic; the
Rademacher closed form is cross-checked by grid-searching the entropy
integral it is supposed to minimize (``references.dudley_objective``); measured layer norms are checked
against dense SVDs.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from segan.bounds import (
    BoundsConfig,
    BoundSpec,
    bound_report,
    covering_bound,
    disc_layer_operators,
    gen_bound_from,
    generalization_bound,
    layer_radii,
    measure_discriminator,
    rademacher_bound,
)
from segan.networks import DiscSpec, build_discriminator, materialize, spectral_norm
from segan.utils import ConfigError

from references import dudley_objective


def _unit_spec(**kw):
    base = dict(s=(1.0,) * 5, b=(1.0,) * 5, rho=(1.0,) * 5, width=2, x_norm=1.0, epsilon=1.0,
                n=1, delta=0.05, phi=0.0)
    base.update(kw)
    return BoundSpec(**base)


# ---------------------------------------------------------------------------
# covering bound


def test_unit_spec_statement_value():
    log_cover, R = covering_bound(_unit_spec())
    want = math.log(8.0) * 125.0  # log(2*2^2) * (sum of five 1s) cubed
    assert log_cover == pytest.approx(want, rel=1e-12)
    assert R == pytest.approx(math.sqrt(want), rel=1e-12)


def test_unit_spec_proof_final_line_value():
    log_cover, _ = covering_bound(_unit_spec(), variant="proof-final-line")
    assert log_cover == pytest.approx(math.log(8.0) * 5.0, rel=1e-12)


def test_zero_reference_distance_zeroes_the_bound():
    spec = _unit_spec(b=(0.0,) * 5)
    for variant in ("statement", "proof-final-line"):
        log_cover, R = covering_bound(spec, variant)
        assert log_cover == 0.0 and R == 0.0


def test_joint_weight_scaling_raises_bound_by_c_to_2L():
    # scaling every s_i and b_i by c leaves b/s fixed and multiplies
    # (prod s)^2 by c^(2L)
    base, _ = covering_bound(_unit_spec())
    c = 2.0
    scaled, _ = covering_bound(_unit_spec(s=(c,) * 5, b=(c,) * 5))
    assert scaled == pytest.approx(base * c**10, rel=1e-9)


def test_r_squared_identity_and_epsilon_scaling():
    spec = _unit_spec(epsilon=0.3)
    log_cover, R = covering_bound(spec)
    assert log_cover == pytest.approx(R**2 / spec.epsilon**2, rel=1e-12)
    # log_cover scales as 1/eps^2, so R is epsilon-invariant here
    _, R_unit = covering_bound(_unit_spec())
    assert R == pytest.approx(R_unit, rel=1e-12)


def test_covering_bound_monotone_in_inputs():
    base, _ = covering_bound(_unit_spec())
    assert covering_bound(_unit_spec(x_norm=2.0))[0] > base
    assert covering_bound(_unit_spec(width=64))[0] > base
    assert covering_bound(_unit_spec(b=(2.0,) * 5))[0] > base
    assert covering_bound(_unit_spec(epsilon=2.0))[0] < base


def test_covering_bound_argument_validation():
    with pytest.raises(ValueError, match="variant"):
        covering_bound(_unit_spec(), variant="improved")
    with pytest.raises(ValueError, match="epsilon"):
        covering_bound(_unit_spec(epsilon=0.0))


def test_bound_spec_validation():
    with pytest.raises(ValueError, match="equal-length"):
        _unit_spec(s=(1.0,), b=(1.0, 1.0), rho=(1.0,))
    with pytest.raises(ValueError, match="spectral"):
        _unit_spec(s=(0.0,) * 5)
    with pytest.raises(ValueError, match=">= 0"):
        _unit_spec(b=(-1.0,) * 5)
    with pytest.raises(ValueError, match="width"):
        _unit_spec(width=0)
    with pytest.raises(ValueError, match="delta"):
        _unit_spec(delta=0.0)
    with pytest.raises(ValueError, match="sample size"):
        _unit_spec(n=0)


# ---------------------------------------------------------------------------
# radius allocation


def test_homogeneous_layers_split_evenly():
    rad = layer_radii(_unit_spec())
    np.testing.assert_allclose(rad.alphas, 0.2)
    assert not rad.degenerate


def test_alphas_sum_to_one_for_random_specs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        spec = _unit_spec(
            s=tuple(rng.uniform(0.5, 3.0, 5)),
            b=tuple(rng.uniform(0.1, 2.0, 5)),
            rho=tuple(rng.uniform(0.5, 2.0, 5)),
        )
        rad = layer_radii(spec)
        assert sum(rad.alphas) == pytest.approx(1.0, rel=1e-12)
        assert all(r > 0 for r in rad.radii)


def test_radii_recompose_to_the_total_radius():
    # eps_i * rho_i * prod_{j>i} rho_j s_j = alpha_i * eps, so the weighted
    # recomposition must give back eps exactly
    rng = np.random.default_rng(1)
    spec = _unit_spec(
        s=tuple(rng.uniform(0.5, 3.0, 5)),
        b=tuple(rng.uniform(0.1, 2.0, 5)),
        rho=tuple(rng.uniform(0.5, 2.0, 5)),
        epsilon=0.7,
    )
    rad = layer_radii(spec)
    total = 0.0
    for i in range(5):
        tail = 1.0
        for j in range(i + 1, 5):
            tail *= spec.rho[j] * spec.s[j]
        total += rad.radii[i] * spec.rho[i] * tail
    assert total == pytest.approx(0.7, rel=1e-9)


def test_all_zero_b_falls_back_to_uniform_and_flags():
    rad = layer_radii(_unit_spec(b=(0.0,) * 5))
    assert rad.degenerate
    np.testing.assert_allclose(rad.alphas, 0.2)


def test_layer_radii_override_radius():
    spec = _unit_spec()
    rad1 = layer_radii(replace(spec, epsilon=1.0))
    rad2 = layer_radii(replace(spec, epsilon=2.0))
    np.testing.assert_allclose(np.array(rad2.radii), 2.0 * np.array(rad1.radii), rtol=1e-12)
    with pytest.raises(ValueError):
        layer_radii(replace(spec, epsilon=0.0))


# ---------------------------------------------------------------------------
# Rademacher closed form


def test_boundary_value_is_exactly_four():
    assert rademacher_bound(3.0, 9) == 4.0
    assert rademacher_bound(100.0, 9) == 4.0
    # at the boundary the pinned objective value is 4 regardless of R:
    # dudley(sqrt(n), R^2, n) = 4 since the log term vanishes
    assert dudley_objective(3.0, 9.0, 9) == pytest.approx(4.0, rel=1e-12)


def test_closed_form_hand_value():
    want = (12.0 * 1.0 / 100.0) * (1.0 + math.log(100.0 / 3.0))
    assert rademacher_bound(1.0, 100) == pytest.approx(want, rel=1e-12)


def test_closed_form_equals_entropy_integral_minimum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        R = float(rng.uniform(0.5, 20.0))
        n = int(rng.integers(int(3 * R) + 2, 5000))
        alpha_star = 3.0 * R / math.sqrt(n)
        got = rademacher_bound(R, n)
        # closed form equals the objective at its stationary point
        assert got == pytest.approx(dudley_objective(alpha_star, R * R, n), rel=1e-12)
        # and no grid point beats it
        grid = np.linspace(1e-6, math.sqrt(n), 400)
        vals = [dudley_objective(a, R * R, n) for a in grid]
        assert got <= min(vals) + 1e-9
        assert min(vals) <= got * 1.01


def test_bound_decreases_in_sample_size():
    vals = [rademacher_bound(2.0, n) for n in (7, 10, 100, 1000, 10**6)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_rademacher_and_dudley_argument_validation():
    with pytest.raises(ValueError):
        rademacher_bound(0.0, 10)
    with pytest.raises(ValueError):
        rademacher_bound(1.0, 0)
    with pytest.raises(ValueError):
        dudley_objective(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        dudley_objective(4.0, 1.0, 9)  # alpha > sqrt(n)


# ---------------------------------------------------------------------------
# generalization bound


def test_gen_bound_boundary_hand_value():
    # n = 3R and delta = 1: complexity (24*3/9)(1+log 1) = 8, concentration 0
    assert gen_bound_from(3.0, 9, out_bound=1.0, delta=1.0, phi=0.0) == pytest.approx(
        8.0, rel=1e-12
    )


def test_gen_bound_offset_is_additive():
    base = gen_bound_from(2.0, 100, 1.0, 0.05, 0.0)
    assert gen_bound_from(2.0, 100, 1.0, 0.05, 0.37) == pytest.approx(
        base + 0.37, rel=1e-12
    )


def test_gen_bound_zero_complexity_class():
    got = gen_bound_from(0.0, 50, 1.0, 0.05, 0.0)
    want = 2.0 * math.sqrt(2.0 * math.log(20.0) / 50.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_gen_bound_rejects_small_samples():
    with pytest.raises(ValueError, match="below 3R"):
        gen_bound_from(10.0, 29, 1.0, 0.05, 0.0)


def test_concentration_term_dominates_at_large_n():
    n = 10**8
    got = gen_bound_from(1.0, n, 1.0, 0.05, 0.0)
    limit = 2.0 * math.sqrt(2.0 * math.log(20.0))
    assert got * math.sqrt(n) == pytest.approx(limit, rel=0.05)


def test_gen_bound_monotonicity():
    assert gen_bound_from(2.0, 1000, 1.0, 0.05, 0.0) < gen_bound_from(
        4.0, 1000, 1.0, 0.05, 0.0
    )
    assert gen_bound_from(2.0, 10000, 1.0, 0.05, 0.0) < gen_bound_from(
        2.0, 1000, 1.0, 0.05, 0.0
    )
    assert gen_bound_from(2.0, 1000, 1.0, 0.01, 0.0) > gen_bound_from(
        2.0, 1000, 1.0, 0.1, 0.0
    )


def test_bound_report_is_internally_consistent():
    spec = _unit_spec(n=100, delta=0.05)
    report = bound_report(spec)
    assert report.log_cover == pytest.approx(report.R**2 / spec.epsilon**2, rel=1e-12)
    assert report.rademacher == rademacher_bound(report.R, 100)
    assert report.gen_bound == generalization_bound(spec)
    assert report.variant == "statement"
    assert len(report.radii) == 5
    d = report.to_dict()
    assert set(d) == {"log_cover", "R", "radii", "rademacher", "gen_bound", "variant"}


# ---------------------------------------------------------------------------
# measuring a discriminator


def _tiny_disc(seed=0):
    spec = DiscSpec(in_channels=1, widths=(2, 2, 2, 2, 1), kernel=4, stride=2)
    return build_discriminator(spec, seed=seed)


def test_measure_shapes_norms_and_dims():
    disc = _tiny_disc()
    rng = np.random.default_rng(3)
    batch = rng.random((3, 32, 32, 1))
    spec = measure_discriminator(disc, batch, BoundsConfig(n=3))
    assert spec.layers == 5
    assert spec.x_norm == pytest.approx(float(np.linalg.norm(batch.ravel())), rel=1e-12)
    assert spec.rho == (1.0,) * 5
    # width is the largest flattened dimension including the input
    ops = disc_layer_operators(disc, (32, 32))
    assert spec.width == max([32 * 32 * 1] + [op.out_dim for op in ops])
    # the sample count is the config's, not the batch size
    assert spec.n == 3
    assert measure_discriminator(disc, batch, BoundsConfig()).n == BoundsConfig().n


def test_zero_policy_makes_b_equal_s():
    disc = _tiny_disc()
    batch = np.random.default_rng(4).random((2, 32, 32, 1))
    spec = measure_discriminator(disc, batch, BoundsConfig(m_policy="zero"))
    assert spec.b == spec.s


def test_power_iterations_per_layer_by_policy(monkeypatch):
    # zero policy: one iteration per layer gives both s_i and b_i;
    # init policy: a second one on A_i - M_i
    calls = []

    def counting(op, **kw):
        calls.append(op)
        return spectral_norm(op, **kw)

    monkeypatch.setattr("segan.bounds.spectral_norm", counting)
    disc = _tiny_disc(seed=11)
    batch = np.random.default_rng(4).random((1, 32, 32, 1))
    L = len(disc.spec.widths)
    measure_discriminator(disc, batch, BoundsConfig(m_policy="zero", power_iters=5))
    assert len(calls) == L
    calls.clear()
    measure_discriminator(disc, batch, BoundsConfig(m_policy="init", power_iters=5), 11)
    assert len(calls) == 2 * L


def test_init_policy_at_initialization_gives_zero_complexity():
    disc = _tiny_disc(seed=11)
    batch = np.random.default_rng(5).random((2, 32, 32, 1))
    spec = measure_discriminator(disc, batch, BoundsConfig(m_policy="init", n=1000), 11)
    np.testing.assert_allclose(spec.b, 0.0, atol=1e-12)
    log_cover, R = covering_bound(spec)
    assert log_cover == 0.0 and R == 0.0
    report = bound_report(spec)
    assert report.rademacher == 0.0
    # only concentration (+phi) remains
    want = 2.0 * math.sqrt(2.0 * math.log(1 / spec.delta) / spec.n)
    assert report.gen_bound == pytest.approx(want, rel=1e-12)


def test_init_policy_requires_seed():
    disc = _tiny_disc()
    with pytest.raises(ValueError, match="init_seed"):
        measure_discriminator(disc, np.zeros((1, 32, 32, 1)), BoundsConfig(m_policy="init"))
    with pytest.raises(ConfigError, match="m_policy"):
        BoundsConfig(m_policy="svd")
    with pytest.raises(ValueError, match="input batch"):
        measure_discriminator(disc, np.zeros((1, 32, 32, 3)), BoundsConfig())


def test_measured_first_layer_norm_matches_dense_svd():
    disc = _tiny_disc(seed=7)
    batch = np.random.default_rng(6).random((1, 32, 32, 1))
    # this operator's top two singular values are close; give the power
    # iteration enough steps to separate them
    spec = measure_discriminator(disc, batch, BoundsConfig(power_iters=2000))
    op = disc_layer_operators(disc, (32, 32))[0]
    dense = materialize(op)
    want = np.linalg.svd(dense, compute_uv=False)[0]
    assert spec.s[0] == pytest.approx(want, abs=1e-5)


def test_one_by_one_conv_norm_is_scalar_magnitude():
    spec = DiscSpec(in_channels=1, widths=(1, 1, 1, 1, 1), kernel=1, stride=1)
    disc = build_discriminator(spec, seed=0)
    scalars = [3.0, -2.0, 0.5, 1.5, -1.0]
    for i, c in enumerate(scalars):
        disc.values[f"conv{i}/w"][...] = c
    measured = measure_discriminator(disc, np.random.default_rng(7).random((1, 4, 4, 1)),
                                     BoundsConfig())
    np.testing.assert_allclose(measured.s, np.abs(scalars), rtol=1e-9)


def test_tight_sigmoid_sets_last_lipschitz_constant():
    disc = _tiny_disc()
    batch = np.random.default_rng(8).random((1, 32, 32, 1))
    spec = measure_discriminator(disc, batch, BoundsConfig(tight_sigmoid=True))
    assert spec.rho == (1.0, 1.0, 1.0, 1.0, 0.25)
