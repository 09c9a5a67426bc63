"""Distribution kernel tests: exact values, normalization, CDF and sampler consistency."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mixprior import Dirichlet, Gamma, InvGamma, NormalPrec, NormalVar
from mixprior.verify import ks_critical_value, ks_statistic

SEED = 20260810


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize("bad", [
    lambda: NormalVar(0.0, 0.0),
    lambda: NormalVar(0.0, -1.0),
    lambda: NormalVar(math.nan, 1.0),
    lambda: NormalPrec(0.0, 0.0),
    lambda: Gamma(0.0, 1.0),
    lambda: Gamma(1.0, -2.0),
    lambda: InvGamma(-1.0, 1.0),
    lambda: InvGamma(1.0, 0.0),
    lambda: Dirichlet((1.0,)),
    lambda: Dirichlet((1.0, 0.0)),
    lambda: Dirichlet((1.0, -3.0, 2.0)),
])
def test_invalid_hyperparameters_are_rejected(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize("d", [(1.0, 2.5), [2, 3, 4], (True, 1.5), [],
                               [1.0], [1.0, 0.0], (1.0, -3.0, 2.0), [1.0, math.nan],
                               [1.0, math.inf], [1, 10**400]])
def test_dirichlet_list_route_matches_the_array_route(d):
    # a plain list or tuple of numbers is validated without numpy; an array
    # takes the numpy route, with the same result or the same error
    def build(value):
        try:
            return Dirichlet(value).d
        except (ValueError, OverflowError) as err:
            return type(err), str(err)

    got = build(d)
    assert got == build(np.asarray(d, dtype=object))
    if isinstance(got, tuple) and got and isinstance(got[0], float):
        assert got == build(np.asarray(d, dtype=float))
        assert all(type(v) is float for v in got)


# ---------------------------------------------------------------------------
# log_pdf


def test_standard_normal_mode():
    assert NormalVar(0.0, 1.0).log_pdf(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-15)


def test_gamma_shape_one_is_exponential_at_origin():
    # pdf -> 1 as x -> 0+ for the unit exponential
    assert math.exp(Gamma(1.0, 1.0).log_pdf(1e-12)) == pytest.approx(1.0, abs=1e-9)


def test_invgamma_hand_evaluated_point():
    # (1/Gamma(2)) * 1^{-3} * e^{-1} at x=1 with a=2, b=1
    assert InvGamma(2.0, 1.0).log_pdf(1.0) == pytest.approx(-1.0, abs=1e-14)


def test_out_of_support_raises():
    with pytest.raises(ValueError):
        Gamma(2.0, 1.0).log_pdf(0.0)
    with pytest.raises(ValueError):
        InvGamma(2.0, 1.0).log_pdf(-1.0)
    with pytest.raises(ValueError):
        Dirichlet((1.0, 1.0)).log_pdf((0.7, 0.7))


@settings(max_examples=200, deadline=None)
@given(m=st.floats(-50, 50), v=st.floats(1e-6, 1e6), x=st.floats(-100, 100))
def test_variance_and_precision_forms_agree(m, v, x):
    a = NormalVar(m, v).log_pdf(x)
    b = NormalPrec(m, 1.0 / v).log_pdf(x)
    assert a == pytest.approx(b, abs=1e-12, rel=1e-12)


def test_dirichlet_log_pdf_matches_beta_reduction():
    # K=2 dirichlet is a beta density in the first coordinate
    d = Dirichlet((2.5, 4.0))
    x = 0.3
    beta_log = (math.lgamma(6.5) - math.lgamma(2.5) - math.lgamma(4.0)
                + 1.5 * math.log(x) + 3.0 * math.log(1 - x))
    assert d.log_pdf((x, 1 - x)) == pytest.approx(beta_log, abs=1e-12)


# ---------------------------------------------------------------------------
# normalization (quadrature oracle)


def _scalar_cases(rng, n):
    for _ in range(n):
        yield NormalVar(float(rng.uniform(-5, 5)), float(rng.uniform(0.05, 20.0)))
        yield NormalPrec(float(rng.uniform(-5, 5)), float(rng.uniform(0.05, 20.0)))
        yield Gamma(float(rng.uniform(0.4, 10.0)), float(rng.uniform(0.1, 5.0)))
        yield InvGamma(float(rng.uniform(0.4, 10.0)), float(rng.uniform(0.1, 5.0)))


def test_scalar_densities_integrate_to_one():
    rng = np.random.default_rng(SEED)
    for dist in _scalar_cases(rng, 20):
        lo, hi = dist.support
        mass, _ = integrate.quad(lambda x: math.exp(dist.log_pdf(x)), lo, hi, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8), dist


def test_dirichlet_density_integrates_to_one():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(15):
        d = Dirichlet((float(rng.uniform(1.0, 8.0)), float(rng.uniform(1.0, 8.0))))
        mass, _ = integrate.quad(lambda x: math.exp(d.log_pdf((x, 1 - x))), 1e-12, 1 - 1e-12)
        assert mass == pytest.approx(1.0, abs=1e-8), d
    for _ in range(5):
        d = Dirichlet(tuple(float(v) for v in rng.uniform(1.0, 6.0, size=3)))
        mass, _ = integrate.dblquad(
            lambda y, x: math.exp(d.log_pdf((x, y, 1 - x - y))),
            1e-10, 1 - 2e-10, lambda x: 1e-10, lambda x: 1 - x - 1e-10,
            epsabs=1e-10,
        )
        assert mass == pytest.approx(1.0, abs=1e-7), d


# ---------------------------------------------------------------------------
# cdf


def test_cdf_trivial_points():
    assert NormalVar(0.0, 1.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert Gamma(1.0, 1.0).cdf(math.log(2.0)) == pytest.approx(0.5, abs=1e-14)
    assert InvGamma(2.0, 1.0).cdf(1e12) == pytest.approx(1.0, abs=1e-10)
    assert InvGamma(2.0, 1.0).cdf(0.0) == 0.0
    with pytest.raises(NotImplementedError):
        Dirichlet((1.0, 1.0)).cdf(0.5)


def test_cdf_is_monotone():
    rng = np.random.default_rng(SEED + 2)
    for dist in _scalar_cases(rng, 3):
        lo = dist.support[0]
        xs = np.linspace(lo + 0.01 if lo == 0.0 else -30.0, 30.0, 400)
        assert np.all(np.diff(dist.cdf(xs)) >= -1e-13), dist


def test_cdf_derivative_matches_pdf():
    rng = np.random.default_rng(SEED + 3)
    for dist in _scalar_cases(rng, 5):
        center = dist.mean() if not isinstance(dist, InvGamma) else 1.0 / dist.b_scale
        for shift in (-0.4, 0.0, 0.9):
            x = center + shift * abs(center or 1.0)
            if dist.support[0] == 0.0 and x <= 0.01:
                continue
            h = 1e-5 * max(1.0, abs(x))
            deriv = (dist.cdf(x + h) - dist.cdf(x - h)) / (2 * h)
            pdf = math.exp(dist.log_pdf(x))
            if pdf < 1e-12:
                continue
            assert deriv == pytest.approx(pdf, rel=1e-6), (dist, x)


# ---------------------------------------------------------------------------
# sampling


def test_vanishing_variance_concentrates():
    rng = np.random.default_rng(SEED + 4)
    draws = NormalVar(5.0, 1e-12).sample(rng, size=1000)
    assert np.all(np.abs(draws - 5.0) < 1e-4)


def test_uniform_dirichlet_mean():
    rng = np.random.default_rng(SEED + 5)
    draws = Dirichlet((1.0, 1.0, 1.0)).sample(rng, size=100_000)
    assert draws.shape == (100_000, 3)
    assert np.all(np.abs(draws.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(np.abs(draws.mean(axis=0) - 1.0 / 3.0) < 0.01)


def test_gamma_sample_mean_matches_moment_oracle():
    rng = np.random.default_rng(SEED + 6)
    draws = Gamma(3.0, 2.0).sample(rng, size=1_000_000)
    assert draws.mean() == pytest.approx(1.5, abs=0.01)


def test_invgamma_sample_mean_matches_moment_oracle():
    rng = np.random.default_rng(SEED + 7)
    draws = InvGamma(3.0, 0.5).sample(rng, size=1_000_000)
    # mean = 1 / (b (a - 1))
    assert draws.mean() == pytest.approx(1.0, abs=0.01)


def test_invgamma_sample_overflows_to_infinity_without_warnings():
    # at a = 0.001 about half the gamma draws fall below 1 / DBL_MAX, many to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = InvGamma(0.001, 1.0).sample(np.random.default_rng(SEED), size=1000)
    assert np.isinf(draws).any() and (draws > 0.0).all()


def test_sampling_is_deterministic_given_seed():
    a = Gamma(2.0, 1.0).sample(np.random.default_rng(11), size=10)
    b = Gamma(2.0, 1.0).sample(np.random.default_rng(11), size=10)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dist", [
    NormalVar(0.3, 2.0),
    NormalPrec(-1.0, 0.5),
    Gamma(2.3, 1.7),
    Gamma(0.7, 3.0),
    InvGamma(2.5, 0.8),
])
def test_sampler_agrees_with_cdf(dist):
    rng = np.random.default_rng(SEED + 8)
    draws = dist.sample(rng, size=100_000)
    stat = ks_statistic(draws, dist)
    assert stat < ks_critical_value(100_000, alpha=0.001), (dist, stat)
