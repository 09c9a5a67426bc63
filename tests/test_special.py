"""Tests for the incomplete gamma primitive against independent oracles."""

import math

import mpmath
import numpy as np
import pytest

from mixprior.special import reg_lower_incomplete_gamma, standard_normal_cdf


def mpmath_reg_gamma_p(shape, x):
    mpmath.mp.dps = 40
    return float(mpmath.gammainc(shape, 0, x, regularized=True))


def test_shape_one_is_exponential_cdf():
    for x in (0.0, 0.1, 0.7, 1.0, 3.5, 20.0):
        assert reg_lower_incomplete_gamma(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-14)


def test_shape_half_is_erf():
    for x in (0.01, 0.25, 1.0, 4.0, 9.0):
        assert reg_lower_incomplete_gamma(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), abs=1e-13)


def test_frozen_value_at_five_five():
    # value computed with mpmath at 50 digits
    assert reg_lower_incomplete_gamma(5.0, 5.0) == pytest.approx(0.55950671493478758856, abs=1e-13)


def test_matches_high_precision_oracle():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(60):
        shape = float(rng.uniform(0.05, 50.0))
        x = float(rng.uniform(0.0, 3.0) * max(shape, 1.0))
        got = reg_lower_incomplete_gamma(shape, x)
        want = mpmath_reg_gamma_p(shape, x)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def test_split_regimes_agree_near_boundary():
    # series vs continued fraction on either side of x = shape + 1
    for shape in (0.3, 1.0, 4.5, 12.0):
        below = reg_lower_incomplete_gamma(shape, shape + 1.0 - 1e-9)
        above = reg_lower_incomplete_gamma(shape, shape + 1.0 + 1e-9)
        assert abs(above - below) < 1e-8


def test_monotone_and_bounded():
    xs = np.linspace(0.0, 40.0, 500)
    values = reg_lower_incomplete_gamma(3.3, xs)
    assert np.all(np.diff(values) >= -1e-15)
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reg_lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_incomplete_gamma(-2.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_incomplete_gamma(1.0, -0.5)


def test_standard_normal_cdf_basics():
    assert standard_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert standard_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    arr = standard_normal_cdf(np.array([-50.0, 0.0, 50.0]))
    assert arr[0] == pytest.approx(0.0, abs=1e-15)
    assert arr[2] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("z", [
    0.3,
    np.array(-1.7),
    np.array([]),
    np.array([[-2.0, -0.0, 0.5], [1e-300, 8.0, -40.0]]),
    np.array([np.inf, -np.inf, np.nan]),
], ids=["scalar", "0-d", "empty", "2-d", "inf-nan"])
def test_standard_normal_cdf_is_math_erf_bit_for_bit(z):
    x = np.asarray(z, dtype=float) / math.sqrt(2.0)
    expected = np.array([0.5 * (1.0 + math.erf(v)) for v in x.ravel().tolist()]).reshape(x.shape)
    out = standard_normal_cdf(z)
    if x.ndim == 0:
        assert type(out) is float
        assert out.hex() == float(expected).hex()
    else:
        assert out.shape == x.shape and out.dtype == float
        assert out.tobytes() == expected.tobytes()


def test_lentz_denominators_keep_a_modulus_of_at_least_one_above_the_split(monkeypatch):
    # _continued_fraction runs Lentz's recurrence with no guard against a zero
    # denominator; that holds because for x >= shape + 1 the starting b and every
    # D_i = b_i + a_i / D_(i-1) and C_i = b_i + a_i / C_(i-1) stay at modulus >= 1
    from mixprior import special

    step, seen = special._lentz_step, {"steps": 0, "low": math.inf}

    def checked_step(a, i, b, c, d):
        seen["low"] = min(seen["low"], float(np.min(np.abs(b))))
        step(a, i, b, c, d)
        seen["steps"] += 1
        seen["low"] = min(seen["low"], float(np.min(np.abs(c))), float(np.min(1.0 / np.abs(d))))

    monkeypatch.setattr(special, "_lentz_step", checked_step)
    rng = np.random.default_rng(47)
    for shape in np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 300)):
        xs = (shape + 1.0) * np.array([1.0, 1.0 + 1e-12, 1.001, 1.1, 2.0, 10.0, 1e4])
        reg_lower_incomplete_gamma(shape, xs)
    assert seen["steps"] > 0
    assert seen["low"] >= 1.0
