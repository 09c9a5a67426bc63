"""Scalar special functions backing the distribution kernels.

The regularized lower incomplete gamma function is evaluated with the
classic two-regime scheme: a power series for ``x < shape + 1`` and a
Lentz continued fraction for the complement otherwise.  Both routines
iterate to machine precision, which keeps the absolute error comfortably
below 1e-12 over the hyperparameter ranges this package works with.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["reg_lower_incomplete_gamma", "standard_normal_cdf"]

_EPS = 1e-15
_TINY = 1e-300


def standard_normal_cdf(z):
    """CDF of the standard normal; accepts scalars or arrays."""
    x = np.asarray(z, dtype=float) / math.sqrt(2.0)
    erf = np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)
    out = 0.5 * (1.0 + erf)
    return float(out) if out.ndim == 0 else out


def reg_lower_incomplete_gamma(shape, x):
    """Regularized lower incomplete gamma function P(shape, x).

    Accepts a scalar ``shape`` > 0 and scalar or array ``x`` >= 0.
    """
    shape = float(shape)
    if not math.isfinite(shape) or shape <= 0.0:
        raise ValueError(f"shape must be a positive finite number, got {shape}")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0):
        raise ValueError("x must be finite and >= 0")
    flat = np.atleast_1d(xs).astype(float).ravel()
    out = np.empty_like(flat)
    below = flat < shape + 1.0
    out[below] = _series(shape, flat[below])
    out[~below] = 1.0 - _continued_fraction(shape, flat[~below])
    out = np.clip(out, 0.0, 1.0)
    if xs.ndim == 0:
        return float(out[0])
    return out.reshape(xs.shape)


def _log_prefactor(a, x):
    # log of x^a e^{-x} / Gamma(a); -inf at x == 0
    with np.errstate(divide="ignore"):
        return -x + a * np.log(x) - math.lgamma(a)


def _series(a, x):
    # P(a,x) = x^a e^{-x} / Gamma(a) * sum_{n>=0} x^n / (a (a+1) ... (a+n))
    if x.size == 0:
        return x.copy()
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    ap = a
    max_iter = max(600, int(3.0 * a) + 100)
    for _ in range(max_iter):
        ap += 1.0
        term = term * (x / ap)
        total += term
        if np.all(term <= total * _EPS):
            break
    else:
        raise RuntimeError(f"incomplete gamma series failed to converge for shape={a}")
    with np.errstate(invalid="ignore"):
        result = np.exp(_log_prefactor(a, x) + np.log(total))
    return np.where(x > 0.0, result, 0.0)


def _continued_fraction(a, x):
    # Q(a,x) via Lentz's algorithm; entered only for x >= a + 1 > 1
    if x.size == 0:
        return x.copy()
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _TINY)
    d = 1.0 / np.where(np.abs(b) < _TINY, _TINY, b)
    h = d.copy()
    max_iter = max(600, int(4.0 * math.sqrt(float(np.max(x)))) + 100)
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < _EPS):
            break
    else:
        raise RuntimeError(f"incomplete gamma continued fraction failed to converge for shape={a}")
    return np.exp(_log_prefactor(a, x)) * h
