"""Distribution kernels in the exact parametrizations used across the package.

Two conventions deserve a warning because they differ from common textbook
forms:

* ``InvGamma(a_shape, b_scale)`` has kernel ``x^{-(a+1)} exp(-1/(b x))`` with
  normalizer ``1 / (b^a Gamma(a))``.  The field ``b_scale`` is therefore the
  reciprocal of the textbook inverse-gamma scale (textbook scale = ``1/b``).
* ``Gamma(a_shape, b_rate)`` has kernel ``x^{a-1} exp(-b x)``, i.e. ``b_rate``
  multiplies ``x`` in the exponent (a rate, even where sources call it a
  scale).

All descriptors are immutable; invalid hyperparameters are rejected at
construction, never clamped.  Samplers draw only from the generator passed in
by the caller, so concurrent use requires distinct generator instances.

Constructing, comparing and formatting descriptors needs no numpy.  The
array methods (``log_pdf``, ``cdf``, the Dirichlet ``mean``) load numpy, and
:mod:`mixprior.special` where they need it, when they run.

Each family class is also the one row of the family table :data:`FAMILIES`:
its literal name and field names in model documents, ``params()`` in that
order, its closed-form coherence maps and its CLI ``reverse`` name and flags,
and for the oracles its grid bounds and its mode.
The document parser and formatter, ``coherent_product``, the equal-component
expansion, the plan checks and the CLI all read these attributes, so a new
family is one class here plus its tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from .coherence import (coherent_gamma_forward, coherent_invgamma_forward,
                        coherent_normal_forward, coherent_normal_prec_forward,
                        reverse_equal_gamma, reverse_equal_invgamma, reverse_equal_normal)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DistSpec",
    "NormalVar",
    "NormalPrec",
    "Gamma",
    "InvGamma",
    "Dirichlet",
    "FAMILIES",
]

_LOG_2PI = math.log(2.0 * math.pi)
_DOUBLE_MAX = sys.float_info.max
# the grid oracle's bounds lie where its coordinate's density is 1e-18 of the mode
_GRID_DEPTH = math.log(1e18)


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _maybe_scalar(arr):
    import numpy as np

    arr = np.asarray(arr)
    return float(arr) if arr.ndim == 0 else arr


class DistSpec:
    """Base class for the tagged distribution descriptors."""

    family: str = ""  # literal name in model documents
    literal_fields: tuple[str, ...] = ()  # literal field names, in params() order
    support: tuple[float, float] = (-math.inf, math.inf)
    # K (first, second) hyperparameter pairs -> the pair of their coherent product
    forward_map = None
    # (first, second, K) of a nested prior -> the pair of each of K equal components
    reverse_map = None
    # ``mixprior reverse --family`` name and the flags of the nested pair
    reverse_name: str | None = None
    reverse_flags: tuple[str, ...] = ()

    def params(self) -> tuple:
        """Hyperparameters in ``literal_fields`` order; each ``repr`` is its literal value."""
        raise NotImplementedError(f"no literal form for {self!r}")

    def log_pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def mean(self):
        raise NotImplementedError

    def mode(self) -> float:
        """The point of highest density; the band check bounds its window masses about it."""
        raise NotImplementedError(f"no mode for {self.family!r}")

    def grid_bounds(self) -> tuple[float, float]:
        """The grid oracle's default bounds, in x, or in log x for a family on (0, inf)."""
        raise NotImplementedError(f"no grid oracle for {self.family!r}")


def _log_gamma_bounds(a: float, mode: float) -> tuple[float, float]:
    # a gamma's log density in u = log x, relative to its mode, is a (t + 1 - e^t) at
    # t = u - mode; at either width below it is at most -a s = -_GRID_DEPTH
    s = _GRID_DEPTH / a
    return mode - s - math.sqrt(2.0 * s), mode + min(math.sqrt(2.0 * s), math.log(2.0 + 2.0 * s))


@dataclass(frozen=True)
class NormalVar(DistSpec):
    """Normal distribution with mean ``m`` and variance ``v``."""

    m: float
    v: float

    family = "normal_var"
    literal_fields = ("m", "v")
    forward_map = staticmethod(coherent_normal_forward)
    reverse_map = partial(reverse_equal_normal, parametrization="variance")
    reverse_name = "normal"
    reverse_flags = ("m1", "v1")

    def __post_init__(self):
        object.__setattr__(self, "m", _require_finite("m", self.m))
        object.__setattr__(self, "v", _require_positive("v", self.v))

    def params(self):
        return self.m, self.v

    def log_pdf(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        out = -0.5 * (_LOG_2PI + math.log(self.v)) - 0.5 * (x - self.m) ** 2 / self.v
        return _maybe_scalar(out)

    def cdf(self, x):
        import numpy as np

        from .special import standard_normal_cdf

        x = np.asarray(x, dtype=float)
        return _maybe_scalar(standard_normal_cdf((x - self.m) / math.sqrt(self.v)))

    def sample(self, rng, size=None):
        return rng.normal(self.m, math.sqrt(self.v), size)

    def mean(self):
        return self.m

    def mode(self):
        return self.m

    def grid_bounds(self):
        half = math.sqrt(2.0 * _GRID_DEPTH * self.v)
        return self.m - half, self.m + half


@dataclass(frozen=True)
class NormalPrec(DistSpec):
    """Normal distribution with mean ``m`` and precision ``vprec`` (= 1/variance)."""

    m: float
    vprec: float

    family = "normal_prec"
    literal_fields = ("m", "vprec")
    forward_map = staticmethod(coherent_normal_prec_forward)
    reverse_map = partial(reverse_equal_normal, parametrization="precision")
    reverse_name = "normal-prec"
    reverse_flags = ("m1", "vprec1")

    def __post_init__(self):
        object.__setattr__(self, "m", _require_finite("m", self.m))
        object.__setattr__(self, "vprec", _require_positive("vprec", self.vprec))

    def params(self):
        return self.m, self.vprec

    @property
    def variance(self) -> float:
        return 1.0 / self.vprec

    def log_pdf(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        out = -0.5 * (_LOG_2PI - math.log(self.vprec)) - 0.5 * self.vprec * (x - self.m) ** 2
        return _maybe_scalar(out)

    def cdf(self, x):
        import numpy as np

        from .special import standard_normal_cdf

        x = np.asarray(x, dtype=float)
        return _maybe_scalar(standard_normal_cdf((x - self.m) * math.sqrt(self.vprec)))

    def sample(self, rng, size=None):
        return rng.normal(self.m, 1.0 / math.sqrt(self.vprec), size)

    def mean(self):
        return self.m

    def mode(self):
        return self.m

    def grid_bounds(self):
        half = math.sqrt(2.0 * _GRID_DEPTH / self.vprec)
        if half == math.inf:
            raise ValueError(f"the variance 1/vprec = {1.0 / self.vprec:g} of the claimed "
                             f"normal_prec(vprec={self.vprec:g}) overflows the grid")
        return self.m - half, self.m + half


@dataclass(frozen=True)
class Gamma(DistSpec):
    """Gamma distribution, kernel ``x^{a-1} exp(-b x)`` with rate ``b_rate``."""

    a_shape: float
    b_rate: float

    family = "gamma"
    literal_fields = ("a_breve", "b_breve")
    support = (0.0, math.inf)
    forward_map = staticmethod(coherent_gamma_forward)
    reverse_map = staticmethod(reverse_equal_gamma)
    reverse_name = "gamma"
    reverse_flags = ("a1", "b1")

    def __post_init__(self):
        object.__setattr__(self, "a_shape", _require_positive("a_shape", self.a_shape))
        object.__setattr__(self, "b_rate", _require_positive("b_rate", self.b_rate))

    def params(self):
        return self.a_shape, self.b_rate

    def log_pdf(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("gamma density is defined for x > 0 only")
        a, b = self.a_shape, self.b_rate
        out = a * math.log(b) - math.lgamma(a) + (a - 1.0) * np.log(x) - b * x
        return _maybe_scalar(out)

    def cdf(self, x):
        import numpy as np

        from .special import reg_lower_incomplete_gamma

        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        out = np.zeros(x.shape)
        if np.any(pos):
            # b x past the double range is clamped to its edge, where P(a, .) is 1
            # for any shape well inside the range
            with np.errstate(over="ignore"):
                z = np.minimum(self.b_rate * x[pos], _DOUBLE_MAX)
            out[pos] = reg_lower_incomplete_gamma(self.a_shape, z)
        return _maybe_scalar(out)

    def sample(self, rng, size=None):
        return rng.gamma(self.a_shape, 1.0 / self.b_rate, size)

    def mean(self):
        return self.a_shape / self.b_rate

    def mode(self):
        # at the support's edge for a <= 1, where the density falls from x = 0
        return max(self.a_shape - 1.0, 0.0) / self.b_rate

    def grid_bounds(self):
        return _log_gamma_bounds(self.a_shape, math.log(self.a_shape) - math.log(self.b_rate))


@dataclass(frozen=True)
class InvGamma(DistSpec):
    """Inverse gamma, kernel ``x^{-(a+1)} exp(-1/(b x))``; textbook scale is ``1/b``."""

    a_shape: float
    b_scale: float

    family = "inv_gamma"
    literal_fields = ("a", "b")
    support = (0.0, math.inf)
    forward_map = staticmethod(coherent_invgamma_forward)
    reverse_map = staticmethod(reverse_equal_invgamma)
    reverse_name = "invgamma"
    reverse_flags = ("a1", "b1")

    def __post_init__(self):
        object.__setattr__(self, "a_shape", _require_positive("a_shape", self.a_shape))
        object.__setattr__(self, "b_scale", _require_positive("b_scale", self.b_scale))

    def params(self):
        return self.a_shape, self.b_scale

    def log_pdf(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("inverse gamma density is defined for x > 0 only")
        a, b = self.a_shape, self.b_scale
        out = -(a + 1.0) * np.log(x) - 1.0 / (b * x) - a * math.log(b) - math.lgamma(a)
        return _maybe_scalar(out)

    def cdf(self, x):
        import numpy as np

        from .special import reg_lower_incomplete_gamma

        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        out = np.zeros(x.shape)
        if np.any(pos):
            with np.errstate(divide="ignore", over="ignore"):
                z = np.minimum(1.0 / (self.b_scale * x[pos]), _DOUBLE_MAX)
            out[pos] = 1.0 - reg_lower_incomplete_gamma(self.a_shape, z)
        return _maybe_scalar(out)

    def sample(self, rng, size=None):
        import numpy as np

        # if G ~ Gamma(shape=a, rate=1/b) then 1/G has the kernel above; at
        # small a, G underflows to 0 or below 1/DBL_MAX and 1/G is inf
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / rng.gamma(self.a_shape, self.b_scale, size)

    def mean(self):
        if self.a_shape <= 1.0:
            raise ValueError("inverse gamma mean requires a_shape > 1")
        return 1.0 / (self.b_scale * (self.a_shape - 1.0))

    def mode(self):
        return 1.0 / (self.b_scale * (self.a_shape + 1.0))

    def grid_bounds(self):
        # 1/x is gamma with rate 1/b, so the bounds are its gamma bounds mirrored
        lo, hi = _log_gamma_bounds(self.a_shape, math.log(self.a_shape) + math.log(self.b_scale))
        return -hi, -lo


@dataclass(frozen=True)
class Dirichlet(DistSpec):
    """Dirichlet distribution on the probability simplex with weights ``d``."""

    d: tuple[float, ...]

    family = "dirichlet"
    literal_fields = ("d",)

    def __post_init__(self):
        # a list or tuple of numbers, as documents and plans give, needs no numpy
        if isinstance(self.d, (list, tuple)) and all(isinstance(v, (int, float)) for v in self.d):
            d = tuple(float(v) for v in self.d)
        else:
            import numpy as np

            d = tuple(float(v) for v in np.asarray(self.d, dtype=float).ravel())
        if len(d) < 2:
            raise ValueError("dirichlet needs at least 2 concentration entries")
        for i, v in enumerate(d):
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"d[{i}] must be a positive finite number, got {v}")
        object.__setattr__(self, "d", d)

    def params(self):
        return (list(self.d),)  # a list, so the literal prints in brackets

    @property
    def dim(self) -> int:
        return len(self.d)

    def log_pdf(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected simplex vectors of length {self.dim}, got shape {x.shape}")
        if np.any(x <= 0.0) or np.any(np.abs(x.sum(axis=-1) - 1.0) > 1e-9):
            raise ValueError("x must lie in the interior of the probability simplex")
        d = np.asarray(self.d)
        log_norm = math.lgamma(float(d.sum())) - sum(math.lgamma(v) for v in self.d)
        out = log_norm + ((d - 1.0) * np.log(x)).sum(axis=-1)
        return _maybe_scalar(out)

    def cdf(self, x):
        raise NotImplementedError("cdf is not supported for Dirichlet distributions")

    def sample(self, rng, size=None):
        # normalized independent gamma draws
        shape = (self.dim,) if size is None else (int(size), self.dim)
        g = rng.gamma(self.d, 1.0, shape)
        return g / g.sum(axis=-1, keepdims=True)

    def mean(self):
        import numpy as np

        d = np.asarray(self.d)
        return d / d.sum()



# the family table: literal name -> family class
FAMILIES: dict[str, type[DistSpec]] = {
    cls.family: cls for cls in (NormalVar, NormalPrec, Gamma, InvGamma, Dirichlet)
}
