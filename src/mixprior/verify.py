"""Independent numeric oracles for the closed-form coherence maps.

Two routes certify a claimed nested prior against its K component priors:

* ``verify_product_coherence`` evaluates the pointwise product of the
  component densities on a grid, normalizes it by trapezoidal quadrature and
  compares with the claimed density in sup norm.  The grid lies in log x for
  gamma and inverse gamma (in x for the normal families), and the sup norm
  is taken on the density of that coordinate, ``x f(x)`` in log x.
* ``mc_conditional_check`` approximates conditioning on the measure-zero
  event "all contrasts are zero" by retaining draws whose contrasts fall in
  an epsilon band, then runs a Kolmogorov-Smirnov test of the retained first
  coordinate against the claimed CDF.  The exact conditional equality is out
  of reach for simulation, so this certifies a convergent approximation at
  significance ``alpha``.

Everything in here is a pure function of its inputs (plus the supplied
generator), so identical seeds reproduce reports bit for bit and callers may
partition Monte Carlo work across generators.
"""

from __future__ import annotations

import math

import numpy as np

from .coherence import MixturePriorGroup
from .constraints import sample_ordered
from .distributions import DistSpec
from .errors import GridCoverageError, InsufficientRetentionError
from .reports import CoherenceReport

__all__ = [
    "CoherenceReport",
    "GridCoverageError",
    "InsufficientRetentionError",
    "to_contrasts",
    "from_contrasts",
    "ks_statistic",
    "ks_critical_value",
    "verify_product_coherence",
    "mc_conditional_check",
]

DEFAULT_SUP_TOL = 1e-6
DEFAULT_GRID_N = 4001
DEFAULT_KS_ALPHA = 0.001
_MIN_KS_SAMPLES = 200
_COVERAGE_FRACTION = 0.999
# e^u stays inside the double range for |u| <= 700
_LOG_X_LIMIT = 700.0


def to_contrasts(values):
    """Split a component vector into (first coordinate, contrasts against it)."""
    values = np.asarray(values, dtype=float)
    return float(values[0]), values[1:] - values[0]


def from_contrasts(first, tau):
    """Rebuild the component vector; inverse of :func:`to_contrasts` (unit Jacobian)."""
    tau = np.asarray(tau, dtype=float)
    return np.concatenate(([float(first)], tau + float(first)))


def ks_statistic(samples, cdf) -> float:
    """sup_x |empirical CDF - F(x)| via the sorted one-pass formula."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < 1:
        raise ValueError("need at least one sample")
    if isinstance(cdf, DistSpec):
        cdf = cdf.cdf
    f = np.asarray(cdf(samples), dtype=float)
    grid = np.arange(n + 1) / n
    return float(max(np.max(f - grid[:-1]), np.max(grid[1:] - f)))


def ks_critical_value(n: int, alpha: float = DEFAULT_KS_ALPHA) -> float:
    """Critical KS distance from the asymptotic Kolmogorov distribution."""
    n = int(n)
    if n < _MIN_KS_SAMPLES:
        raise ValueError(f"asymptotic critical values need n >= {_MIN_KS_SAMPLES}, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def _log_density(dists, us, log_x: bool):
    # log of the product of the densities on the grid coordinate; in u = log x it gains e^u
    if not log_x:
        return sum(np.asarray(d.log_pdf(us), dtype=float) for d in dists)
    xs = np.exp(us)
    return us + sum(np.asarray(d.log_pdf(xs), dtype=float) for d in dists)


def verify_product_coherence(components, claimed: DistSpec, grid=None,
                             sup_tol: float = DEFAULT_SUP_TOL) -> CoherenceReport:
    """Grid-quadrature check that ``claimed`` is the normalized product density.

    The grid is uniform in x for the normal families and in u = log x for
    gamma and inverse gamma, where the trapezoid rule converges exponentially
    for every shape and unit of x; the sup norm is taken on the density of
    that coordinate (``x f(x)`` in log x).  ``grid`` is ``(lo, hi, n)`` with
    bounds in x units and ``n >= 1001``; an entry left ``None`` takes the
    closed-form bound of ``claimed`` (``DistSpec.grid_bounds``) or
    ``DEFAULT_GRID_N``.  Raises :class:`GridCoverageError` when the grid
    leaves the double range of x or holds less than 99.9% of the product
    mass found on a grid ten times as wide.
    """
    components = list(components)
    if len(components) < 2:
        raise ValueError("need at least 2 components")
    if any(c.family != claimed.family for c in components):
        raise ValueError("components and claimed prior must share one family")
    log_x = claimed.support[0] == 0.0
    lo, hi, n = grid if grid is not None else (None, None, None)
    n = DEFAULT_GRID_N if n is None else int(n)
    if n < 1001:
        raise ValueError(f"grid needs at least 1001 points, got {n}")
    if log_x and not all(x is None or x > 0.0 for x in (lo, hi)):
        raise ValueError(f"grid bounds of {claimed.family} must be > 0, got [{lo}, {hi}]")
    to_u, limit = (math.log, _LOG_X_LIMIT) if log_x else (float, math.inf)
    default_lo, default_hi = claimed.grid_bounds()
    lo = default_lo if lo is None else to_u(lo)
    hi = default_hi if hi is None else to_u(hi)
    where = f"[{lo:.6g}, {hi:.6g}] in {'log x' if log_x else 'x'}"
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"empty grid {where}")
    if not -limit <= lo < hi <= limit:
        raise GridCoverageError(f"grid {where} leaves [-{limit:g}, {limit:g}]: "
                                "the product's tail leaves the double range")

    # far tails overflow to zero density, and a grid that misses the product
    # entirely to nan; the mass checks below catch the latter
    with np.errstate(all="ignore"):
        us = np.linspace(lo, hi, n)
        logs = _log_density(components, us, log_x)
        offset = float(np.max(logs))
        weights = np.exp(logs - offset)
        mass = float(np.trapezoid(weights, us))
        if not mass > 0.0:
            raise GridCoverageError(f"the product density vanishes on {where}")

        # support-coverage guard: the same number of points on a 10x wider grid
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        wide = np.linspace(max(center - 10.0 * half, -limit), min(center + 10.0 * half, limit), n)
        wide_mass = float(np.trapezoid(np.exp(_log_density(components, wide, log_x) - offset),
                                       wide))
        if mass < _COVERAGE_FRACTION * wide_mass:
            raise GridCoverageError(f"grid {where} covers only {mass / wide_mass:.4f} "
                                    "of the product mass; widen the grid")
        claimed_pdf = np.exp(_log_density([claimed], us, log_x))

    sup_err = float(np.max(np.abs(weights / mass - claimed_pdf)))
    return CoherenceReport(
        method="grid",
        passed=sup_err <= sup_tol,
        sup_norm_error=sup_err,
        sup_tol=sup_tol,
    )


def _group_draws(group: MixturePriorGroup, n: int, rng: np.random.Generator) -> np.ndarray:
    if group.ordered:
        return np.asarray(sample_ordered(group, rng, size=n), dtype=float)
    if group.identical:
        return np.asarray(group.components[0].sample(rng, size=(n, group.k)), dtype=float)
    return np.column_stack(
        [np.asarray(c.sample(rng, size=n), dtype=float) for c in group.components]
    )


def _retained_first_coordinates(group, epsilon, n, rng):
    draws = _group_draws(group, n, rng)
    tau = draws[:, 1:] - draws[:, :1]
    return draws[np.max(np.abs(tau), axis=1) < epsilon, 0]


def mc_conditional_check(group: MixturePriorGroup, claimed: DistSpec, epsilon: float,
                         n_draws: int, rng,
                         alpha: float = DEFAULT_KS_ALPHA) -> CoherenceReport:
    """Epsilon-band conditional check of the claimed nested prior.

    Draws the K-vector from the (possibly ordered) group, keeps draws with
    ``max_i |tau_i| < epsilon`` and KS-tests the retained first coordinate
    against ``claimed``.  ``rng`` may be a single generator or a sequence of
    independent generators; with a sequence the draws are partitioned evenly
    across the streams (workers may run them independently) and the retained
    samples are pooled before the test.
    """
    epsilon = float(epsilon)
    n_draws = int(n_draws)
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if n_draws < 100_000:
        raise ValueError(f"need n_draws >= 100000, got {n_draws}")
    if group.family == "dirichlet":
        raise NotImplementedError("the conditional check applies to scalar families only")
    if group.k < 2:
        raise ValueError("need a group with K >= 2 components")

    if isinstance(rng, np.random.Generator):
        retained = _retained_first_coordinates(group, epsilon, n_draws, rng)
    else:
        streams = list(rng)
        if not streams:
            raise ValueError("need at least one generator")
        share, remainder = divmod(n_draws, len(streams))
        counts = [share + (1 if i < remainder else 0) for i in range(len(streams))]
        retained = np.concatenate([
            _retained_first_coordinates(group, epsilon, n, stream)
            for n, stream in zip(counts, streams)
        ])
    n_retained = int(retained.size)
    if n_retained < _MIN_KS_SAMPLES:
        raise InsufficientRetentionError(
            f"only {n_retained} of {n_draws} draws fell inside the epsilon band; "
            "increase epsilon or n_draws"
        )
    ks = ks_statistic(retained, claimed)
    critical = ks_critical_value(n_retained, alpha)
    return CoherenceReport(
        method="mc_band",
        passed=ks < critical,
        ks_statistic=ks,
        ks_critical=critical,
        ks_alpha=alpha,
        n_retained=n_retained,
        epsilon=epsilon,
    )
