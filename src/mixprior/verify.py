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
  significance ``alpha``.  Draws come in blocks of 32,768 rows, each from
  its own child generator spawned from the caller's stream, and the blocks
  run on a thread pool with one worker per CPU (numpy's generators and
  ufuncs release the GIL).  The band is tested one contrast column at a
  time, so memory is one block per worker plus the retained first
  coordinates, whatever ``n_draws``.

Everything in here is a pure function of its inputs (plus the supplied
generator), so identical seeds reproduce reports bit for bit, on any machine
and whatever its number of CPUs.
"""

from __future__ import annotations

import math
import os

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


# sorted samples per CDF call of the KS statistic: its temporaries stay a few
# hundred KiB, and only the sorted copy grows with the sample
_KS_CHUNK = 1 << 15


def ks_statistic(samples, cdf) -> float:
    """sup_x |empirical CDF - F(x)| via the sorted one-pass formula.

    Sorts one copy of ``samples`` and evaluates ``cdf`` on fixed chunks of
    it, folding the one-sided distances chunk by chunk.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < 1:
        raise ValueError("need at least one sample")
    if isinstance(cdf, DistSpec):
        cdf = cdf.cdf
    distance = 0.0
    for start in range(0, n, _KS_CHUNK):
        f = np.asarray(cdf(samples[start:start + _KS_CHUNK]), dtype=float)
        grid = np.arange(start, start + f.size + 1) / n
        distance = np.max([distance, np.max(f - grid[:-1]), np.max(grid[1:] - f)])
    return float(distance)


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


# working-set budget of one float64 column of a band-check block; a block
# holds its K columns (a heterogeneous ordered group up to about 8K columns of
# proposals, kept copies and stacked rows) and the band mask, whatever the
# number of draws, and one block is in flight per worker
_BLOCK_BYTES = 1 << 18
_BLOCK_ROWS = _BLOCK_BYTES // 8

# band-check blocks run on one thread per CPU this process may use
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1


def _retained_block(group, epsilon, m, rng):
    # the first coordinates of m draws that fall inside the band
    # max_i |x_i - x_1| < epsilon, built one column at a time
    if group.ordered:
        columns = sample_ordered(group, rng, size=m).T
    elif group.identical:
        columns = group.components[0].sample(rng, size=(m, group.k)).T
    else:
        columns = [c.sample(rng, size=m) for c in group.components]
    first = columns[0]
    inside = np.abs(columns[1] - first) < epsilon
    for column in columns[2:]:
        inside &= np.abs(column - first) < epsilon
    return first[inside]


def mc_conditional_check(group: MixturePriorGroup, claimed: DistSpec, epsilon: float,
                         n_draws: int, rng,
                         alpha: float = DEFAULT_KS_ALPHA) -> CoherenceReport:
    """Epsilon-band conditional check of the claimed nested prior.

    Draws the K-vector from the (possibly ordered) group, keeps draws with
    ``max_i |tau_i| < epsilon`` and KS-tests the retained first coordinate
    against ``claimed``.  ``rng`` may be a single generator or a sequence of
    independent generators; with a sequence the draws are partitioned evenly
    across the streams and the retained samples are pooled before the test.

    Each stream's share comes in blocks of ``_BLOCK_ROWS`` (32,768) rows, and
    block j of ``n_blocks`` draws from ``stream.spawn(n_blocks)[j]``, so the
    call advances each stream's spawn counter, not its bit generator.  The
    blocks run on a thread pool with one worker per CPU and are pooled in
    block order, so a seeded report does not depend on the number of CPUs;
    it does depend on the block size, for identical groups too.  Only the
    retained first coordinates outlive a block.
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

    streams = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    if not streams:
        raise ValueError("need at least one generator")
    share, remainder = divmod(n_draws, len(streams))
    tasks = []
    for i, stream in enumerate(streams):
        n = share + (1 if i < remainder else 0)
        children = stream.spawn(-(-n // _BLOCK_ROWS))
        tasks.extend((min(_BLOCK_ROWS, n - j * _BLOCK_ROWS), child)
                     for j, child in enumerate(children))
    # imported here: `verify --method grid` and the numpy-free commands skip its cost
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(_WORKERS, len(tasks))) as pool:
        retained = np.concatenate(list(pool.map(
            lambda task: _retained_block(group, epsilon, *task), tasks)))
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
