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
  significance ``alpha``.  It does not draw the rows the band would reject:
  given the first coordinate, the band's events are independent and their
  probabilities are CDF differences, each bounded about its component's
  mode, so it draws a binomial count of candidates at the bound's rate,
  draws only their first coordinates and keeps each with its probability
  over the bound.  This thinning is exact: the kept sample and its count
  have the laws they would have from ``n_draws`` full rows.  A
  heterogeneous ordered group (and an identical ordered one whose band is
  very wide) draws rows.  Candidates come in chunks of 8,192 and rows in
  blocks of 32,768, each from its own child generator spawned from the
  caller's stream, on a thread pool with one worker per CPU (numpy's
  generators and ufuncs release the GIL).  Memory is one chunk per worker
  plus the retained first coordinates, whatever ``n_draws``.

Everything in here is a pure function of its inputs (plus the supplied
generator), so identical seeds reproduce reports bit for bit, on any machine
and whatever its number of CPUs.
"""

from __future__ import annotations

import math
import os
from functools import partial

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


# working-set budget of one float64 column of a direct-path block: a
# heterogeneous ordered group's block holds up to about 7K columns of
# proposals, kept copies and rows and a band mask, whatever the number of
# draws, and one block is in flight per worker
_BLOCK_BYTES = 1 << 18
_BLOCK_ROWS = _BLOCK_BYTES // 8
# candidates per thinned chunk: a factor's one CDF call takes both window
# edges of every candidate, half a KS chunk of points, so two workers' CDF
# temporaries together stay within those of one KS chunk
_CHUNK = _KS_CHUNK // 4
# grid steps of a window bound: it exceeds the heaviest window by at most the
# mass of one step, about 1/64 of that window's
_BOUND_STEPS = 64

# band-check blocks run on one thread per CPU this process may use
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1


def _window_mass(dist, lo, hi):
    # F(hi) - F(lo) from one CDF call on both edges; an infinite edge (and
    # the nan of inf - inf) takes its limit, 0 or 1, without a call
    edges = np.concatenate([lo, hi])
    finite = np.isfinite(edges)
    if finite.all():
        cdf = dist.cdf(edges)
    else:
        cdf = (edges > 0.0).astype(float)
        cdf[finite] = dist.cdf(edges[finite])
    return cdf[lo.size:] - cdf[:lo.size]


def _window_bound(dist, width):
    # the most mass any window of this width holds.  Every family is
    # unimodal, so the heaviest window [t, t + width] has t in [mode - width,
    # mode], and one with t in [t_i, t_i+1] lies within [t_i, t_i+1 + width]
    # for a grid t_0 < ... < t_G of that interval.  The slack keeps a window
    # computed with other rounding below the bound
    if not math.isfinite(width):
        return 1.0
    t = dist.mode() - width + (width / _BOUND_STEPS) * np.arange(_BOUND_STEPS + 1)
    mass = float(np.max(_window_mass(dist, t[:-1], t[1:] + width)))
    return min(1.0, mass * (1.0 + 1e-9) + 1e-12)


def _thinning(group, epsilon):
    # (rate, factors) of the exact thinning of the band, or None where rows
    # must be drawn.  A row is a candidate with probability `rate`; only a
    # candidate's first coordinate x is drawn, and it is kept when
    # u * c < F(x + hi) - F(x + lo) for every factor (F, c, lo, hi), with one
    # uniform u per factor and c bounding the factor's window masses
    if not group.ordered:
        # given x_1 the events |x_j - x_1| < epsilon are independent
        factors = [(d, _window_bound(d, 2.0 * epsilon), -epsilon, epsilon)
                   for d in group.components[1:]]
        return math.prod(c for _, c, _, _ in factors), factors
    if not group.identical:
        # the kept rows' law involves the unknown cone mass P(x_1 <= ... <= x_K)
        return None
    # the minimum y of a sorted row whose others lie in [y, y + epsilon) has
    # density K f(y) W(y)^(K-1), W(y) = F(y + epsilon) - F(y); a rate above 1
    # (a band so wide it keeps more than 1/K of the rows) takes the rows
    dist, k = group.components[0], group.k
    c = _window_bound(dist, epsilon)
    rate = k * c ** (k - 1)
    return (rate, [(dist, c, 0.0, epsilon)] * (k - 1)) if rate <= 1.0 else None


def _thinned_chunk(first, factors, size, rng):
    # the kept ones of `size` candidates.  A factor's uniforms go to the
    # candidates the factors before it kept, and a factor equal to the one
    # before it reuses its window masses
    x = first.sample(rng, size=size)
    mass = previous = None
    for factor in factors:
        dist, c, lo, hi = factor
        if factor != previous:
            mass = _window_mass(dist, x + lo, x + hi)
        keep = rng.uniform(size=x.size) * c < mass
        x, mass, previous = x[keep], mass[keep], factor
    return x


def _retained_block(group, epsilon, m, rng):
    # the first coordinates of m ordered rows x_1 <= ... <= x_K that fall
    # inside the band, which in the cone is x_K - x_1 < epsilon
    draws = sample_ordered(group, rng, size=m)
    first = draws[:, 0]
    return first[draws[:, -1] - first < epsilon]


def _split(stream, total, size):
    # `total` in pieces of at most `size`, each with a child spawned from `stream`
    children = stream.spawn(-(-total // size))
    return [(min(size, total - j * size), child) for j, child in enumerate(children)]


def _stream_tasks(group, epsilon, n, stream, thinning):
    # one stream's share of n rows as tasks; each returns retained first coordinates
    if thinning is None:
        return [partial(_retained_block, group, epsilon, m, child)
                for m, child in _split(stream, n, _BLOCK_ROWS)]
    rate, factors = thinning
    (counter,) = stream.spawn(1)
    candidates = int(counter.binomial(n, rate))
    return [partial(_thinned_chunk, group.components[0], factors, m, child)
            for m, child in _split(stream, candidates, _CHUNK)]


def mc_conditional_check(group: MixturePriorGroup, claimed: DistSpec, epsilon: float,
                         n_draws: int, rng,
                         alpha: float = DEFAULT_KS_ALPHA) -> CoherenceReport:
    """Epsilon-band conditional check of the claimed nested prior.

    Draws the K-vector from the (possibly ordered) group, keeps draws with
    ``max_i |tau_i| < epsilon`` and KS-tests the retained first coordinate
    against ``claimed``.  ``rng`` may be a single generator or a sequence of
    independent generators; with a sequence the draws are partitioned evenly
    across the streams and the retained samples are pooled before the test.

    Except for a heterogeneous ordered group, the band is thinned exactly,
    not drawn row by row.  Given ``x_1``, a plain group's row lies in the band
    with probability ``q(x_1) = prod_j [F_j(x_1 + eps) - F_j(x_1 - eps)]``.
    Each factor is at most ``c_j``, the mass of ``F_j``'s heaviest window of
    width ``2 eps``: every family is unimodal, so that window starts in
    ``[mode_j - 2 eps, mode_j]``, and 64 steps over that interval bound it to
    within the mass of one step.  So each stream draws a candidate count
    ``M ~ Binomial(n, prod_j c_j)``, draws ``x_1`` for the candidates only,
    and keeps a candidate when ``u_j c_j < F_j(x_1 + eps) - F_j(x_1 - eps)``
    for every factor, with one uniform per factor, drawn for the candidates
    the factors before it kept.  The kept coordinates then have the law of
    the kept rows of ``n`` full rows, and their count the same binomial law.
    An identical ordered group thins the same way: the minimum ``y`` of a
    kept sorted row has density ``K f(y) W(y)^(K-1)``, ``W(y) = F(y + eps) -
    F(y)``, so the rate is ``K c^(K-1)`` with ``c`` the mass of the heaviest
    window of width ``eps``, and ``K - 1`` uniforms are tested against one
    ``W``.  When that rate passes 1, and always for a heterogeneous ordered
    group, whose kept rows involve the unknown mass of the cone, the check
    draws rows with ``sample_ordered`` and keeps those with ``x_K - x_1 <
    eps``.  Seeded reports of every group but a heterogeneous ordered one
    changed when the thinning came in.

    A stream's count comes from ``stream.spawn(1)[0]``; its candidates then
    come in chunks of ``_CHUNK`` (8,192), and chunk j of ``n_chunks`` draws
    from ``stream.spawn(n_chunks)[j]``.  Drawn rows come the same way in
    blocks of ``_BLOCK_ROWS`` (32,768).  So the call advances each stream's
    spawn counter, not its bit generator.  The chunks run on a thread pool
    with one worker per CPU and are pooled in order, so a seeded report does
    not depend on the number of CPUs; it does depend on the chunk size.
    Only the retained first coordinates outlive a chunk.
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
    thinning = _thinning(group, epsilon)
    tasks = []
    for i, stream in enumerate(streams):
        n = share + (1 if i < remainder else 0)
        tasks.extend(_stream_tasks(group, epsilon, n, stream, thinning))
    # imported here: `verify --method grid` and the numpy-free commands skip its cost
    from concurrent.futures import ThreadPoolExecutor

    # no task at all when every stream's candidate count is 0
    with ThreadPoolExecutor(max_workers=max(1, min(_WORKERS, len(tasks)))) as pool:
        retained = np.concatenate([np.empty(0), *pool.map(lambda task: task(), tasks)])
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
