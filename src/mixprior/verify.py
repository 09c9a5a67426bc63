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
  probabilities are window masses, each bounded about its component's mode,
  so it draws a binomial count of candidates at the bound's rate, draws only
  their first coordinates and keeps each with its probability over the
  bound.  A squeeze settles most of these tests from the density at the
  window's edges and mode, and only the rest call the CDF.  Every group
  takes this one path: an ordered group's windows are one-sided, a
  heterogeneous ordered group's rate is divided by the cone's mass, which
  comes from quadrature, and where a rate passes 1 the check draws its
  kept count from the same quadrature, then candidates from an envelope on
  the quadrature's grid until it is reached.  The thinning is exact: the
  kept sample has the law it would have from ``n_draws`` full rows, and so
  has its count, up to the quadrature's error and its grid's range on the
  kept-count route.  Candidates come in chunks, each from its own child
  generator spawned from the caller's stream, and run in order on the
  calling thread.  Memory is one chunk plus the retained first
  coordinates, whatever ``n_draws`` and K.

Everything in here is a pure function of its inputs (plus the supplied
generator), so identical seeds reproduce reports bit for bit, on any machine.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from typing import NamedTuple

import numpy as np

from .coherence import MixturePriorGroup
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
    mass found on a grid ten times as wide.  ``sup_tol`` must be >= 0,
    possibly infinite; a NaN is refused.
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
    if not sup_tol >= 0.0:
        raise ValueError(f"sup_tol must be >= 0, got {sup_tol}")
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


# candidates per chunk of either route, on which seeded reports
# depend: a factor's one CDF call takes at most both window edges of every
# candidate, half a KS chunk of points
_CHUNK = _KS_CHUNK // 4
# grid steps of a window bound: it exceeds the heaviest window by at most the
# mass of one step, about 1/64 of that window's
_BOUND_STEPS = 64
# slack of the squeeze's bounds on a window mass: relative, past the log
# density's rounding (about a eps at gamma shape a), and absolute, past the
# rounding of the CDF difference (1.7e-9 at gamma shape 1e6, 1e-15 at 4)
_SQUEEZE_REL = 1e-6
_SQUEEZE_ABS = 1e-8
# the most candidates per draw a band may need; an identical ordered group
# needs up to K, and a heterogeneous ordered one whose cone holds too little
# of the product to reach this is refused
_MAX_RATE = 32
# rounds of uniform proposals in a window draw before it bisects the CDF
_WINDOW_ROUNDS = 16
_BISECTION_STEPS = 64
# steps of the band's quadrature across each component's grid bounds
_BAND_GRID_RESOLUTION = 128


def _cdf(dist, x):
    # F(x) in one CDF call; an infinite x (and the nan of inf - inf) takes
    # its limit, 0 or 1, without a call
    finite = np.isfinite(x)
    if finite.all():
        return dist.cdf(x)
    cdf = (x > 0.0).astype(float)
    cdf[finite] = dist.cdf(x[finite])
    return cdf


def _window_mass(dist, lo, hi):
    # F(hi) - F(lo) from one CDF call on both edges
    cdf = _cdf(dist, np.concatenate([lo, hi]))
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


def _density(dist, x):
    # f(x), 0 off the open support and at infinite x; a density too large
    # for a double is inf.  Call under np.errstate(all="ignore")
    inside = np.isfinite(x) & (x > dist.support[0])
    if inside.all():
        return np.exp(dist.log_pdf(x))
    out = np.zeros(x.shape)
    out[inside] = np.exp(dist.log_pdf(x[inside]))
    return out


def _density_range(dist, lo, hi):
    # (least, greatest) density on each window [lo, hi]: every family is
    # unimodal, so both are at the edges, except the greatest where the window
    # holds the mode; a mode at the support's edge counts as infinite
    f_lo, f_hi = _density(dist, lo), _density(dist, hi)
    mode = dist.mode()
    top = _density(dist, np.array([mode]))[0] if mode > dist.support[0] else math.inf
    least, greatest = np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi)
    return least, np.where((lo <= mode) & (mode <= hi), top, greatest)


def _squeeze(dist, lo, hi):
    # bounds (low, high) on the window masses F(hi) - F(lo) from the density
    # range times the width, with a slack past the rounding of both; where
    # an infinite width meets a zero density there is no bound (-inf, inf)
    with np.errstate(all="ignore"):
        width = hi - lo
        least, greatest = _density_range(dist, lo, hi)
        low = width * least * (1.0 - _SQUEEZE_REL) - _SQUEEZE_ABS
        high = width * greatest * (1.0 + _SQUEEZE_REL) + _SQUEEZE_ABS
    return np.where(np.isnan(low), -np.inf, low), np.where(np.isnan(high), np.inf, high)


def _u_bounds(dist):
    # a component's grid oracle bounds in the grid coordinate (u = log x for
    # the positive families), inside the double range of x
    lo, hi = dist.grid_bounds()
    if dist.support[0] == 0.0:
        return max(lo, -_LOG_X_LIMIT), min(hi, _LOG_X_LIMIT)
    return lo, hi


def _x_bounds(dist):
    # the same bounds in x
    lo, hi = _u_bounds(dist)
    return (math.exp(lo), math.exp(hi)) if dist.support[0] == 0.0 else (lo, hi)


def _grid(components, epsilon=0.0):
    # the grid oracle's coordinate over the union of the components' bounds:
    # the points u, their x and the log of dx/du.  Between consecutive bounds
    # the points are uniform, at most 1/4000 of the union apart and
    # 1/_BAND_GRID_RESOLUTION of every span that holds them: each component's
    # bounds, and those of x_2..x_K moved down by epsilon, where a window
    # [y, y + epsilon) meets them.  So each component is resolved on its own
    # bounds whatever the others' widths.  A stretch shorter than its step
    # joins the one before it (a first one takes the next one's step), so
    # that neighbouring steps differ at most as the spans' widths do; bounds
    # that collapse outside the double range add no points
    log_x = components[0].support[0] == 0.0
    bounds = {b for b in map(_u_bounds, set(components)) if b[0] < b[1]}
    if not bounds:
        raise GridCoverageError("every component's grid bounds collapse outside the double range")
    first, last = min(b[0] for b in bounds), max(b[1] for b in bounds)
    if 0.0 < epsilon < math.inf:
        for lo, hi in map(_x_bounds, set(components[1:])):
            lo, hi = lo - epsilon, hi - epsilon
            if log_x:
                lo, hi = (math.log(x) if x > 0.0 else -math.inf for x in (lo, hi))
            bounds.add((max(lo, first), min(hi, last)))
    bounds = sorted(b for b in bounds if b[0] < b[1])
    # sorted in Python: np.unique would import numpy.ma on its first call
    edges = np.array(sorted({u for b in bounds for u in b}))
    steps = np.full(edges.size - 1, (edges[-1] - edges[0]) / (DEFAULT_GRID_N - 1))
    for lo, hi in bounds:
        held = slice(np.searchsorted(edges, lo), np.searchsorted(edges, hi))
        steps[held] = np.minimum(steps[held], (hi - lo) / _BAND_GRID_RESOLUTION)
    pieces = []
    for lo, hi, step in zip(edges[:-1], edges[1:], steps):
        if pieces and (step == pieces[-1][2] or hi - lo < step):
            pieces[-1][1] = hi
        elif pieces and pieces[-1][1] - pieces[-1][0] < pieces[-1][2]:
            pieces[-1][1:] = [hi, step]
        else:
            pieces.append([lo, hi, step])
    # the step is a bound: rounding in the division must not add a point
    us = np.concatenate([edges[:1]] + [
        np.linspace(lo, hi, math.ceil((hi - lo) / step * (1.0 - 1e-12)) + 1)[1:]
        for lo, hi, step in pieces])
    return us, (np.exp(us) if log_x else us), (us if log_x else 0.0)


def _cumulative(g, us):
    # the integral of g over the last axis, at points us, from the first
    # point to each: per step the trapezoid rule with its Hermite correction
    # h^2 / 12 (g'(a) - g'(b)), slopes from fourth-order differences where
    # five points are evenly spaced, else second-order ones.  On a uniform
    # stretch the corrections add up to the Euler-Maclaurin end correction,
    # so the error is O(h^4) with the step h of each stretch
    h = np.diff(us)
    slope = np.gradient(g, us, axis=-1, edge_order=2)
    spans = np.stack([h[:-3], h[1:-2], h[2:-1], h[3:]])
    even = np.max(spans, axis=0) <= np.min(spans, axis=0) * (1.0 + 1e-6)
    fourth = ((8.0 * (g[..., 3:-1] - g[..., 1:-3]) - (g[..., 4:] - g[..., :-4]))
              / (3.0 * np.sum(spans, axis=0)))
    slope[..., 2:-2] = np.where(even, fourth, slope[..., 2:-2])
    out = np.zeros(g.shape)
    np.cumsum(0.5 * h * (g[..., 1:] + g[..., :-1])
              + (h * h / 12.0) * (slope[..., :-1] - slope[..., 1:]), axis=-1, out=out[..., 1:])
    return out


def _chain(grid, components):
    # C_m(t) = P(x_1 <= ... <= x_m < t) at every grid point, m = 1..K in turn,
    # with its slope in the grid coordinate (None for C_1 = F_1), by C_m = int
    # f_m C_(m-1).  Call under np.errstate(all="ignore")
    us, xs, log_jacobian = grid
    c = np.asarray(components[0].cdf(xs), dtype=float)
    yield c, None
    for dist in components[1:]:
        slope = np.exp(dist.log_pdf(xs) + log_jacobian) * c
        c = _cumulative(slope, us)
        yield c, slope


def _cone_mass(grid, components):
    # P(x_1 <= ... <= x_K), the last chain at the last grid point
    with np.errstate(all="ignore"):
        for c, _ in _chain(grid, components):
            pass
    return float(c[-1])


# a window's end this near a grid point, in steps, is that point: nearer, the
# rounding of the slopes spoils the quadrature.  An end at most _NEAR cells
# above its window's start joins the grid, so that the chains' difference over
# the window comes from the quadrature's own steps
_SNAP = 1e-9
_NEAR = 16


def _window_cone(grid, others, epsilon):
    # q(y) = P(y <= x_2 <= ... <= x_K < y + eps) at each grid point y.  Split
    # at the first coordinate not below y: T_j(y, z) = P(y <= x_j <= ... <= x_K
    # < z) = C_(j..K)(z) - sum_(m > j) C_(j..m-1)(y) T_m(y, z), T_(K+1) = 1, and
    # q = T_2(y, y + eps).  The chains C_(j..m) run from F_j on the grid merged
    # with the ends z (cut at the last grid point); a far z reads the cubic
    # through its cell's values and slopes
    us, xs, log_jacobian = grid
    log_x = others[0].support[0] == 0.0
    z = np.minimum(np.log(xs + epsilon) if log_x else xs + epsilon, us[-1])
    cell = np.minimum(np.searchsorted(us, z, side="right") - 1, us.size - 2)
    step = us[cell + 1] - us[cell]
    t = (z - us[cell]) / step
    lower, upper = t <= _SNAP, t >= 1.0 - _SNAP
    z = np.where(lower, us[cell], np.where(upper, us[cell + 1], z))
    near = cell <= np.arange(us.size) + _NEAR
    added, far = (np.flatnonzero(where & ~lower & ~upper) for where in (near, ~near))
    merged = np.sort(np.concatenate([us, z[added]]))
    iy = np.searchsorted(merged, us)
    iz = np.where(upper, iy[cell + 1], iy[cell])
    iz[added] = np.searchsorted(merged, z[added])
    a, b, t, h = iy[cell[far]], iy[cell[far] + 1], t[far], step[far]
    chain_grid = (merged, np.exp(merged) if log_x else merged, merged if log_x else 0.0)
    with np.errstate(all="ignore"):
        tails = [_window_mass(others[-1], xs, np.exp(z) if log_x else z), 1.0]
        for start in range(len(others) - 2, -1, -1):
            tail = 0.0
            for (c, slope), later in zip(_chain(chain_grid, others[start:]), tails):
                tail = tail - c[iy] * later
            at_z = c[iz]
            at_z[far] = (c[a] + t * t * (3.0 - 2.0 * t) * (c[b] - c[a])
                         + h * t * (1.0 - t) * ((1.0 - t) * slope[a] - t * slope[b]))
            tails.insert(0, tail + at_z)
    return tails[0]


def _keep_probability(grid, group, epsilon, cone):
    # P_keep, the share of an ordered group's rows the band keeps: int f_1 q
    # / P(cone) on the grid, q(y) = P(y <= x_2 <= ... <= x_K < y + eps) for
    # independent x_j, and P(cone) = 1 for an identical group, whose sorted
    # rows give K int f W^(K-1) at once; q is a window mass at K = 2
    first, *others = group.components
    us, xs, log_jacobian = grid
    with np.errstate(all="ignore"):
        if group.identical:
            q = group.k * _window_mass(first, xs, xs + epsilon) ** (group.k - 1)
        elif len(others) == 1:
            q = _window_mass(others[0], xs, xs + epsilon)
        else:
            q = _window_cone(grid, others, epsilon)
        return float(_cumulative(np.exp(first.log_pdf(xs) + log_jacobian) * q, us)[-1]) / cone


def _multiplicities(factors):
    # each distinct window (F, lo, hi) of the factors, with its count
    return Counter((dist, lo, hi) for dist, _, lo, hi in factors).items()


def _envelope(first, factors, xs):
    # on each cell [a, b] between neighbouring grid points: the greatest f_1,
    # and bounds low <= prod_j W_j(y) <= high for y in the cell, from
    # F(a + hi) - F(b + lo) <= W(y) = F(y + hi) - F(y + lo) <= F(b + hi) -
    # F(a + lo) per factor, with slacks past the rounding of the CDF
    # difference and of the log density.  Returns the cells' starts, widths,
    # cumulative masses of f_1 high, greatest f_1, low and high
    a, b = xs[:-1], xs[1:]
    with np.errstate(all="ignore"):
        greatest = _density_range(first, a, b)[1] * (1.0 + _SQUEEZE_REL)
    low, high = np.ones(a.size), np.ones(a.size)
    for (dist, lo, hi), m in _multiplicities(factors):
        f_lo, f_hi = _cdf(dist, xs + lo), _cdf(dist, xs + hi)
        low *= np.maximum(f_hi[:-1] - f_lo[1:] - _SQUEEZE_ABS, 0.0) ** m
        high *= (f_hi[1:] - f_lo[:-1] + _SQUEEZE_ABS) ** m
    return a, b - a, np.cumsum(greatest * (b - a) * high), greatest, low, high


def _enveloped_candidates(first, factors, envelope, size, rng):
    # the kept ones of `size` candidates from the envelope: a cell in
    # proportion to its mass and x uniform in it, kept with f_1(x) over the
    # cell's greatest f_1, then with prod_j W_j(x) over the cell's high in
    # one test, which the cell's low settles where it can; only the rest
    # reach the CDF
    starts, widths, cumulative, greatest, low, high = envelope
    cells = np.searchsorted(cumulative, rng.uniform(size=size) * cumulative[-1], side="right")
    x = starts[cells] + widths[cells] * rng.uniform(size=size)
    with np.errstate(all="ignore"):
        keep = rng.uniform(size=size) * greatest[cells] < _density(first, x)
    x, cells = x[keep], cells[keep]
    t, low = rng.uniform(size=x.size) * high[cells], low[cells]
    open_ = np.flatnonzero(t >= low)
    mass = np.ones(open_.size)
    for (dist, lo, hi), m in _multiplicities(factors):
        mass *= _window_mass(dist, x[open_] + lo, x[open_] + hi) ** m
    keep = t < low
    keep[open_] = t[open_] < mass
    return x[keep]


class _Thinning(NamedTuple):
    """How a group's band is thinned.

    ``rate`` candidates stand for one row; a candidate's first coordinate
    ``x`` is drawn and kept when ``u c < F(x + hi) - F(x + lo)`` for each of
    the ``factors`` ``(F, c, lo, hi)``, one uniform ``u`` per factor and
    ``c`` a bound on the factor's window masses.  ``inner`` components are
    then drawn inside ``[x, x + width)`` and the candidate is kept if they
    come out in order.  ``keep`` is None where the check draws a binomial
    count of candidates at ``rate``.  Else ``rate`` passed 1: the check
    draws its kept count at ``keep`` and candidates until it is reached, and
    the candidates come from an ``envelope`` on the quadrature's grid,
    whose cells bound the window masses' product each on its own.
    """

    rate: float
    factors: tuple
    keep: float | None = None
    inner: tuple = ()
    width: float = 0.0
    envelope: tuple = ()


def _thinning(group, epsilon):
    # given x_1 a plain row is kept when each x_j lies in (x_1 - epsilon,
    # x_1 + epsilon), and an ordered one when each lies in [x_1, x_1 + epsilon);
    # the events are independent
    lo, width = (0.0, epsilon) if group.ordered else (-epsilon, 2.0 * epsilon)
    others = group.components[1:]
    bounds = {d: _window_bound(d, width) for d in set(others)}
    factors = tuple((d, bounds[d], lo, epsilon) for d in others)
    bound = math.prod(c for _, c, _, _ in factors)
    if not group.ordered:
        return _Thinning(bound, factors)
    if group.identical:
        # the minimum y of a sorted row whose others lie in [y, y + epsilon)
        # has density K f(y) W(y)^(K-1), W(y) = F(y + epsilon) - F(y)
        if group.k * bound <= 1.0:
            return _Thinning(group.k * bound, factors)
        grid, cone, inner, rows = _grid(group.components[:1], epsilon), 1.0, (), group.k
    else:
        # a row of the cone x_1 <= ... <= x_K stands for 1 / P(cone) rows of
        # the product; from K = 3 the others must also come out in order
        grid = _grid(group.components, epsilon)
        cone = _cone_mass(grid, group.components)
        if not cone > 0.0:
            raise InsufficientRetentionError("the ordering cone x_1 <= ... <= x_K has no mass "
                                             "on the components' grid")
        rate, inner, rows = bound / cone, (others if group.k > 2 else ()), 1
        if rate > max(_MAX_RATE, group.k):
            raise InsufficientRetentionError(
                f"the band needs {rate:.3g} candidates per draw, over {max(_MAX_RATE, group.k)}: "
                f"the ordering cone x_1 <= ... <= x_K holds only {cone:.3g} of the product")
        if rate <= 1.0:
            return _Thinning(rate, factors, None, inner, epsilon)
    # a candidate from the envelope stands for 1 / (K' total) of a row, the
    # share of the product's rows whose first coordinate it is (K' = K for
    # the minimum of an identical group)
    keep = _keep_probability(grid, group, epsilon, cone) if math.isfinite(epsilon) else 1.0
    envelope = _envelope(group.components[0], factors, grid[1])
    total = envelope[2][-1]
    if not 0.0 < total < math.inf:
        raise GridCoverageError(f"the band's bound on the components' grid has mass {total:g}")
    return _Thinning(rows * total / cone, factors, min(max(keep, 0.0), 1.0), inner, epsilon,
                     envelope)


def _window_draws(dist, lo, hi, rng):
    # one draw of dist inside each window [lo, hi): up to _WINDOW_ROUNDS
    # uniform proposals accepted with f / (greatest f on the window), then
    # the CDF inverted by bisection for the windows none was accepted in.
    # Both give the law of dist on the window, so their mixture does too
    with np.errstate(all="ignore"):
        greatest = _density_range(dist, lo, hi)[1]
    out = np.full(lo.size, np.nan)
    todo = np.flatnonzero(np.isfinite(greatest) & (greatest > 0.0))
    for _ in range(_WINDOW_ROUNDS):
        if not todo.size:
            break
        s = lo[todo] + (hi[todo] - lo[todo]) * rng.uniform(size=todo.size)
        with np.errstate(all="ignore"):
            hit = rng.uniform(size=todo.size) * greatest[todo] < _density(dist, s)
        out[todo[hit]] = s[hit]
        todo = todo[~hit]
    rest = np.flatnonzero(np.isnan(out))
    if rest.size:
        a, b = lo[rest], hi[rest]
        cdf = np.asarray(dist.cdf(np.concatenate([a, b])), dtype=float)
        target = cdf[:rest.size] + rng.uniform(size=rest.size) * (cdf[rest.size:]
                                                                  - cdf[:rest.size])
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (a + b)
            left = np.asarray(dist.cdf(mid), dtype=float) < target
            a, b = np.where(left, mid, a), np.where(left, b, mid)
        out[rest] = 0.5 * (a + b)
    return out


def _thinned_chunk(first, thinning, size, rng):
    # the kept ones of `size` candidates.  A factor's uniforms go to the
    # candidates the factors before it kept, and the squeeze settles each
    # test it can: only the candidates whose uniform lies between its bounds
    # reach the CDF, and a factor equal to the one before it reuses their
    # window masses and its bounds
    if thinning.envelope:
        x = _enveloped_candidates(first, thinning.factors, thinning.envelope, size, rng)
    else:
        x = first.sample(rng, size=size)
    previous = None
    for factor in () if thinning.envelope else thinning.factors:
        dist, c, lo, hi = factor
        if factor != previous:
            edges = (x + lo, x + hi)
            low, high = _squeeze(dist, *edges)
            mass = np.full(x.size, np.nan)
        t = rng.uniform(size=x.size) * c
        settled = (t < low) | (t >= high)
        open_ = ~settled & np.isnan(mass)
        if open_.any():
            mass[open_] = _window_mass(dist, edges[0][open_], edges[1][open_])
        keep = np.where(settled, t < low, t < mass)
        x, mass, low, high = x[keep], mass[keep], low[keep], high[keep]
        edges, previous = (edges[0][keep], edges[1][keep]), factor
    # x_2, ..., x_K inside [x, x + width), column by column while in order;
    # a window is cut at the component's grid bound, above which its density
    # is negligible, so that a draw in a very wide window stays finite
    last = x
    for dist in thinning.inner:
        top = _x_bounds(dist)[1]
        drawn = _window_draws(dist, x, np.maximum(x, np.minimum(x + thinning.width, top)), rng)
        keep = drawn >= last
        x, last = x[keep], drawn[keep]
    return x


def _split(stream, total, size):
    # `total` in pieces of at most `size`, each with a child spawned from `stream`
    children = stream.spawn(-(-total // size))
    return [(min(size, total - j * size), child) for j, child in enumerate(children)]


def _stream_share(group, thinning, n, stream):
    # one stream's retained first coordinates of n rows
    chunk = partial(_thinned_chunk, group.components[0], thinning)
    (counter,) = stream.spawn(1)
    if thinning.keep is None:
        candidates = int(counter.binomial(n, thinning.rate))
        return np.concatenate([np.empty(0), *(chunk(m, child) for m, child
                                              in _split(stream, candidates, _CHUNK))])
    # the kept count, then full chunks, each from the next child, until it
    # is reached; the kept sample is cut there
    need = int(counter.binomial(n, thinning.keep))
    kept, total = [np.empty(0)], 0
    while total < need:
        kept.append(chunk(_CHUNK, stream.spawn(1)[0]))
        total += kept[-1].size
    return np.concatenate(kept)[:need]


def mc_conditional_check(group: MixturePriorGroup, claimed: DistSpec, epsilon: float,
                         n_draws: int, rng,
                         alpha: float = DEFAULT_KS_ALPHA) -> CoherenceReport:
    """Epsilon-band conditional check of the claimed nested prior.

    Draws the K-vector from the (possibly ordered) group, keeps draws with
    ``max_i |tau_i| < epsilon`` (``epsilon > 0``, possibly infinite; a NaN
    is refused) and KS-tests the retained first coordinate against
    ``claimed``.  ``rng`` is one ``np.random.Generator``; anything else
    raises :class:`TypeError`.

    The band is thinned exactly, not drawn row by row.  Given ``x_1``, a
    plain group's row lies in the band with probability ``q(x_1) = prod_j
    [F_j(x_1 + eps) - F_j(x_1 - eps)]``.  Each factor is at most ``c_j``, the
    mass of ``F_j``'s heaviest window of width ``2 eps``: every family is
    unimodal, so that window starts in ``[mode_j - 2 eps, mode_j]``, and 64
    steps over that interval bound it to within the mass of one step.  So
    the check draws a candidate count ``M ~ Binomial(n, prod_j c_j)``, draws
    ``x_1`` for the candidates only, and keeps a candidate when ``u_j c_j <
    F_j(x_1 + eps) - F_j(x_1 - eps)`` for every factor, with one uniform per
    factor, drawn for the candidates the factors before it kept.  The kept
    coordinates then have the law of the kept rows of ``n`` full rows, and
    their count the same binomial law.

    Most of those tests never call the CDF.  On a window ``[a, b]`` a unimodal
    density's mass lies between ``(b - a) min(f(a), f(b))`` and ``(b - a)
    max(f(a), f(b))``, or ``(b - a) f(mode)`` when the window holds the mode;
    a uniform below the lower bound keeps the candidate and one at or above
    the upper bound drops it (Marsaglia's squeeze).  The bounds are widened
    by a slack past the rounding of the log density and of the CDF
    difference, so the squeeze takes the decisions the CDF would and seeded
    reports did not change with it.

    An ordered row is kept when ``x_2, ..., x_K`` lie in ``[x_1, x_1 +
    eps)``, one-sided windows whose heaviest masses bound the factors.  An
    identical ordered group's minimum ``y`` has density ``K f(y)
    W(y)^(K-1)``, ``W(y) = F(y + eps) - F(y)``, so its rate is ``K
    c^(K-1)``.  A heterogeneous ordered group's row of the cone ``x_1 <= ...
    <= x_K`` stands for ``1 / P(cone)`` rows of the product, so its rate is
    ``prod_j c_j / P(cone)``, with ``P(cone)`` from the recursion ``G_1 =
    F_1``, ``G_j = int f_j G_(j-1)`` on the grid oracle's coordinate over the
    union of the components' grid bounds.  That grid is uniform between
    consecutive bounds, at most 1/4,000 of the union per step, with at least
    128 steps across each component's bounds and across those of ``x_2..x_K``
    moved down by ``eps``, so components of any widths are resolved.  From K
    = 3 a kept candidate also draws ``x_2..x_K`` inside its window, cut at
    each component's upper grid bound, and is kept if they come out in
    order.  A rate over ``max(32, K)`` candidates per draw raises
    :class:`InsufficientRetentionError`: the cone then holds less than 1/32
    of the product, which rejection sampling the cone refused too (1e6
    proposals per 32,768 rows).  Where the rate passes 1, the check instead
    draws its kept count ``N ~ Binomial(n, P_keep)``, ``P_keep = int f_1 q /
    P(cone)`` with ``q(y) = P(y <= x_2 <= ... <= x_K < y + eps)`` from the
    same quadrature, then candidates until ``N`` are kept, and cuts the kept
    sample at ``N``: the count is exact up to the quadrature's error.  These
    candidates come from an envelope on the grid's cells: a cell in
    proportion to its greatest ``f_1`` times a bound on ``prod_j W_j`` over
    the cell, from the CDF at the cell's ends, then ``x_1`` uniform in the
    cell, kept with ``f_1`` over the cell's greatest and with ``prod_j W_j``
    over the cell's bound, a test the cell's lower bound settles where it
    can.  A candidate then stands for ``K' total / P(cone)`` rows, ``total``
    the envelope's mass and ``K' = K`` for the minimum of an identical group
    (else 1), and few candidates are needed per kept draw whatever K and
    ``eps``.  The first coordinates are drawn on the grid's range, as the
    quadrature counts them.  From K = 3, ``q`` comes from the cone's
    recursion run from each ``F_j`` on the grid merged with the windows'
    ends, split at the first coordinate not below ``y``.

    The count comes from ``rng.spawn(1)[0]``; the candidates then come in
    chunks of ``_CHUNK`` (8,192), and chunk j of ``n_chunks`` draws from
    ``rng.spawn(n_chunks)[j]``.  On the kept-count route they come in full
    chunks, each from the next ``rng.spawn(1)[0]``, until ``N`` are kept.  So
    the call advances the generator's spawn counter by the chunks it used,
    not its bit generator.  The chunks run in order on the calling thread
    and one chunk is in memory at a time; a seeded report depends on the
    chunk sizes.  Only the retained first coordinates outlive a chunk.
    """
    epsilon = float(epsilon)
    n_draws = int(n_draws)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if n_draws < 100_000:
        raise ValueError(f"need n_draws >= 100000, got {n_draws}")
    if group.family == "dirichlet":
        raise NotImplementedError("the conditional check applies to scalar families only")
    if group.k < 2:
        raise ValueError("need a group with K >= 2 components")

    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    retained = _stream_share(group, _thinning(group, epsilon), n_draws, rng)
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
