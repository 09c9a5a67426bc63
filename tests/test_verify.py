"""Numeric oracle tests: KS machinery, grid product check, epsilon-band conditioning."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixprior import (
    CoherenceReport,
    Gamma,
    GridCoverageError,
    InsufficientRetentionError,
    InvGamma,
    MixturePriorGroup,
    NormalPrec,
    NormalVar,
    coherent_product,
    ks_critical_value,
    ks_statistic,
    mc_conditional_check,
    sample_ordered,
    verify_product_coherence,
)
from mixprior import verify
from mixprior.cli import MAX_MC_DRAWS
from mixprior.reports import from_machine, to_machine

SEED = 511


# ---------------------------------------------------------------------------
# contrasts


def test_transformed_density_matches_product_form():
    # empirical density of (first, tau) equals f(first) * f(tau + first) on a
    # coarse 2-d histogram, K=2 standard normal components
    rng = np.random.default_rng(SEED)
    n = 400_000
    draws = rng.normal(size=(n, 2))
    first = draws[:, 0]
    tau = draws[:, 1] - draws[:, 0]
    edges = np.linspace(-2.0, 2.0, 9)
    counts, _, _ = np.histogram2d(first, tau, bins=(edges, edges))
    dist = NormalVar(0.0, 1.0)
    for i in range(8):
        for j in range(8):
            # probability of the bin from the product form, midpoint-refined
            sub_x = np.linspace(edges[i], edges[i + 1], 6)
            xs = 0.5 * (sub_x[:-1] + sub_x[1:])
            sub_y = np.linspace(edges[j], edges[j + 1], 6)
            ys = 0.5 * (sub_y[:-1] + sub_y[1:])
            area = (edges[1] - edges[0]) ** 2 / (len(xs) * len(ys))
            prob = sum(
                math.exp(dist.log_pdf(x)) * math.exp(dist.log_pdf(t + x))
                for x in xs for t in ys
            ) * area
            expected = n * prob
            tolerance = 6.0 * math.sqrt(expected) + 10.0
            assert abs(counts[i, j] - expected) < tolerance, (i, j)


# ---------------------------------------------------------------------------
# KS machinery


def test_ks_statistic_at_quantiles_is_small():
    n = 999
    grid = (np.arange(1, n + 1)) / (n + 1)
    stat = ks_statistic(grid, lambda x: x)
    assert stat <= 1.0 / (n + 1) + 1e-12


def test_ks_statistic_degenerate_sample():
    stat = ks_statistic(np.zeros(1000), NormalVar(0.0, 1.0))
    assert stat == pytest.approx(0.5, abs=1e-12)


def test_ks_uniform_pseudo_samples_below_critical():
    rng = np.random.default_rng(SEED + 1)
    stat = ks_statistic(rng.uniform(size=100_000), lambda x: np.clip(x, 0.0, 1.0))
    assert stat < ks_critical_value(100_000, alpha=0.001)


def _one_shot_ks(samples, cdf):
    # reference: the CDF of every sorted sample in one call, against the (n + 1) grid
    x = np.sort(samples)
    f = cdf(x)
    grid = np.arange(x.size + 1) / x.size
    return max(np.max(f - grid[:-1]), np.max(grid[1:] - f))


@pytest.mark.parametrize("dist, other", [
    (InvGamma(3.0, 2.0), InvGamma(3.0, 2.2)),
    (Gamma(0.7, 1.5), Gamma(0.7, 1.6)),
    (NormalVar(1.0, 4.0), NormalVar(1.1, 4.0)),
], ids=["inv-gamma", "gamma", "normal"])
def test_chunked_ks_statistic_matches_a_one_shot_reference(dist, other):
    # the incomplete-gamma series stops on the worst point of its array, so
    # CDF values computed chunk by chunk may move in the last bit
    samples = dist.sample(np.random.default_rng(SEED + 2), size=150_000)
    for claim in (dist, other):
        assert abs(ks_statistic(samples, claim) - _one_shot_ks(samples, claim.cdf)) <= 1e-15


def test_ks_statistic_memory_grows_by_one_sorted_copy():
    # a sorted copy takes 8 bytes per sample; the CDF runs on fixed chunks
    dist = InvGamma(3.0, 2.0)
    rng = np.random.default_rng(SEED)
    peaks = []
    for n in (150_000, 450_000):
        samples = dist.sample(rng, size=n)
        tracemalloc.start()
        try:
            ks_statistic(samples, dist)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 300_000 < 12


def test_ks_critical_value_matches_asymptotic_constant():
    assert ks_critical_value(10_000, alpha=0.001) == pytest.approx(1.9495 / 100.0, abs=1e-4)
    with pytest.raises(ValueError):
        ks_critical_value(100, alpha=0.001)


# ---------------------------------------------------------------------------
# grid product check


def test_grid_check_standard_normals():
    report = verify_product_coherence([NormalVar(0, 1)] * 2, NormalVar(0.0, 0.5))
    assert report.passed
    assert report.method == "grid"
    assert report.sup_norm_error <= 1e-8


def test_grid_check_invgamma_pair():
    report = verify_product_coherence([InvGamma(1.5, 2.0), InvGamma(2.5, 4.0)],
                                      InvGamma(5.0, 4.0 / 3.0))
    assert report.passed


def test_grid_check_deliberate_mismatch_fails_with_known_sup_error():
    report = verify_product_coherence([NormalVar(0, 1)] * 2, NormalVar(0.0, 1.0))
    assert not report.passed
    # sup |N(0, 0.5) - N(0, 1)| density difference, attained at the origin
    assert report.sup_norm_error == pytest.approx(0.16524730314632358, abs=1e-6)


def test_grid_check_rejects_uncovering_grid():
    with pytest.raises(GridCoverageError):
        verify_product_coherence([NormalVar(0, 1)] * 2, NormalVar(0.0, 0.5),
                                 grid=(-0.5, 0.5, 2001))


def test_grid_check_rejects_small_grids():
    with pytest.raises(ValueError):
        verify_product_coherence([NormalVar(0, 1)] * 2, NormalVar(0.0, 0.5),
                                 grid=(-10, 10, 500))


def test_grid_check_rejects_a_nan_or_negative_tolerance():
    for sup_tol in (math.nan, -1e-6):
        with pytest.raises(ValueError, match="sup_tol"):
            verify_product_coherence([NormalVar(0, 1)] * 2, NormalVar(0.0, 0.5), sup_tol=sup_tol)
    # an unbounded tolerance passes every claim, and its report round-trips
    report = verify_product_coherence([NormalVar(0, 1)] * 2, NormalVar(0.0, 1.0),
                                      sup_tol=math.inf)
    assert report.passed and from_machine(to_machine(report)) == report


def test_grid_certifies_randomized_instances_every_family():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(6):
        k = int(rng.integers(2, 7))
        normals = [NormalVar(float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 5.0)))
                   for _ in range(k)]
        report = verify_product_coherence(normals, coherent_product(normals))
        assert report.passed, normals
        gammas = [Gamma(float(rng.uniform(2.0, 8.0)), float(rng.uniform(0.3, 4.0)))
                  for _ in range(k)]
        report = verify_product_coherence(gammas, coherent_product(gammas))
        assert report.passed, gammas


# ---------------------------------------------------------------------------
# grid in log x for gamma and inverse gamma


def _certify(components):
    return verify_product_coherence(components, coherent_product(components))


# exact products a grid in x failed: the heavy tail (3.07e-4), nested gamma
# shape 1.5 (5.3e-6), large units of x (gamma 9.5e-5 at b = 1e9, inverse gamma
# 2.1e-4 at b = 1e6) and nested shape 0.3, where the density in x is unbounded
EXACT_PRODUCTS = {
    "heavy_tail": [InvGamma(0.1, 1.0)] * 2,
    "gamma_1.2_1.3": [Gamma(1.2, 1.0), Gamma(1.3, 1.0)],
    "gamma_0.6_0.7": [Gamma(0.6, 1.0), Gamma(0.7, 1.0)],
    **{f"{family.__name__}_3_4_b{b:g}": [family(3.0, b), family(4.0, b)]
       for family in (Gamma, InvGamma) for b in (1.0, 1e3, 1e6, 1e9)},
}


@pytest.mark.parametrize("components", EXACT_PRODUCTS.values(), ids=EXACT_PRODUCTS.keys())
def test_grid_certifies_exact_positive_products_in_log_x(components):
    report = _certify(components)
    assert report.passed and report.sup_norm_error <= 1e-12, report.sup_norm_error


def test_grid_bounds_of_a_huge_shape_need_no_search():
    # the bounds are closed-form: no cdf bisection, whose cost grew with the shape
    start = time.perf_counter()
    report = _certify([Gamma(1e8, 1.0)] * 2)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(report.sup_norm_error)


@pytest.mark.parametrize("b", [1.0, 1e6])
def test_grid_refuses_a_tail_beyond_the_double_range(b):
    # nested shape 0.013: the log x grid would reach below -700
    with pytest.raises(GridCoverageError):
        _certify([Gamma(0.883, b), Gamma(0.13, b)])


@pytest.mark.parametrize("factor", [1.25, 1.0 + 1e-3])
@pytest.mark.parametrize("family", [Gamma, InvGamma], ids=["gamma", "inv_gamma"])
def test_grid_rejects_a_claim_with_its_second_parameter_off(family, factor):
    components = [family(2.0, 1.0), family(3.0, 2.0)]
    first, second = coherent_product(components).params()
    report = verify_product_coherence(components, family(first, factor * second))
    assert not report.passed
    assert report.sup_norm_error > 1e-4


def test_explicit_grid_of_a_positive_family_is_in_x_above_zero():
    components = [Gamma(2.0, 1.0)] * 2
    claimed = coherent_product(components)
    assert verify_product_coherence(components, claimed, grid=(1e-6, 100.0, 4001)).passed
    with pytest.raises(ValueError):
        verify_product_coherence(components, claimed, grid=(0.0, 100.0, 4001))


def test_grid_entries_left_none_take_their_defaults():
    components = [Gamma(2.0, 1.0)] * 2
    claimed = coherent_product(components)
    default = verify_product_coherence(components, claimed)
    assert verify_product_coherence(components, claimed, grid=(None, None, None)) == default
    assert verify_product_coherence(components, claimed, grid=(None, None, 2001)).passed
    with pytest.raises(GridCoverageError):
        verify_product_coherence(components, claimed, grid=(3.0, None, None))


# ---------------------------------------------------------------------------
# epsilon-band conditional check


def test_mc_check_normal_pair_passes():
    group = MixturePriorGroup(components=(NormalVar(0, 1),) * 2)
    report = mc_conditional_check(group, NormalVar(0.0, 0.5), epsilon=0.02,
                                  n_draws=1_000_000, rng=np.random.default_rng(SEED + 3))
    assert report.passed
    assert report.n_retained >= 200


def test_mc_check_ordered_variant_passes_neutrality():
    group = MixturePriorGroup(components=(NormalVar(0, 1),) * 2, ordered=True)
    report = mc_conditional_check(group, NormalVar(0.0, 0.5), epsilon=0.02,
                                  n_draws=1_000_000, rng=np.random.default_rng(SEED + 4))
    assert report.passed


def test_mc_check_wrong_claimed_fails():
    group = MixturePriorGroup(components=(NormalVar(0, 1),) * 2)
    report = mc_conditional_check(group, NormalVar(0.0, 1.0), epsilon=0.02,
                                  n_draws=1_000_000, rng=np.random.default_rng(SEED + 5))
    assert not report.passed


def test_mc_check_insufficient_retention():
    group = MixturePriorGroup(components=(NormalVar(0, 1),) * 2)
    with pytest.raises(InsufficientRetentionError):
        mc_conditional_check(group, NormalVar(0.0, 0.5), epsilon=1e-6,
                             n_draws=100_000, rng=np.random.default_rng(SEED + 6))


def test_mc_check_input_validation():
    group = MixturePriorGroup(components=(NormalVar(0, 1),) * 2)
    for epsilon in (0.0, -0.02, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            mc_conditional_check(group, NormalVar(0, 0.5), epsilon=epsilon,
                                 n_draws=1_000_000, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        mc_conditional_check(group, NormalVar(0, 0.5), epsilon=0.02,
                             n_draws=1000, rng=np.random.default_rng(0))
    # one generator: a sequence of them, a seed or a legacy RandomState is refused
    for rng in ([np.random.default_rng(0), np.random.default_rng(1)], 0,
                np.random.RandomState(0)):
        with pytest.raises(TypeError, match="Generator"):
            mc_conditional_check(group, NormalVar(0, 0.5), epsilon=0.02,
                                 n_draws=1_000_000, rng=rng)


def test_mc_epsilon_consistency_schedule():
    # fixed retained-count budget via proportionally larger n_draws; the
    # epsilon-band bias of the ordered conditional shrinks with epsilon
    comp = NormalVar(0.0, 1.0)
    group = MixturePriorGroup(components=(comp,) * 2, ordered=True)
    claimed = coherent_product(group.components)
    stats = {}
    for eps, n_draws in ((0.1, 540_000), (0.05, 1_080_000), (0.02, 2_700_000)):
        report = mc_conditional_check(group, claimed, epsilon=eps, n_draws=n_draws,
                                      rng=np.random.default_rng(SEED + 7))
        stats[eps] = report.ks_statistic
    assert stats[0.02] < stats[0.05] < stats[0.1]


def test_reports_are_deterministic_and_serializable():
    group = MixturePriorGroup(components=(Gamma(2.0, 1.0),) * 2)
    claimed = coherent_product(group.components)
    a = mc_conditional_check(group, claimed, epsilon=0.05, n_draws=200_000,
                             rng=np.random.default_rng(77))
    b = mc_conditional_check(group, claimed, epsilon=0.05, n_draws=200_000,
                             rng=np.random.default_rng(77))
    assert a == b
    assert to_machine(a) == to_machine(b)
    assert isinstance(a, CoherenceReport)


def _block_rows(n, block_rows):
    return [min(block_rows, n - start) for start in range(0, n, block_rows)]


def _thinned_reference(group, epsilon, n, stream):
    # reference: the candidate count of n rows from the stream's first spawned
    # child, then chunks of candidates, each from the next spawned child.  A
    # chunk draws the first coordinates, then for each factor one uniform per
    # candidate still kept, tested against its window mass, which a factor
    # equal to the one before it does not compute again.  Every mass comes
    # from the CDF, so the band check's squeeze must take the same decisions
    thinning = verify._thinning(group, epsilon)
    factors = thinning.factors
    count = int(stream.spawn(1)[0].binomial(n, thinning.rate))
    sizes = _block_rows(count, verify._CHUNK)
    kept = [np.empty(0)]
    for size, child in zip(sizes, stream.spawn(len(sizes))):
        x = group.components[0].sample(child, size=size)
        for j, (dist, c, lo, hi) in enumerate(factors):
            if j == 0 or factors[j] != factors[j - 1]:
                cdf = dist.cdf(np.concatenate([x + lo, x + hi]))
                mass = cdf[x.size:] - cdf[:x.size]
            keep = child.uniform(size=x.size) * c < mass
            x, mass = x[keep], mass[keep]
        kept.append(x)
    return np.concatenate(kept)


_K3_COMPONENTS = (NormalPrec(0.5, 4.0), NormalPrec(0.0, 2.0), NormalPrec(1.0, 1.0))


@pytest.mark.parametrize("group", [
    MixturePriorGroup(components=_K3_COMPONENTS),
    MixturePriorGroup(components=_K3_COMPONENTS, ordered=True),
    MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3),
], ids=["heterogeneous", "heterogeneous-ordered", "identical"])
def test_mc_check_memory_does_not_grow_with_the_draws(group):
    # 2e6 draws of K = 3 held at once would take 46 MiB; the check streams blocks
    claimed = coherent_product(group.components)
    tracemalloc.start()
    try:
        report = mc_conditional_check(group, claimed, epsilon=0.05, n_draws=2_000_000,
                                      rng=np.random.default_rng(SEED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 32 << 20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("group", [
    MixturePriorGroup(components=(NormalVar(0.0, 1.0), NormalVar(1.0, 2.0))),
    MixturePriorGroup(components=(InvGamma(3.0, 1.0),) * 8, ordered=True),
], ids=["normal-k2", "inv-gamma-k8-ordered"])
def test_mc_check_keeps_every_draw_within_the_cli_budget(group):
    # an unbounded band keeps every draw; the CLI's --n-draws bound budgets
    # 128 bytes per draw whatever K, so the peak may grow by no more than that
    claimed = coherent_product(group.components)
    peaks = []
    for n in (200_000, 600_000):
        tracemalloc.start()
        try:
            report = mc_conditional_check(group, claimed, epsilon=math.inf, n_draws=n,
                                          rng=np.random.default_rng(SEED))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.n_retained == n
    assert (peaks[1] - peaks[0]) / 400_000 < (2 << 30) / MAX_MC_DRAWS


def _band_report(retained, claimed, epsilon):
    ks = ks_statistic(retained, claimed)
    critical = ks_critical_value(retained.size)
    return CoherenceReport(method="mc_band", passed=ks < critical, ks_statistic=ks,
                           ks_critical=critical, ks_alpha=verify.DEFAULT_KS_ALPHA,
                           n_retained=int(retained.size), epsilon=epsilon)


@pytest.mark.parametrize("block_rows", [1000, 7919])
@pytest.mark.parametrize("ordered", [False, True], ids=["plain", "ordered"])
def test_identical_group_report_equals_one_shot_draws_of_each_block(block_rows, ordered,
                                                                    monkeypatch):
    # reference: each chunk's spawned child draws its candidates' first
    # coordinates, then K - 1 uniforms against one window mass per candidate
    group = MixturePriorGroup(components=(Gamma(3.0, 2.0),) * 3, ordered=ordered)
    claimed = coherent_product(group.components)
    n, epsilon = 1_500_000, 0.1
    monkeypatch.setattr(verify, "_CHUNK", block_rows)
    reference = _band_report(_thinned_reference(group, epsilon, n, np.random.default_rng(SEED)),
                             claimed, epsilon)
    report = mc_conditional_check(group, claimed, epsilon=epsilon, n_draws=n,
                                  rng=np.random.default_rng(SEED))
    assert report == reference


class _CountingRng:
    """Forwards ``normal`` and ``uniform`` to a generator and logs each call's size."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def normal(self, loc, scale, size):
        self.calls.append(("normal", size))
        return self.rng.normal(loc, scale, size)

    def uniform(self, size):
        self.calls.append(("uniform", size))
        return self.rng.uniform(size=size)


@pytest.mark.parametrize("group", [
    MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3),
    MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3, ordered=True),
    MixturePriorGroup(components=_K3_COMPONENTS),
], ids=["identical", "identical-ordered", "heterogeneous"])
def test_band_block_draws_a_column_only_for_rows_still_in_the_band(group):
    # a chunk of m candidates draws one column of m first coordinates; then
    # each factor draws its uniforms only for the candidates the factors
    # before it kept, so no other column of the m rows is ever drawn
    m = 10_000
    rng = _CountingRng(SEED)
    retained = verify._thinned_chunk(group.components[0], verify._thinning(group, 0.05), m, rng)
    assert 0 < retained.size < m
    assert [kind for kind, _ in rng.calls] == ["normal", "uniform", "uniform"]
    sizes = [size for _, size in rng.calls]
    assert sizes[0] == sizes[1] == m and retained.size <= sizes[2] < m


def _one_shot_retained(group, epsilon, m, rng):
    # reference: all K columns of m rows at once (ordered rows by sorting an
    # identical group, or by rejection from 8m proposals), then the band
    if group.identical:
        draws = group.components[0].sample(rng, size=(m, group.k))
        if group.ordered:
            draws.sort(axis=1)
    elif group.ordered:
        draws = np.stack([c.sample(rng, size=8 * m) for c in group.components], axis=1)
        draws = draws[np.all(np.diff(draws, axis=1) >= 0.0, axis=1)]
        assert len(draws) >= m
        draws = draws[:m]
    else:
        draws = np.stack([c.sample(rng, size=m) for c in group.components], axis=1)
    return draws[np.max(np.abs(draws - draws[:, :1]), axis=1) < epsilon, 0]


def _two_sample_ks(a, b):
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, both, side="right") / a.size
                               - np.searchsorted(b, both, side="right") / b.size)))


_SHIFTED = (NormalVar(0.0, 1.0), NormalVar(0.5, 1.0), NormalVar(1.0, 1.0))


def _sequential(group, epsilon, n, stream):
    # one stream's share of the band check
    return verify._stream_share(group, verify._thinning(group, epsilon), n, stream)


_LAW_CASES = {
    "identical": (MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3), 0.2),
    "heterogeneous": (MixturePriorGroup(components=_SHIFTED), 0.2),
    "identical-ordered": (MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3,
                                            ordered=True), 0.2),
    "heterogeneous-ordered": (MixturePriorGroup(components=_SHIFTED, ordered=True), 0.2),
    "identical-k2": (MixturePriorGroup(components=(Gamma(3.0, 2.0),) * 2), 0.1),
    "heterogeneous-k2": (MixturePriorGroup(components=(NormalVar(0.0, 1.0),
                                                       NormalVar(1.0, 2.0))), 0.1),
    "identical-ordered-k2": (MixturePriorGroup(components=(InvGamma(3.0, 2.0),) * 2,
                                               ordered=True), 0.05),
    # mode 0, where the density is unbounded
    "gamma-0.5": (MixturePriorGroup(components=(Gamma(0.5, 1.0),) * 2), 0.1),
    "gamma-0.5-ordered": (MixturePriorGroup(components=(Gamma(0.5, 1.0),) * 3,
                                            ordered=True), 0.2),
    "inv-gamma-0.1": (MixturePriorGroup(components=(InvGamma(0.1, 1.0),) * 2), 0.5),
    # K c^(K-1) > 1: the band keeps more than 1/K of the rows; the kept count is drawn
    "wide-identical-ordered": (MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3,
                                                 ordered=True), 2.0),
}


@pytest.mark.parametrize("group, epsilon", _LAW_CASES.values(), ids=_LAW_CASES.keys())
def test_band_block_keeps_the_law_of_one_shot_draws(group, epsilon):
    # 30 streams of m rows each way, on disjoint seeds: the retention counts
    # agree within 4 binomial standard errors, and the retained first
    # coordinates pass a two-sample KS test at alpha = 0.001
    m, blocks = 20_000, 30
    lazy = [_sequential(group, epsilon, m, np.random.default_rng([SEED, i]))
            for i in range(blocks)]
    full = [_one_shot_retained(group, epsilon, m, np.random.default_rng([SEED + 1, i]))
            for i in range(blocks)]
    lazy, full = np.concatenate(lazy), np.concatenate(full)
    rows = blocks * m
    p = (lazy.size + full.size) / (2 * rows)
    assert abs(lazy.size - full.size) < 4.0 * math.sqrt(2.0 * rows * p * (1.0 - p)), \
        (lazy.size, full.size)
    # the two-sample critical value is the one-sample one at n m / (n + m)
    critical = ks_critical_value(lazy.size * full.size // (lazy.size + full.size), alpha=0.001)
    assert _two_sample_ks(lazy, full) < critical


_ORDERED_BAND = (InvGamma(1.5, 2.0), InvGamma(2.5, 4.0))

_ORDERED_LAW_CASES = {
    # c_2 / P(cone) = 0.146 / 0.114 > 1: the kept count is drawn at P(keep)
    "ordered-band-pair": (MixturePriorGroup(components=_ORDERED_BAND, ordered=True), 0.02),
    # three window factors under 1 / P(cone), then x_2, x_3 drawn in the window
    "heterogeneous-k3": (MixturePriorGroup(components=_K3_COMPONENTS, ordered=True), 0.2),
    # past rate 1 (1.19): the kept count comes from the windows' inner quadrature
    "heterogeneous-k3-wide": (MixturePriorGroup(components=_K3_COMPONENTS, ordered=True), 1.0),
    # every row kept: x_2, x_3 are drawn in windows cut at their grid bounds
    "heterogeneous-k3-unbounded": (MixturePriorGroup(components=_K3_COMPONENTS, ordered=True),
                                   math.inf),
    "wide-identical-triple": (MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3,
                                                ordered=True), 2.0),
    # every row kept: the minimum of eight
    "identical-eight-unbounded": (MixturePriorGroup(components=(InvGamma(3.0, 1.0),) * 8,
                                                    ordered=True), math.inf),
}


@pytest.mark.parametrize("group, epsilon", _ORDERED_LAW_CASES.values(),
                         ids=_ORDERED_LAW_CASES.keys())
def test_ordered_band_keeps_the_law_of_sample_ordered_rows(group, epsilon):
    # 30 streams of m rows each way: the thinned band against one-shot
    # sample_ordered rows cut at x_K - x_1 < epsilon.  The retention counts
    # agree within 4 binomial standard errors and the retained first
    # coordinates pass a pooled two-sample KS test at alpha = 0.001
    m, blocks = 20_000, 30
    thinned = np.concatenate([_sequential(group, epsilon, m, np.random.default_rng([SEED, i]))
                              for i in range(blocks)])
    rows = [sample_ordered(group, np.random.default_rng([SEED + 1, i]), size=m)
            for i in range(blocks)]
    direct = np.concatenate([r[r[:, -1] - r[:, 0] < epsilon, 0] for r in rows])
    total = blocks * m
    p = (thinned.size + direct.size) / (2 * total)
    # (an unbounded band keeps every row on both sides: a difference of 0)
    assert abs(thinned.size - direct.size) <= 4.0 * math.sqrt(2.0 * total * p * (1.0 - p)), \
        (thinned.size, direct.size)
    critical = ks_critical_value(thinned.size * direct.size // (thinned.size + direct.size),
                                 alpha=0.001)
    assert _two_sample_ks(thinned, direct) < critical


_STANDARD = NormalVar(0.0, 1.0)


@pytest.mark.parametrize("factors, cdf", [
    # a window that holds every x: the kept law is f_1's
    (((_STANDARD, 1.0, -math.inf, math.inf),), _STANDARD.cdf),
    # two windows [x, inf): the minimum of three, whose survival is (1 - F)^3
    (((_STANDARD, 1.0, 0.0, math.inf),) * 2, lambda x: 1.0 - (1.0 - _STANDARD.cdf(x)) ** 3),
], ids=["first-density", "minimum-of-three"])
def test_enveloped_candidates_keep_their_law_in_coarse_cells(factors, cdf):
    # cells two standard deviations wide, whose bounds leave most tests
    # open: a candidate drawn uniform in its cell must be kept with f_1 over
    # the cell's greatest f_1 and with the product of its window masses over
    # the cell's bound on it, or the kept law is off
    envelope = verify._envelope(_STANDARD, factors, np.linspace(-6.0, 6.0, 7))
    kept = verify._enveloped_candidates(_STANDARD, factors, envelope, 200_000,
                                        np.random.default_rng(SEED))
    assert ks_statistic(kept, cdf) < ks_critical_value(kept.size)


def test_every_group_is_thinned():
    # plain groups draw a candidate count at any width, up to rate 1; an
    # identical ordered band past rate 1 and a heterogeneous ordered one
    # draw their kept count, then candidates from the grid's envelope; below
    # rate 1 they draw a candidate count from the first component
    for group in (MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3),
                  MixturePriorGroup(components=_SHIFTED)):
        wide = verify._thinning(group, 1e3)
        assert len(wide.factors) == 2 and wide.rate == 1.0 and wide.keep is None
        assert not wide.envelope
    identical = MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3, ordered=True)
    narrow, wide = verify._thinning(identical, 0.2), verify._thinning(identical, 2.0)
    assert narrow.keep is None and narrow.rate <= 1.0 and not narrow.inner
    assert len(narrow.factors) == 2 and not narrow.envelope
    assert 0.0 < wide.keep < 1.0 and wide.envelope and len(wide.factors) == 2
    pair = verify._thinning(MixturePriorGroup(components=_ORDERED_BAND, ordered=True), 0.02)
    assert pair.keep == pytest.approx(0.1505334, rel=1e-6) and pair.envelope
    assert not pair.inner
    ordered_triple = MixturePriorGroup(components=_K3_COMPONENTS, ordered=True)
    triple = verify._thinning(ordered_triple, 0.05)
    assert triple.keep is None and triple.inner == _K3_COMPONENTS[1:]
    # windows past the grid hold the upper cone, so a band wider than the
    # components keeps every row of the cone
    grid = verify._grid(_K3_COMPONENTS, 1e3)
    cone = verify._cone_mass(grid, _K3_COMPONENTS)
    assert verify._keep_probability(grid, ordered_triple, 1e3, cone) == pytest.approx(1.0,
                                                                                      rel=1e-10)
    # an identical group past the largest factorial a double holds
    wide = MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 200, ordered=True)
    assert verify._thinning(wide, 30.0).keep == pytest.approx(1.0)


@pytest.mark.parametrize("group", [
    MixturePriorGroup(components=(Gamma(3.0, 2.0),) * 3),
    MixturePriorGroup(components=_K3_COMPONENTS),
    MixturePriorGroup(components=_ORDERED_BAND, ordered=True),
    MixturePriorGroup(components=_K3_COMPONENTS, ordered=True),
], ids=["identical", "heterogeneous", "heterogeneous-ordered", "heterogeneous-ordered-k3"])
def test_mc_report_is_a_sequential_pass_over_spawned_chunks(group, monkeypatch):
    # 200,000 rows make a few thousand candidates, in chunks of 700 here, the
    # last one short; the ordered pair passes rate 1 and draws its kept count
    # from many full chunks, one child each
    claimed = coherent_product(group.components)
    n, epsilon = 200_000, 0.1
    monkeypatch.setattr(verify, "_CHUNK", 700)
    reference = _band_report(_sequential(group, epsilon, n, np.random.default_rng(SEED)),
                             claimed, epsilon)
    report = mc_conditional_check(group, claimed, epsilon=epsilon, n_draws=n,
                                  rng=np.random.default_rng(SEED))
    assert report == reference


def test_band_check_starts_no_thread(monkeypatch):
    # a binomial-count group and the ordered pair, which takes the kept-count
    # route, run every chunk on the calling thread
    import threading

    def refuse(self):
        raise AssertionError("the band check started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    plain = MixturePriorGroup(components=(Gamma(3.0, 2.0),) * 3)
    pair = MixturePriorGroup(components=_ORDERED_BAND, ordered=True)
    assert verify._thinning(plain, 0.1).keep is None
    assert verify._thinning(pair, 0.02).keep is not None
    for group, epsilon in ((plain, 0.1), (pair, 0.02)):
        report = mc_conditional_check(group, coherent_product(group.components),
                                      epsilon=epsilon, n_draws=200_000,
                                      rng=np.random.default_rng(SEED))
        assert report.n_retained >= 200


def test_mc_check_rejects_dirichlet_and_degenerate_groups():
    from mixprior import Dirichlet
    group = MixturePriorGroup(components=(Dirichlet((1, 1)),) * 2)
    with pytest.raises(NotImplementedError):
        mc_conditional_check(group, NormalVar(0, 1), epsilon=0.05, n_draws=100_000,
                             rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# exact thinning of the band


_BOUND_DISTS = [NormalVar(1.0, 4.0), NormalPrec(-2.0, 9.0), Gamma(0.5, 1.0), Gamma(3.0, 2.0),
                InvGamma(0.1, 1.0), InvGamma(3.0, 2.0)]


@pytest.mark.parametrize("epsilon", [1e-4, 0.02, 1.0, 10.0])
@pytest.mark.parametrize("dist", _BOUND_DISTS, ids=repr)
def test_window_bound_holds_every_computed_window(dist, epsilon):
    # the two-sided windows (x - eps, x + eps) of a plain band and the
    # one-sided [y, y + eps) of an ordered one, computed on a dense grid of
    # starts about the mode: the bound is at least each of them, and within
    # a few percent of the heaviest
    mode = dist.mode()
    for width, lo, hi in ((2.0 * epsilon, -epsilon, epsilon), (epsilon, 0.0, epsilon)):
        bound = verify._window_bound(dist, width)
        starts = mode + width * np.linspace(-1.5, 0.5, 40_001)
        mass = verify._window_mass(dist, starts, starts + width)
        assert np.max(mass) <= bound <= 1.0
        # the same windows about their centres x, as the band computes them
        x = starts - lo
        assert np.max(verify._window_mass(dist, x + lo, x + hi)) <= bound
        assert bound <= 1.05 * np.max(mass) + 1e-12, (bound, np.max(mass))


_SCALAR_FAMILIES = {"normal_var": NormalVar, "normal_prec": NormalPrec, "gamma": Gamma,
                    "inv_gamma": InvGamma}


@st.composite
def _windows(draw):
    # a FAMILIES row, then one window [lo, hi]: anywhere, about the mode,
    # touching or below 0, or with an infinite edge
    family = draw(st.sampled_from(sorted(_SCALAR_FAMILIES)))
    spread = 10.0 ** draw(st.floats(-3.0, 3.0))
    if family in ("gamma", "inv_gamma"):
        dist = _SCALAR_FAMILIES[family](10.0 ** draw(st.floats(math.log10(0.05), 6.0)), spread)
    else:
        dist = _SCALAR_FAMILIES[family](draw(st.floats(-100.0, 100.0)), spread)
    width = 10.0 ** draw(st.floats(-9.0, 3.0))
    mode = dist.mode()
    where = draw(st.sampled_from(["anywhere", "mode", "zero", "infinite"]))
    if where == "anywhere":
        lo = mode + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, 4.0))
    elif where == "mode":
        lo = mode - width * draw(st.floats(0.0, 1.0))
    elif where == "zero":
        lo = -width * draw(st.floats(0.0, 1.0))
    else:
        lo = draw(st.sampled_from([-math.inf, mode, mode - width]))
        return dist, lo, math.inf if lo > -math.inf and draw(st.booleans()) else lo + width
    return dist, lo, lo + width


@settings(max_examples=400, deadline=None)
@given(window=_windows())
# windows holding the mode, where an upper bound from the edges alone falls
# short, touching 0, or with an infinite edge
@example(window=(NormalVar(0.0, 1.0), -1.0, 1.0))
@example(window=(Gamma(3.0, 1.0), 1.5, 2.5))
@example(window=(InvGamma(2.0, 1.0), 0.2, 0.5))
@example(window=(Gamma(0.5, 1.0), 0.0, 1e-9))
@example(window=(Gamma(1e6, 1.0), 999_999.0, 1_000_000.0))
@example(window=(NormalPrec(1.0, 4.0), -math.inf, 1.2))
@example(window=(InvGamma(0.05, 1e3), 0.0, math.inf))
def test_squeeze_brackets_every_window_mass(window):
    # the band check settles a window test by its squeeze, without the CDF,
    # only if the bounds hold the mass the CDF gives
    dist, lo, hi = window
    lo, hi = np.array([lo]), np.array([hi])
    low, high = verify._squeeze(dist, lo, hi)
    mass = verify._window_mass(dist, lo, hi)
    assert low[0] <= mass[0] <= high[0], (low, mass, high)


def test_squeeze_sends_few_window_edges_to_the_cdf(monkeypatch):
    # on the certify benchmark's normal_var_k2 group the bounds settle all but
    # a few percent of a chunk's window tests
    group = MixturePriorGroup(components=(NormalVar(0.0, 1.0), NormalVar(1.0, 2.0)))
    thinning = verify._thinning(group, 0.02)
    cdf, points = NormalVar.cdf, []

    def counting_cdf(self, x):
        points.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(NormalVar, "cdf", counting_cdf)
    kept = verify._thinned_chunk(group.components[0], thinning, verify._CHUNK,
                                 np.random.default_rng(SEED))
    assert kept.size > 0
    assert 0 < sum(points) < 0.1 * 2 * verify._CHUNK, sum(points)


@pytest.mark.parametrize("ordered", [False, True], ids=["plain", "ordered"])
def test_unbounded_band_keeps_every_row_without_a_cdf_at_infinity(ordered, monkeypatch):
    # the window edges x -+ inf take their limits without a CDF call
    cdf = Gamma.cdf

    def finite_cdf(self, x):
        assert np.all(np.isfinite(x))
        return cdf(self, x)

    monkeypatch.setattr(Gamma, "cdf", finite_cdf)
    group = MixturePriorGroup(components=(Gamma(2.0, 1.0),) * 3, ordered=ordered)
    report = mc_conditional_check(group, coherent_product(group.components), epsilon=math.inf,
                                  n_draws=100_000, rng=np.random.default_rng(SEED))
    assert report.n_retained == 100_000


@pytest.mark.parametrize("components, epsilon, match", [
    # x_1 <= x_2 has probability Phi(-10 / 0.014) = 0 in doubles: no rate exists
    ((NormalPrec(10.0, 1e4), NormalPrec(0.0, 1e4)), 0.05, "has no mass"),
    # Phi(-4 / sqrt(2)) = 0.0023 of the product in the cone: 295 candidates per draw
    ((NormalVar(4.0, 1.0), NormalVar(0.0, 1.0)), 2.0, "295 candidates per draw, over 32"),
], ids=["empty", "too-small"])
def test_ordered_group_with_too_little_cone_raises_insufficient_retention(components, epsilon,
                                                                          match):
    group = MixturePriorGroup(components=components, ordered=True)
    with pytest.raises(InsufficientRetentionError, match=match):
        mc_conditional_check(group, components[1], epsilon=epsilon, n_draws=100_000,
                             rng=np.random.default_rng(SEED))


def _phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@pytest.mark.parametrize("components, epsilon, p_keep", [
    # standard deviations 1000 and 0.001, each resolved on its own grid
    # bounds; x_1 - x_2 ~ N(-1, 1e6): the kept count is drawn at P(keep)
    ((NormalVar(0.0, 1e6), NormalVar(1.0, 1e-6)), 100.0,
     (_phi(1e-3) - _phi(-99e-3)) / _phi(1e-3)),
    # the first one's bounds in log x lie below -700, where they collapse and
    # add no points: x_1 is 0 in doubles, so the band keeps x_2 < 0.5
    ((Gamma(1e-10, 1e308), Gamma(2.0, 1.0)), 0.5, 1.0 - 1.5 * math.exp(-0.5)),
], ids=["scales-apart", "collapsed-bounds"])
def test_ordered_band_runs_on_components_of_any_widths(components, epsilon, p_keep):
    group = MixturePriorGroup(components=components, ordered=True)
    n = 100_000
    report = mc_conditional_check(group, components[1], epsilon=epsilon, n_draws=n,
                                  rng=np.random.default_rng(SEED))
    assert abs(report.n_retained - n * p_keep) <= 4.0 * math.sqrt(n * p_keep * (1.0 - p_keep))


def test_band_without_candidates_raises_insufficient_retention():
    group = MixturePriorGroup(components=(NormalVar(0, 1),) * 2)
    assert verify._thinning(group, 1e-13).rate * 100_000 < 1e-6
    with pytest.raises(InsufficientRetentionError, match="only 0 of"):
        mc_conditional_check(group, NormalVar(0.0, 0.5), epsilon=1e-13, n_draws=100_000,
                             rng=np.random.default_rng(SEED))
