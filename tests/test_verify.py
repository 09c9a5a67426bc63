"""Numeric oracle tests: KS machinery, grid product check, epsilon-band conditioning."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixprior import (
    CoherenceReport,
    Gamma,
    GridCoverageError,
    InsufficientRetentionError,
    InvGamma,
    MixturePriorGroup,
    NormalVar,
    coherent_product,
    from_contrasts,
    ks_critical_value,
    ks_statistic,
    mc_conditional_check,
    to_contrasts,
    verify_product_coherence,
)
from mixprior.reports import to_machine

SEED = 511


# ---------------------------------------------------------------------------
# contrasts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10))
def test_contrast_round_trip(values):
    first, tau = to_contrasts(values)
    assert first == values[0]
    assert len(tau) == len(values) - 1
    back = from_contrasts(first, tau)
    assert np.allclose(back, values, rtol=0, atol=1e-9 * (1 + max(abs(v) for v in values)))


def test_contrasts_vanish_on_the_diagonal():
    _, tau = to_contrasts([3.3] * 6)
    assert np.all(tau == 0.0)


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
    with pytest.raises(ValueError):
        mc_conditional_check(group, NormalVar(0, 0.5), epsilon=0.0,
                             n_draws=1_000_000, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        mc_conditional_check(group, NormalVar(0, 0.5), epsilon=0.02,
                             n_draws=1000, rng=np.random.default_rng(0))


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


def test_mc_check_pools_retained_samples_across_generator_streams():
    group = MixturePriorGroup(components=(NormalVar(0, 1),) * 2)
    claimed = coherent_product(group.components)
    streams = [np.random.default_rng([9, worker]) for worker in range(4)]
    pooled = mc_conditional_check(group, claimed, epsilon=0.05, n_draws=400_000,
                                  rng=streams)
    assert pooled.passed
    per_stream = sum(
        _count_retained(group, 0.05, 100_000, np.random.default_rng([9, worker]))
        for worker in range(4)
    )
    assert pooled.n_retained == per_stream


def _count_retained(group, epsilon, n, rng):
    draws = group.components[0].sample(rng, size=(n, group.k))
    tau = draws[:, 1:] - draws[:, :1]
    return int((np.max(np.abs(tau), axis=1) < epsilon).sum())


def test_mc_check_rejects_dirichlet_and_degenerate_groups():
    from mixprior import Dirichlet
    group = MixturePriorGroup(components=(Dirichlet((1, 1)),) * 2)
    with pytest.raises(NotImplementedError):
        mc_conditional_check(group, NormalVar(0, 1), epsilon=0.05, n_draws=100_000,
                             rng=np.random.default_rng(0))
