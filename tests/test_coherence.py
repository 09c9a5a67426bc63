"""Forward/reverse map tests: hand-computed values, round trips, feasibility gates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixprior import (
    FeasibilityError,
    Gamma,
    InvGamma,
    MixturePriorGroup,
    NormalPrec,
    NormalVar,
    Dirichlet,
    coherent_family,
    coherent_gamma_forward,
    coherent_invgamma_forward,
    coherent_normal_forward,
    coherent_normal_prec_forward,
    coherent_product,
    feasible_k_range,
    reverse_equal_gamma,
    reverse_equal_invgamma,
    reverse_equal_normal,
)
from mixprior.distributions import FAMILIES

positive = st.floats(1e-3, 1e3)
means = st.floats(-100, 100)


# ---------------------------------------------------------------------------
# forward maps


def test_normal_forward_equal_variances():
    m1, v1 = coherent_normal_forward([(-1.0, 1.0), (3.0, 1.0)])
    assert (m1, v1) == (1.0, 0.5)


def test_normal_forward_equal_means_any_variances():
    m1, _ = coherent_normal_forward([(2.5, 0.3), (2.5, 4.0), (2.5, 11.0)])
    assert m1 == pytest.approx(2.5, abs=1e-14)


def test_normal_forward_hand_evaluation():
    m1, v1 = coherent_normal_forward([(0.0, 1.0), (4.0, 3.0)])
    assert m1 == pytest.approx(1.0, abs=1e-14)
    assert v1 == pytest.approx(0.75, abs=1e-14)


def test_normal_prec_forward_examples():
    _, p1 = coherent_normal_prec_forward([(0.0, 2.0)] * 4)
    assert p1 == pytest.approx(8.0, abs=1e-14)
    m1, p1 = coherent_normal_prec_forward([(0.0, 1.0), (2.0, 1.0)])
    assert (m1, p1) == (1.0, 2.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(means, positive), min_size=2, max_size=8))
def test_parametrizations_are_consistent(pairs):
    via_var = coherent_normal_forward([(m, 1.0 / p) for m, p in pairs])
    via_prec = coherent_normal_prec_forward(pairs)
    assert via_var[0] == pytest.approx(via_prec[0], rel=1e-12, abs=1e-12)
    assert 1.0 / via_var[1] == pytest.approx(via_prec[1], rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(means, positive), min_size=2, max_size=8))
def test_weighted_mean_property(pairs):
    m1, _ = coherent_normal_forward(pairs)
    weights = np.array([1.0 / v for _, v in pairs])
    weights /= weights.sum()
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(weights >= 0.0)
    assert m1 == pytest.approx(float(np.dot(weights, [m for m, _ in pairs])), rel=1e-10, abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(means, positive), min_size=2, max_size=8))
def test_harmonic_mean_property(pairs):
    _, v1 = coherent_normal_forward(pairs)
    k = len(pairs)
    harmonic = k / math.fsum(1.0 / v for _, v in pairs)
    assert v1 == pytest.approx(harmonic / k, rel=1e-12)


def test_invgamma_forward_examples():
    assert coherent_invgamma_forward([(2.0, 1.0)] * 3) == (8.0, pytest.approx(1 / 3))
    a1, b1 = coherent_invgamma_forward([(1.5, 2.0), (2.5, 4.0)])
    assert a1 == pytest.approx(5.0, abs=1e-14)
    assert b1 == pytest.approx(4.0 / 3.0, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(positive, positive), min_size=2, max_size=8), positive)
def test_invgamma_shape_strictly_increases_with_new_component(pairs, extra):
    a1, _ = coherent_invgamma_forward(pairs)
    a1_bigger, _ = coherent_invgamma_forward(pairs + [(extra, 1.0)])
    assert a1_bigger > a1


def test_gamma_forward_examples():
    assert coherent_gamma_forward([(1.0, 1.0), (1.0, 1.0)]) == (1.0, 2.0)
    assert coherent_gamma_forward([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)]) == (4.0, 6.0)


def test_gamma_forward_infeasible_when_shapes_too_small():
    with pytest.raises(FeasibilityError):
        coherent_gamma_forward([(0.5, 1.0)] * 3)


@pytest.mark.parametrize("forward, pairs, sum_name", [
    (coherent_normal_forward, [(0.0, 1e-308)] * 2, "precisions 1/v_i"),
    (coherent_normal_forward, [(1e300, 1e-8)] * 2, "weighted means m_i/v_i"),
    (coherent_normal_prec_forward, [(0.0, 1e308)] * 2, "precisions vprec_i"),
    (coherent_invgamma_forward, [(1e308, 1.0)] * 2, "shapes a_i"),
    (coherent_invgamma_forward, [(2.0, 1e-308)] * 2, "reciprocals 1/b_i"),
    (coherent_gamma_forward, [(1e308, 1.0)] * 2, "shapes a_i"),
    (coherent_gamma_forward, [(2.0, 1e308)] * 2, "rates b_i"),
])
def test_forward_map_overflow_is_a_value_error_naming_the_sum(forward, pairs, sum_name):
    # math.fsum raises OverflowError on an intermediate overflow
    with pytest.raises(ValueError, match=f"sum of the {sum_name} overflows"):
        forward(pairs)


# ---------------------------------------------------------------------------
# reverse maps and round trips


def test_reverse_normal_examples():
    assert reverse_equal_normal(0.0, 0.5, 2, "variance") == (0.0, 1.0)
    assert reverse_equal_normal(3.0, 8.0, 4, "precision") == (3.0, 2.0)
    with pytest.raises(ValueError):
        reverse_equal_normal(0.0, 1.0, 2, "standard-deviation")


def test_reverse_invgamma_examples():
    assert reverse_equal_invgamma(8.0, 1.0 / 3.0, 3) == (2.0, 1.0)
    assert reverse_equal_invgamma(3.5, 0.2, 2) == (1.25, 0.4)
    with pytest.raises(FeasibilityError) as err:
        reverse_equal_invgamma(2.0, 1.0, 4)
    assert err.value.bound == 3.0


def test_reverse_gamma_examples():
    assert reverse_equal_gamma(3.0, 2.0, 4) == (1.5, 0.5)
    for k in range(2, 9):
        assert reverse_equal_gamma(1.0, 1.0, k) == (1.0, pytest.approx(1.0 / k))


@settings(max_examples=100, deadline=None)
@given(means, positive, st.integers(2, 12))
def test_normal_round_trip(m1, v1, k):
    m, v = reverse_equal_normal(m1, v1, k, "variance")
    back = coherent_normal_forward([(m, v)] * k)
    assert back[0] == pytest.approx(m1, rel=1e-12, abs=1e-12)
    assert back[1] == pytest.approx(v1, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(means, positive, st.integers(2, 12))
def test_normal_prec_round_trip(m1, p1, k):
    m, p = reverse_equal_normal(m1, p1, k, "precision")
    back = coherent_normal_prec_forward([(m, p)] * k)
    assert back[0] == pytest.approx(m1, rel=1e-12, abs=1e-12)
    assert back[1] == pytest.approx(p1, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(positive, positive, st.integers(2, 12))
def test_invgamma_round_trip(a1, b1, k):
    a1 = a1 + k  # keep the shape bound satisfied
    a, b = reverse_equal_invgamma(a1, b1, k)
    back = coherent_invgamma_forward([(a, b)] * k)
    assert back[0] == pytest.approx(a1, rel=1e-12)
    assert back[1] == pytest.approx(b1, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(positive, positive, st.integers(2, 12))
def test_gamma_round_trip(a1, b1, k):
    a, b = reverse_equal_gamma(a1, b1, k)
    back = coherent_gamma_forward([(a, b)] * k)
    assert back[0] == pytest.approx(a1, rel=1e-12, abs=1e-12)
    assert back[1] == pytest.approx(b1, rel=1e-12)


# ---------------------------------------------------------------------------
# feasibility over K ranges


def test_feasible_k_range_examples():
    assert feasible_k_range(5.0, 2, 4).feasible
    verdict = feasible_k_range(3.0, 2, 4)
    assert not verdict.feasible
    assert verdict.infeasible_ks == (4,)
    assert feasible_k_range(3.0001, 2, 4).feasible


# ---------------------------------------------------------------------------
# coherent_product / coherent_family


def test_product_of_standard_normals():
    assert coherent_product([NormalVar(0, 1), NormalVar(0, 1)]) == NormalVar(0.0, 0.5)


def test_product_of_identical_invgammas():
    k, a, b = 4, 2.0, 3.0
    assert coherent_product([InvGamma(a, b)] * k) == InvGamma(k * a + k - 1, b / k)


def test_product_of_gammas():
    assert coherent_product([Gamma(1, 1), Gamma(2, 3)]) == Gamma(2.0, 4.0)


def test_product_rejects_mixed_and_dirichlet():
    with pytest.raises(ValueError):
        coherent_product([NormalVar(0, 1), Gamma(1, 1)])
    with pytest.raises(NotImplementedError):
        coherent_product([Dirichlet((1, 1)), Dirichlet((1, 1))])
    with pytest.raises(ValueError):
        coherent_product([NormalVar(0, 1)])


def test_family_expansion_of_normal():
    groups = coherent_family([NormalVar(0.0, 1.0)], ks={2, 3})
    assert groups[2][0].components[0] == NormalVar(0.0, 2.0)
    assert groups[3][0].components[0] == NormalVar(0.0, 3.0)


def test_family_gamma_always_feasible():
    groups = coherent_family([Gamma(0.1, 5.0)], ks=range(2, 11))
    assert set(groups) == set(range(2, 11))


def test_family_propagates_invgamma_bound_with_label():
    with pytest.raises(FeasibilityError) as err:
        coherent_family([InvGamma(2.0, 1.0)], ks={2, 3, 4}, labels=["sigma2"])
    assert "sigma2" in str(err.value)
    assert err.value.k in (3, 4)  # a1=2 already fails the strict bound at K=3


def test_family_round_trips_through_product():
    # every family of the table with a reverse map; the shapes clear a1 > K - 1 for K <= 5
    families = [cls for cls in FAMILIES.values() if cls.reverse_map is not None]
    assert {cls.family for cls in families} == {"normal_var", "normal_prec", "gamma", "inv_gamma"}
    nested = [cls(9.0 - 0.5 * i, 0.3 + i) for i, cls in enumerate(families)]
    for k, groups in coherent_family(nested, ks={2, 3, 5}).items():
        for dist, group in zip(nested, groups):
            assert group.k == k
            implied = coherent_product(group.components)
            assert type(implied) is type(dist)
            assert max(abs(x - y) for x, y in zip(implied.params(), dist.params())) <= 1e-12


def test_oracle_equivalence_fifty_randomized_draws_per_family():
    # the normalized pointwise product of component pdfs equals the pdf of the
    # forward-map output within 1e-8 over a support-covering grid
    from mixprior import verify_product_coherence

    rng = np.random.default_rng(8128)
    makers = {
        "normal_var": lambda: NormalVar(float(rng.uniform(-4, 4)), float(rng.uniform(0.2, 6.0))),
        "normal_prec": lambda: NormalPrec(float(rng.uniform(-4, 4)), float(rng.uniform(0.2, 6.0))),
        "gamma": lambda: Gamma(float(rng.uniform(2.0, 9.0)), float(rng.uniform(0.3, 4.0))),
        "inv_gamma": lambda: InvGamma(float(rng.uniform(1.0, 9.0)), float(rng.uniform(0.2, 4.0))),
    }
    for family, make in makers.items():
        for _ in range(50):
            components = [make() for _ in range(int(rng.integers(2, 7)))]
            report = verify_product_coherence(components, coherent_product(components))
            assert report.sup_norm_error <= 1e-8, (family, components, report.sup_norm_error)


# ---------------------------------------------------------------------------
# groups and pairs


def test_group_requires_single_family():
    with pytest.raises(ValueError):
        MixturePriorGroup(components=(NormalVar(0, 1), Gamma(1, 1)))


def test_group_rejects_ordered_dirichlet():
    with pytest.raises(ValueError):
        MixturePriorGroup(components=(Dirichlet((1, 1)), Dirichlet((1, 1))), ordered=True)


def test_group_rejects_dirichlet_dim_mismatch():
    with pytest.raises(ValueError):
        MixturePriorGroup(components=(Dirichlet((1, 1)), Dirichlet((1, 1, 1))))
