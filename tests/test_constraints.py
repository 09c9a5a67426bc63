"""Ordering and stationarity constraint tests with independent matrix oracles."""

import math
from decimal import Decimal, localcontext
from statistics import NormalDist

import numpy as np
import pytest

from mixprior import (
    CompanionMatrix,
    ConfigurationError,
    MixturePriorGroup,
    ModelSpec,
    NormalPrec,
    NormalVar,
    ParameterDraw,
    RejectionCapError,
    StationarityProblem,
    companion_spectral_radius,
    is_stationary_msar2,
    sample_constrained_priors,
    sample_ordered,
    second_moment_map,
    spectral_radius,
)
from mixprior.constraints import _collapse_radius_and_band, _regular_mask
from mixprior.verify import ks_critical_value, ks_statistic
from mixprior.special import standard_normal_cdf

SEED = 424242


def random_stochastic(rng, k):
    return rng.dirichlet(np.ones(k), size=k)


# ---------------------------------------------------------------------------
# ordering


def test_sample_ordered_keeps_ties():
    # weak inequalities: the equal-components diagonal stays in the support.
    # Both components round every draw to exactly 5.0, so every proposal is a
    # tie, and one attempt per row suffices
    group = MixturePriorGroup(components=(NormalVar(5.0, 1e-40), NormalVar(5.0, 2e-40)),
                              ordered=True)
    draws = sample_ordered(group, np.random.default_rng(SEED), size=100, max_attempts=100)
    assert np.all(draws == 5.0)


def test_sample_ordered_requires_flag():
    group = MixturePriorGroup(components=(NormalVar(0, 1),) * 2)
    with pytest.raises(ValueError):
        sample_ordered(group, np.random.default_rng(0))


def test_sample_ordered_identical_matches_min_of_two_oracle():
    # first coordinate of a sorted pair of N(0,1) draws: F(x) = 1 - (1 - Phi(x))^2
    group = MixturePriorGroup(components=(NormalVar(0, 1),) * 2, ordered=True)
    rng = np.random.default_rng(SEED)
    draws = sample_ordered(group, rng, size=100_000)
    assert np.all(np.diff(draws, axis=1) >= 0.0)
    stat = ks_statistic(draws[:, 0], lambda x: 1.0 - (1.0 - standard_normal_cdf(x)) ** 2)
    assert stat < ks_critical_value(100_000, alpha=0.001)


def test_sample_ordered_single_component_is_plain():
    group = MixturePriorGroup(components=(NormalVar(3.0, 1e-12),), ordered=True)
    draw = sample_ordered(group, np.random.default_rng(1))
    assert draw.shape == (1,)
    assert abs(draw[0] - 3.0) < 1e-4


def test_sample_ordered_disjoint_supports_accepts_everything():
    group = MixturePriorGroup(
        components=(NormalVar(-100.0, 1.0), NormalVar(100.0, 1.0)), ordered=True)
    draws = sample_ordered(group, np.random.default_rng(2), size=2000)
    assert np.all(np.diff(draws, axis=1) >= 0.0)
    assert draws.shape == (2000, 2)


def test_sample_ordered_heterogeneous_outputs_are_ordered():
    group = MixturePriorGroup(
        components=(NormalVar(0.0, 1.0), NormalVar(0.5, 2.0), NormalVar(1.0, 0.5)), ordered=True)
    draws = sample_ordered(group, np.random.default_rng(3), size=5000)
    assert np.all(np.diff(draws, axis=1) >= 0.0)


class _CountingRng:
    """Forwards ``normal`` to a generator and records every requested mean and size."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.locs = []
        self.sizes = []

    def normal(self, loc, scale, size):
        self.locs.append(loc)
        self.sizes.append(size)
        return self.rng.normal(loc, scale, size)


def test_sample_ordered_one_row_draws_a_few_variates():
    # acceptance is about 0.76, so a row needs a handful of proposals, not 1024
    group = MixturePriorGroup(components=(NormalVar(0.0, 1.0), NormalVar(1.0, 1.0)), ordered=True)
    for seed in range(50):
        rng = _CountingRng(seed)
        draw = sample_ordered(group, rng)
        assert draw.shape == (2,) and draw[0] <= draw[1]
        assert sum(rng.sizes) <= 2 * 64, rng.sizes  # both components together


def test_sample_ordered_sized_streams_are_pinned():
    # values of the rate-sized batch rule (1.25 proposals per row in the first
    # batch, then 1.25 times the rows still needed over the acceptance seen so
    # far), each proposal's third column drawn only when its first two are in
    # order; the constrained-prior sampler and the Monte Carlo band check draw these streams
    group = MixturePriorGroup(
        components=(NormalVar(0.5, 1.0), NormalVar(0.0, 2.0), NormalVar(-0.2, 0.5)), ordered=True)
    pinned = {
        (3, 4): [[-0.16804634610895008, 0.2740967155475319, 0.604603554365849],
                 [-2.3281623068437627, -0.8615617247052655, -0.42715375374221287],
                 [-1.779026489055327, 0.16393079601441848, 0.9382033985851819],
                 [-0.8020708582457947, -0.6478770749171493, -0.4000929949655532]],
        (11, 6): [[-0.17056582368787943, -0.023503099422898625, 0.23736021745191388],
                  [-1.4203405901180286, -0.28813289280904086, 0.3791739886198718],
                  [-1.2340148462328515, -1.1742857762162044, -1.1394962309430738],
                  [-0.23879003147580646, 0.2714708618264756, 0.4277545004696111],
                  [-1.2677185771429749, -0.8345972839500375, -0.33961327349344783],
                  [-0.8092168175162993, 0.7914111969380904, 1.065414648526888]],
    }
    for (seed, n), rows in pinned.items():
        draws = sample_ordered(group, np.random.default_rng(seed), size=n)
        assert draws.tolist() == rows


@pytest.mark.parametrize("shift", [-1.0, 0.2, 1.0])
def test_sample_ordered_sized_calls_follow_the_acceptance(shift):
    # x_2 - x_1 ~ N(shift, 2), so a pair is ordered with probability Phi(shift / sqrt 2);
    # the first batch holds 1.25 proposals per row, and each later one 1.25
    # times the rows still needed over the acceptance seen so far
    group = MixturePriorGroup(components=(NormalVar(0.0, 1.0), NormalVar(shift, 1.0)),
                              ordered=True)
    acceptance = NormalDist().cdf(shift / math.sqrt(2.0))
    for n in (1000, 20_000):
        for seed in range(5):
            rng = _CountingRng(seed)
            draws = sample_ordered(group, rng, size=n)
            assert draws.shape == (n, 2) and np.all(draws[:, 0] <= draws[:, 1])
            proposals = sum(rng.sizes) / 2
            assert proposals <= 1.25 / acceptance * n, (n, seed, rng.sizes)


def test_sample_ordered_draws_a_column_only_for_proposals_still_in_order():
    # the third component is drawn only for proposals whose first two are in order
    group = MixturePriorGroup(
        components=(NormalVar(0.0, 1.0), NormalVar(0.5, 1.0), NormalVar(1.0, 1.0)), ordered=True)
    rng = _CountingRng(SEED)
    sample_ordered(group, rng, size=10_000)
    drawn = {loc: sum(size for at, size in zip(rng.locs, rng.sizes) if at == loc)
             for loc in (0.0, 0.5, 1.0)}
    assert drawn[1.0] < 0.8 * drawn[0.0] and drawn[0.5] == drawn[0.0], drawn


def test_sample_ordered_cap_exhaustion():
    # reversed means make acceptance astronomically small
    group = MixturePriorGroup(
        components=(NormalVar(100.0, 1e-6), NormalVar(-100.0, 1e-6)), ordered=True)
    with pytest.raises(RejectionCapError) as err:
        sample_ordered(group, np.random.default_rng(4), size=10, max_attempts=50_000)
    assert err.value.acceptance_rate == 0.0


# ---------------------------------------------------------------------------
# companion, second-moment map and reference block matrix construction


def _p2_stack(p, phi1, phi2):
    """``(m, 4K, 4K)`` block matrices from ``p`` ``(m, K, K)`` and ``phi`` ``(m, K)``.

    Block (r, c) is ``p[c, r] * kron(Phi_r, Phi_r)``: the second-moment
    recursion on all 2x2 matrices, vectorised, whose radius is the map's;
    kept as the independent reference for the map and its mask.  Each entry is the product
    ``p * (a * b)`` as ``np.kron`` and a scalar multiple compute it.
    """
    m, k = phi1.shape
    companion = np.zeros((m, k, 2, 2))
    companion[..., 0, 0] = phi1
    companion[..., 0, 1] = phi2
    companion[..., 1, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        # squares[m, r, i, k, j, l] = Phi_r[i, j] * Phi_r[k, l], i.e. kron(Phi_r, Phi_r)
        squares = companion[:, :, :, None, :, None] * companion[:, :, None, :, None, :]
        squares = squares.reshape(m, k, 4, 1, 4)
        # stack[m, r, a, c, b] = p[m, c, r] * squares[m, r, a, b]
        stack = p.transpose(0, 2, 1)[:, :, None, :, None] * squares
    return stack.reshape(m, 4 * k, 4 * k)


def _p2(problem):
    phi = np.array([[reg.phi1, reg.phi2] for reg in problem.regimes])
    return _p2_stack(problem.p[None], phi[None, :, 0], phi[None, :, 1])[0]


def _loop_p2(p, regimes):
    # the per-regime loop the batched builder replaced, kept as the reference
    k = p.shape[0]
    out = np.zeros((4 * k, 4 * k))
    for r, (phi1, phi2) in enumerate(regimes):
        companion = np.array([[phi1, phi2], [1.0, 0.0]])
        for c in range(k):
            out[4 * r:4 * r + 4, 4 * c:4 * c + 4] = p[c, r] * np.kron(companion, companion)
    return out


def test_companion_second_row_is_fixed():
    arr = CompanionMatrix(0.7, -0.2).as_array()
    assert arr[1, 0] == 1.0 and arr[1, 1] == 0.0


def test_problem_validation():
    with pytest.raises(ValueError):
        StationarityProblem(p=np.array([[0.5, 0.4], [0.5, 0.5]]),
                            regimes=(CompanionMatrix(0, 0),) * 2)
    with pytest.raises(ValueError):
        StationarityProblem(p=np.array([[0.5, 0.5], [0.5, 0.5]]),
                            regimes=(CompanionMatrix(0, 0),))
    with pytest.raises(ValueError):
        StationarityProblem(p=np.array([[1.5, -0.5], [0.5, 0.5]]),
                            regimes=(CompanionMatrix(0, 0),) * 2)


def test_build_p2_single_state_is_kron_square():
    phi = CompanionMatrix(0.5, 0.3)
    problem = StationarityProblem(p=np.ones((1, 1)), regimes=(phi,))
    expected = np.kron(phi.as_array(), phi.as_array())
    assert np.array_equal(_p2(problem), expected)


def test_build_p2_equal_regimes_is_kron_identity():
    rng = np.random.default_rng(SEED + 1)
    for k in (2, 3, 5):
        p = random_stochastic(rng, k)
        phi = CompanionMatrix(-0.3, 0.25)
        problem = StationarityProblem(p=p, regimes=(phi,) * k)
        block = np.kron(phi.as_array(), phi.as_array())
        assert np.array_equal(_p2(problem), np.kron(p.T, block))


def test_build_p2_zero_coefficients_gives_zero_radius():
    rng = np.random.default_rng(SEED + 2)
    p = random_stochastic(rng, 3)
    problem = StationarityProblem(p=p, regimes=(CompanionMatrix(0.0, 0.0),) * 3)
    assert spectral_radius(_p2(problem)) == pytest.approx(0.0, abs=1e-12)
    assert spectral_radius(second_moment_map(problem)) == pytest.approx(0.0, abs=1e-12)


def test_second_moment_map_single_state_acts_on_symmetric_matrices():
    # T(S) = Phi S Phi' on S held as (s11, 2 s12, s22)
    phi = CompanionMatrix(0.5, -0.3)
    a = second_moment_map(StationarityProblem(p=np.ones((1, 1)), regimes=(phi,)))
    rng = np.random.default_rng(SEED + 16)
    for _ in range(20):
        s11, s12, s22 = rng.normal(size=3)
        image = phi.as_array() @ np.array([[s11, s12], [s12, s22]]) @ phi.as_array().T
        held = a @ np.array([s11, 2.0 * s12, s22])
        assert np.allclose(held, [image[0, 0], 2.0 * image[0, 1], image[1, 1]], atol=1e-14)


def test_second_moment_map_equal_regimes_is_kron_identity():
    rng = np.random.default_rng(SEED + 1)
    phi = CompanionMatrix(-0.3, 0.25)
    single = second_moment_map(StationarityProblem(p=np.ones((1, 1)), regimes=(phi,)))
    for k in (2, 3, 5):
        p = random_stochastic(rng, k)
        problem = StationarityProblem(p=p, regimes=(phi,) * k)
        assert np.array_equal(second_moment_map(problem), np.kron(p.T, single))


# ---------------------------------------------------------------------------
# spectral radius


def test_spectral_radius_trivial_cases():
    assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(np.diag([0.3, 0.7])) == pytest.approx(0.7, abs=1e-12)
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0
    assert spectral_radius(np.array([[-2.5]])) == 2.5


def test_spectral_radius_companion_quadratic_oracle():
    rho = spectral_radius(CompanionMatrix(0.5, 0.3).as_array())
    assert rho == pytest.approx((0.5 + math.sqrt(1.45)) / 2.0, abs=1e-10)


def test_spectral_radius_matches_dense_oracle_on_signed_matrices():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(60):
        n = int(rng.integers(2, 21))
        a = rng.normal(size=(n, n))
        oracle = float(np.max(np.abs(np.linalg.eigvals(a))))
        assert spectral_radius(a) == pytest.approx(oracle, abs=1e-8)


def test_companion_closed_form_matches_eigensolver():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(200):
        phi1, phi2 = rng.uniform(-2, 2, size=2)
        oracle = float(np.max(np.abs(np.linalg.eigvals(CompanionMatrix(phi1, phi2).as_array()))))
        assert companion_spectral_radius(phi1, phi2) == pytest.approx(oracle, abs=1e-12)


def test_stochastic_matrix_transpose_has_unit_radius():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        p = random_stochastic(rng, k)
        assert spectral_radius(p.T) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# stationarity verdicts


def test_msar2_equal_regimes_collapse():
    phi = CompanionMatrix(0.5, 0.3)
    problem = StationarityProblem(p=np.array([[0.9, 0.1], [0.1, 0.9]]), regimes=(phi, phi))
    result = is_stationary_msar2(problem)
    assert result.stationary
    assert result.rho == pytest.approx(((0.5 + math.sqrt(1.45)) / 2.0) ** 2, abs=1e-8)


def test_msar2_unit_root_is_boundary_not_stationary():
    problem = StationarityProblem(p=np.ones((1, 1)), regimes=(CompanionMatrix(1.0, 0.0),))
    result = is_stationary_msar2(problem)
    assert not result.stationary
    assert result.boundary
    assert result.rho == pytest.approx(1.0, abs=1e-10)


def test_msar2_mixed_regimes_against_dense_oracle():
    # one mildly explosive regime, low dwell probability: verdict from the 8x8 eigensolve
    explosive = CompanionMatrix(1.05, 0.0)
    tame = CompanionMatrix(0.2, 0.1)
    p = np.array([[0.05, 0.95], [0.9, 0.1]])
    problem = StationarityProblem(p=p, regimes=(explosive, tame))
    result = is_stationary_msar2(problem)
    oracle = float(np.max(np.abs(np.linalg.eigvals(_p2(problem)))))
    assert result.rho == pytest.approx(oracle, abs=1e-8)
    assert result.stationary == (oracle < 1.0)


def _ar2_stationary(phi1, phi2):
    return companion_spectral_radius(phi1, phi2) < 1.0


def test_ar2_examples():
    assert _ar2_stationary(0.5, 0.3)
    assert not _ar2_stationary(0.0, 1.0)
    assert not _ar2_stationary(1.2, 0.0)


def test_ar2_agrees_with_triangle_on_random_points():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(500):
        phi1, phi2 = rng.uniform(-2.5, 2.5, size=2)
        triangle = (phi2 > -1.0) and (phi1 + phi2 < 1.0) and (phi2 - phi1 < 1.0)
        assert _ar2_stationary(phi1, phi2) == triangle


# ---------------------------------------------------------------------------
# defective and nearly defective matrices: a double companion root makes the
# block matrix defective, where the radius is hardest to compute


@pytest.mark.parametrize("p", [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]])
def test_double_companion_root_gives_the_collapse_radius(p):
    # x^2 - 1.8x + 0.81 = (x - 0.9)^2, so with equal regimes rho = 0.9^2
    phi = CompanionMatrix(1.8, -0.81)
    result = is_stationary_msar2(StationarityProblem(p=np.array(p), regimes=(phi, phi)))
    assert result.rho == pytest.approx(0.81, abs=1e-12)
    assert result.stationary and not result.boundary


@pytest.mark.parametrize("p", [[[1.0]], [[0.5, 0.5], [0.5, 0.5]], np.eye(4), np.eye(8)])
def test_double_unit_root_is_boundary_not_stationary(p):
    # x^2 - 2x + 1 = (x - 1)^2: the radius is exactly 1 on a defective matrix
    phi = CompanionMatrix(2.0, -1.0)
    result = is_stationary_msar2(StationarityProblem(p=np.array(p), regimes=(phi,) * len(p)))
    assert result.rho == 1.0
    assert not result.stationary
    assert result.boundary


@pytest.mark.parametrize("p", [np.eye(4), np.eye(8), np.full((6, 6), 1.0 / 6.0)],
                         ids=["identity4", "identity8", "uniform6"])
@pytest.mark.parametrize("phi", [(0.7, 0.0), (1.8, -0.81)])
def test_repeated_eigenvalues_do_not_widen_the_band(p, phi):
    # equal regimes, so rho = rho_companion^2 < 1; the map holds K copies of
    # it (identity p) or 3K - 3 zeros (uniform p), none a unit root
    regime = CompanionMatrix(*phi)
    result = is_stationary_msar2(StationarityProblem(p=p, regimes=(regime,) * len(p)))
    assert result.rho == pytest.approx(companion_spectral_radius(*phi) ** 2, abs=1e-12)
    assert result.stationary and not result.boundary


def _triangle(phi1, phi2):
    return (phi2 > -1.0) and (phi1 + phi2 < 1.0) and (phi2 - phi1 < 1.0)


@pytest.mark.parametrize("phi1", [1.99999, -1.99999])
def test_ar2_near_double_unit_root_agrees_with_triangle(phi1):
    assert _ar2_stationary(phi1, -0.99999) == _triangle(phi1, -0.99999)


def test_ar2_cross_check_never_raises_near_double_unit_roots():
    # roots r1, r2 within 1e-3 of +-1 on either side; the closed-form radius
    # is 1 to rounding there, and agrees with the triangle wherever it is not
    rng = np.random.default_rng(SEED + 12)
    for _ in range(3000):
        sign = rng.choice([-1.0, 1.0])
        r1, r2 = 1.0 + 10.0 ** rng.uniform(-16, -3, size=2) * rng.choice([-1.0, 1.0], size=2)
        phi1, phi2 = sign * (r1 + r2), -r1 * r2
        if abs(companion_spectral_radius(phi1, phi2) - 1.0) > 1e-6:
            assert _ar2_stationary(phi1, phi2) == _triangle(phi1, phi2)


def _exact_collapse_radius(phi1, phi2):
    # rho(Phi)^2 of the float coefficients, in 50-digit decimal arithmetic
    with localcontext() as ctx:
        ctx.prec = 50
        a, b = Decimal(phi1), Decimal(phi2)
        disc = a * a + 4 * b
        if disc < 0:
            return -b  # a complex pair, |lambda|^2 = -phi2
        root = (abs(a) + disc.sqrt()) / 2
        return root * root


@pytest.mark.parametrize("r", [0.5, 0.9, 0.999, 1.0])
def test_collapse_band_covers_the_exact_radius_at_double_roots(r):
    # x^2 - 2r x + r^2 = (x - r)^2: the closed form's band covers the exact
    # radius, whatever K and p; a unit root is flagged boundary
    phi1, phi2 = 2.0 * r, -r * r
    rho, band = _collapse_radius_and_band(phi1, phi2)
    assert abs(Decimal(rho) - _exact_collapse_radius(phi1, phi2)) <= Decimal(band)
    for k in range(1, 9):
        for p in (np.eye(k), np.full((k, k), 1.0 / k)):
            result = is_stationary_msar2(StationarityProblem(
                p=p, regimes=(CompanionMatrix(phi1, phi2),) * k))
            assert result.rho == rho
            assert result.boundary == (r == 1.0)
            assert result.stationary == (r < 1.0)


def test_collapse_band_covers_the_exact_radius_and_stays_tight():
    # half the points near a double root, where the discriminant's rounding
    # moves the radius by about sqrt(eps); away from one (|disc| > 1e-2) the
    # band stays within 3.3e-14 of the radius up to rho = 1, and grows with
    # the companion radius beyond
    rng = np.random.default_rng(SEED + 17)
    for i in range(4000):
        if i % 2:
            r, sign = rng.uniform(0.0, 1.2), rng.choice([-1.0, 1.0])
            split = 10.0 ** rng.uniform(-17, -4) * rng.choice([-1.0, 1.0])
            phi1, phi2 = float(sign * (2.0 * r + split)), float(-r * r)
        else:
            phi1, phi2 = rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5)
        rho, band = _collapse_radius_and_band(phi1, phi2)
        assert abs(Decimal(rho) - _exact_collapse_radius(phi1, phi2)) <= Decimal(band)
        if abs(phi1 * phi1 + 4.0 * phi2) > 1e-2:
            assert band <= 3.3e-14 * max(rho, rho * rho)


def test_spectral_radius_of_a_stack_equals_the_per_matrix_radii():
    rng = np.random.default_rng(SEED + 13)
    stack = rng.normal(size=(3, 4, 6, 6))
    radii = spectral_radius(stack)
    assert radii.shape == (3, 4)
    for index in np.ndindex(3, 4):
        assert radii[index] == spectral_radius(stack[index])
    maps = np.stack([
        second_moment_map(StationarityProblem(p=random_stochastic(rng, 3), regimes=tuple(
            CompanionMatrix(*rng.uniform(-1.5, 1.5, size=2)) for _ in range(3))))
        for _ in range(20)])
    assert spectral_radius(maps).tolist() == [spectral_radius(a) for a in maps]


def test_map_radius_matches_the_block_matrix_radius():
    # the independent cross-check of criteria 5 and 6 at their 1e-8 bound:
    # the 3K map and the 4K block matrix have one radius, which with equal
    # regimes is the squared companion radius
    rng = np.random.default_rng(SEED + 18)
    for i in range(200):
        k = int(rng.integers(1, 6))
        regimes = tuple(CompanionMatrix(*rng.uniform(-1.5, 1.5, size=2)) for _ in range(k))
        if i % 2:
            regimes = (regimes[0],) * k
        problem = StationarityProblem(p=random_stochastic(rng, k), regimes=regimes)
        rho = spectral_radius(second_moment_map(problem))
        assert abs(rho - spectral_radius(_p2(problem))) <= 1e-8
        if i % 2:
            collapse = companion_spectral_radius(regimes[0].phi1, regimes[0].phi2) ** 2
            assert abs(rho - collapse) <= 1e-8


def test_verdict_radius_is_the_spectral_radius():
    # with unequal regimes the verdict solves the map with eigenvectors, for
    # the band; the radius is the same
    rng = np.random.default_rng(SEED + 15)
    for k in (2, 3, 4):
        for _ in range(25):
            problem = StationarityProblem(p=random_stochastic(rng, k), regimes=tuple(
                CompanionMatrix(*rng.uniform(-1.5, 1.5, size=2)) for _ in range(k)))
            assert len(set(problem.regimes)) == k
            assert is_stationary_msar2(problem).rho == spectral_radius(second_moment_map(problem))


# ---------------------------------------------------------------------------
# regularity mask and constrained sampling


def ar2_model(v=100.0, regularity="ar2_stationarity"):
    return ModelSpec(
        name="ar2", kind="single", k=1,
        groups={
            "phi1": MixturePriorGroup(components=(NormalVar(0.0, v),), label="phi1"),
            "phi2": MixturePriorGroup(components=(NormalVar(0.0, v),), label="phi2"),
        },
        regularity=regularity,
    )


def msar2_model(k=2):
    from mixprior import Dirichlet
    comp = NormalPrec(0.3, 4.0)
    return ModelSpec(
        name="ms", kind="markov_switching", k=k,
        groups={
            "phi1": MixturePriorGroup(components=(comp,) * k, label="phi1"),
            "phi2": MixturePriorGroup(components=(NormalPrec(0.0, 4.0),) * k, label="phi2"),
        },
        eta_prior=tuple(Dirichlet((2.0,) * k) for _ in range(k)),
        regularity="msar2_stationarity",
    )


def test_regular_mask_examples():
    # a block of two candidates, one inside the stationarity triangle and one outside
    block = ParameterDraw(delta={}, groups={"phi1": np.array([[0.2], [1.5]]),
                                            "phi2": np.array([[0.2], [0.0]])})
    assert _regular_mask(ar2_model(), block, 2).tolist() == [True, False]
    assert _regular_mask(ar2_model(regularity="none"), block, 2).tolist() == [True, True]


def test_regular_mask_pooled_regimes_agree_with_nested_mask():
    # 50 switching candidates whose regimes share one phi: the block-matrix
    # radius must give the nested companion radius's verdict on each
    rng = np.random.default_rng(SEED + 7)
    phi = rng.uniform(-1.5, 1.5, size=(50, 2, 1))
    eta = np.stack([random_stochastic(rng, 3) for _ in range(50)])
    pooled = ParameterDraw(delta={}, groups={"phi1": np.repeat(phi[:, 0], 3, axis=1),
                                             "phi2": np.repeat(phi[:, 1], 3, axis=1)}, eta=eta)
    nested = ParameterDraw(delta={}, groups={"phi1": phi[:, 0], "phi2": phi[:, 1]})
    mask = _regular_mask(msar2_model(k=3), pooled, 50)
    assert 0 < mask.sum() < 50
    assert np.array_equal(mask, _regular_mask(ar2_model(), nested, 50))


def test_regularity_configuration_errors():
    model = ar2_model()
    with pytest.raises(ConfigurationError):
        _regular_mask(model, ParameterDraw(delta={}, groups={"phi1": np.array([[0.1]])}), 1)
    switching = ParameterDraw(delta={}, groups={"phi1": np.array([[0.1, 0.2]]),
                                                "phi2": np.array([[0.0, 0.0]])})
    with pytest.raises(ConfigurationError):
        _regular_mask(model, switching, 1)


def test_unconstrained_sampler_accepts_everything():
    _, rate = sample_constrained_priors(ar2_model(regularity="none"), 1, np.random.default_rng(0))
    assert rate == 1.0


def test_tight_priors_inside_region_accept_everything():
    model = ModelSpec(
        name="tight", kind="single", k=1,
        groups={
            "phi1": MixturePriorGroup(components=(NormalVar(0.5, 1e-6),), label="phi1"),
            "phi2": MixturePriorGroup(components=(NormalVar(0.3, 1e-6),), label="phi2"),
        },
        regularity="ar2_stationarity",
    )
    draws, rate = sample_constrained_priors(model, 200, np.random.default_rng(1))
    assert rate == 1.0
    assert len(draws) == 200


def test_sampler_cap_error_reports_diagnostics():
    model = ModelSpec(
        name="hopeless", kind="single", k=1,
        groups={
            "phi1": MixturePriorGroup(components=(NormalVar(5.0, 1e-9),), label="phi1"),
            "phi2": MixturePriorGroup(components=(NormalVar(5.0, 1e-9),), label="phi2"),
        },
        regularity="ar2_stationarity",
    )
    with pytest.raises(RejectionCapError) as err:
        sample_constrained_priors(model, 1, np.random.default_rng(2), max_attempts=500)
    assert err.value.attempts == 500


def _random_switching_block(rng, k, m):
    # transition rows with some zeros, regimes mixed-sign, a third of them pooled
    p = rng.dirichlet(np.ones(k), size=(m, k))
    if k > 1:
        p[: m // 4, :, 0] = 0.0
        p[: m // 4] /= p[: m // 4].sum(axis=-1, keepdims=True)
    phi1 = rng.uniform(-1.5, 1.5, size=(m, k))
    phi2 = rng.uniform(-1.0, 1.0, size=(m, k))
    phi1[: m // 3] = phi1[: m // 3, :1]
    phi2[: m // 3] = phi2[: m // 3, :1]
    return p, phi1, phi2


def test_batched_p2_stack_and_mask_match_per_draw_solves():
    from mixprior.constraints import _second_moment_stack

    rng = np.random.default_rng(SEED + 10)
    for k in (1, 2, 3, 4):
        p, phi1, phi2 = _random_switching_block(rng, k, 250)
        stack = _p2_stack(p, phi1, phi2)
        maps = _second_moment_stack(p, phi1, phi2)
        assert stack.shape == (250, 4 * k, 4 * k)
        radius = np.abs(np.linalg.eigvals(stack)).max(axis=-1)
        per_draw = np.empty(250)
        for i in range(250):
            problem = StationarityProblem(
                p=p[i], regimes=tuple(CompanionMatrix(a, b) for a, b in zip(phi1[i], phi2[i])))
            reference = _loop_p2(p[i], zip(phi1[i], phi2[i]))
            assert np.array_equal(stack[i], reference)
            assert np.array_equal(second_moment_map(problem), maps[i])
            per_draw[i] = np.max(np.abs(np.linalg.eigvals(reference)))
        assert np.max(np.abs(radius - per_draw)) <= 1e-12
        assert 0 < np.count_nonzero(per_draw < 1.0) < 250
        if k == 1:
            continue  # a markov_switching model has k >= 2
        block = ParameterDraw(delta={}, groups={"phi1": phi1, "phi2": phi2}, eta=p)
        mask = _regular_mask(msar2_model(k=k), block, 250)
        clear = np.abs(per_draw - 1.0) > 1e-12
        assert np.array_equal(mask[clear], (per_draw < 1.0)[clear])


def test_sampler_mask_agrees_with_the_stationarity_verdict():
    # the mask tests rho < 1 without the accuracy band, which for continuous
    # draws is rounding-sized, so both accept the same candidates
    rng = np.random.default_rng(SEED + 14)
    for k in (2, 3, 4):
        p, phi1, phi2 = _random_switching_block(rng, k, 200)
        block = ParameterDraw(delta={}, groups={"phi1": phi1, "phi2": phi2}, eta=p)
        mask = _regular_mask(msar2_model(k=k), block, 200)
        verdicts = [is_stationary_msar2(StationarityProblem(
            p=p[i], regimes=tuple(CompanionMatrix(a, b) for a, b in zip(phi1[i], phi2[i]))))
            for i in range(200)]
        assert mask.tolist() == [v.stationary for v in verdicts]
        assert not any(v.boundary for v in verdicts)


def _switching_block(p, phi1, phi2):
    return ParameterDraw(delta={}, groups={"phi1": phi1, "phi2": phi2}, eta=p)


def test_switching_mask_equals_the_block_matrix_radius_verdict():
    # the Lyapunov solve decides rho < 1 of the 4K x 4K block matrix: on 1e5
    # random draws, and on draws rescaled to within 1e-9..1e-3 of rho = 1
    # (phi1 -> s phi1, phi2 -> s^2 phi2 makes each companion similar to
    # s Phi_r by one common diagonal matrix, so the block matrix is similar to
    # s^2 times itself)
    rng = np.random.default_rng(SEED + 15)
    for k, m in ((2, 60_000), (3, 25_000), (4, 15_000)):
        model = msar2_model(k=k)
        for _ in range(m // 5000):
            p, phi1, phi2 = _random_switching_block(rng, k, 5000)
            radius = spectral_radius(_p2_stack(p, phi1, phi2))
            mask = _regular_mask(model, _switching_block(p, phi1, phi2), 5000)
            assert np.array_equal(mask, radius < 1.0)
            assert 0.3 < mask.mean() < 0.7
        p, phi1, phi2 = _random_switching_block(rng, k, 3000)
        radius = spectral_radius(_p2_stack(p, phi1, phi2))
        target = 1.0 + rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-9.0, -3.0, 3000)
        s = np.sqrt(target / np.where(radius > 0.0, radius, 1.0))[:, None]
        phi1, phi2 = s * phi1, s * s * phi2
        radius = spectral_radius(_p2_stack(p, phi1, phi2))
        near = (radius > 0.0) & (np.abs(radius - 1.0) <= 1.001e-3)
        assert near.sum() > 2900 and np.all(np.abs(radius[near] - 1.0) > 0.99e-9)
        mask = _regular_mask(model, _switching_block(p, phi1, phi2), 3000)
        assert np.array_equal(mask[near], radius[near] < 1.0)
        assert 0.3 < mask[near].mean() < 0.7


def test_switching_mask_rejects_a_singular_candidate_and_keeps_its_block():
    # p = I with phi = (1, 0) in both regimes has rho = 1 exactly, so I - T is
    # singular and numpy refuses the batched solve of the whole stack
    from mixprior.constraints import _second_moment_stack

    p = np.array([[[1.0, 0.0], [0.0, 1.0]], np.full((2, 2), 0.5)])
    phi1, phi2 = np.array([[1.0, 1.0], [0.2, 0.1]]), np.zeros((2, 2))
    assert spectral_radius(_p2_stack(p, phi1, phi2))[0] == 1.0
    assert np.linalg.matrix_rank(np.eye(6) - _second_moment_stack(p, phi1, phi2)[0]) < 6
    assert _regular_mask(msar2_model(), _switching_block(p, phi1, phi2), 2).tolist() == [False, True]


def test_switching_mask_raises_on_non_finite_entries_as_the_radius_does():
    # phi = 1e154 squares to 1e308, within range: rejected, as the radius
    # (1e308) rejects it; phi = 1e155 overflows the block matrix and the mask
    p = np.full((1, 2, 2), 0.5)
    for phi, finite in ((1e154, True), (1e155, False)):
        phi1 = phi2 = np.full((1, 2), phi)
        block = _switching_block(p, phi1, phi2)
        if finite:
            assert spectral_radius(_p2_stack(p, phi1, phi2))[0] > 1.0
            assert _regular_mask(msar2_model(), block, 1).tolist() == [False]
        else:
            for call in (lambda: spectral_radius(_p2_stack(p, phi1, phi2)),
                         lambda: _regular_mask(msar2_model(), block, 1)):
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    call()


@pytest.mark.parametrize("n", [1, 3, 1000])
def test_sampler_counts_no_candidate_after_the_last_accepted(n):
    draws, rate = sample_constrained_priors(ar2_model(regularity="none"), n,
                                            np.random.default_rng(SEED + 11))
    assert len(draws) == n
    assert rate == 1.0


def test_sampler_keeps_the_first_accepted_candidates_in_stream_order(monkeypatch):
    # record every block and its mask; the draws must be the first n accepted
    # candidates of the concatenated stream, and the rate n over the position
    # of the n-th of them
    from mixprior import constraints

    blocks, masks = [], []
    draw_block, regular_mask = constraints._draw_block, constraints._regular_mask

    def recording_draw(model, m, rng):
        blocks.append(draw_block(model, m, rng))
        return blocks[-1]

    def recording_mask(model, block, m):
        masks.append(regular_mask(model, block, m))
        return masks[-1]

    monkeypatch.setattr(constraints, "_draw_block", recording_draw)
    monkeypatch.setattr(constraints, "_regular_mask", recording_mask)
    model = msar2_model(k=3)
    draws, rate = sample_constrained_priors(model, 600, np.random.default_rng(SEED + 12))
    assert len(blocks) > 1
    mask = np.concatenate(masks)
    stream = np.concatenate([b.groups["phi1"] for b in blocks])
    eta = np.concatenate([b.eta for b in blocks])
    accepted = np.flatnonzero(mask)[:600]
    assert rate == 600 / (accepted[-1] + 1)
    assert np.array_equal(np.array([d.groups["phi1"] for d in draws]), stream[accepted])
    assert np.array_equal(np.array([d.eta for d in draws]), eta[accepted])
    first = ParameterDraw(delta={}, groups={label: np.stack([d.groups[label] for d in draws[:20]])
                                            for label in ("phi1", "phi2")},
                          eta=np.stack([d.eta for d in draws[:20]]))
    assert _regular_mask(model, first, 20).all()


@pytest.mark.parametrize("cap", [1, 7, 500])
def test_sampler_cap_is_exact(cap):
    model = ModelSpec(
        name="hopeless", kind="single", k=1,
        groups={
            "phi1": MixturePriorGroup(components=(NormalVar(5.0, 1e-9),), label="phi1"),
            "phi2": MixturePriorGroup(components=(NormalVar(5.0, 1e-9),), label="phi2"),
        },
        regularity="ar2_stationarity",
    )
    from mixprior.constraints import _block_cap
    assert cap < _block_cap(model)
    with pytest.raises(RejectionCapError) as err:
        sample_constrained_priors(model, 5, np.random.default_rng(SEED + 13), max_attempts=cap)
    assert err.value.attempts == cap
    assert err.value.accepted == 0


def test_switching_sampler_acceptance_matches_plain_mc_mass():
    # the switching counterpart of criterion 7: the acceptance rate of the
    # msiah2_ar2 sampler against the plain Monte Carlo mass of the region,
    # computed on its own stream with the per-matrix repeated-squaring radius
    from pathlib import Path

    from mixprior import parse_model

    path = Path(__file__).resolve().parents[1] / "demos" / "models" / "msiah2_ar2.model"
    model = parse_model(path.read_text(encoding="utf-8"))
    n_accept = 1000
    _, sampler_rate = sample_constrained_priors(model, n_accept,
                                                np.random.default_rng(SEED + 14))
    rng = np.random.default_rng(SEED + 15)
    n_mc = 2000
    inside = 0
    for _ in range(n_mc):
        phi1 = [c.sample(rng) for c in model.groups["phi1"].components]
        phi2 = [c.sample(rng) for c in model.groups["phi2"].components]
        p = np.vstack([row.sample(rng) for row in model.eta_prior])
        problem = StationarityProblem(
            p=p, regimes=tuple(CompanionMatrix(a, b) for a, b in zip(phi1, phi2)))
        inside += spectral_radius(_p2(problem)) < 1.0
    mc_rate = inside / n_mc
    pooled = 0.5 * (sampler_rate + mc_rate)
    se_sampler = math.sqrt(pooled * (1.0 - pooled) * pooled / n_accept)
    se_mc = math.sqrt(pooled * (1.0 - pooled) / n_mc)
    assert 0.3 < mc_rate < 0.7
    assert abs(sampler_rate - mc_rate) <= 3.0 * math.sqrt(se_sampler ** 2 + se_mc ** 2)


def test_sampler_keeps_vector_component_shapes():
    # a group of dirichlet components: each accepted draw holds one row per component
    from mixprior import Dirichlet

    model = ModelSpec(
        name="weights", kind="mixture", k=2,
        delta_priors={"phi1": NormalPrec(0.5, 4.0), "phi2": NormalPrec(0.0, 4.0)},
        groups={"w": MixturePriorGroup(components=(Dirichlet((1.0, 2.0, 3.0)),) * 2, label="w")},
        regularity="ar2_stationarity",
    )
    draws, _ = sample_constrained_priors(model, 5, np.random.default_rng(SEED + 16))
    for draw in draws:
        assert draw.groups["w"].shape == (2, 3)
        assert np.allclose(draw.groups["w"].sum(axis=1), 1.0)
        assert isinstance(draw.delta["phi1"], float)


def test_ordered_group_draws_respect_constraint_through_model_sampler():
    model = ModelSpec(
        name="ordered", kind="mixture", k=3,
        groups={"mu": MixturePriorGroup(components=(NormalVar(0.0, 1.0),) * 3,
                                        ordered=True, label="mu")},
        eta_prior=None,
    )
    rng = np.random.default_rng(SEED + 8)
    draws, rate = sample_constrained_priors(model, 500, rng)
    assert rate == 1.0
    assert np.all(np.diff(np.stack([draw.groups["mu"] for draw in draws]), axis=1) >= 0.0)


def test_intermediate_model_sampler_respects_nested_constraint(msi2_doc):
    # only the intercept switches; the constraint statistic is the plain
    # companion radius evaluated at the common phi values
    from mixprior import companion_spectral_radius, parse_model

    model = parse_model(msi2_doc)
    draws, rate = sample_constrained_priors(model, 300, np.random.default_rng(SEED + 9))
    assert 0.0 < rate <= 1.0
    for draw in draws:
        assert companion_spectral_radius(draw.delta["phi1"], draw.delta["phi2"]) < 1.0
        assert draw.eta.shape == (2, 2)
        assert np.allclose(draw.eta.sum(axis=1), 1.0)
        assert draw.groups["alpha"].shape == (2,)


def test_ordering_neutrality_lightweight():
    # ordered identical components: the epsilon-band conditional of the first
    # coordinate approaches the nested prior as epsilon shrinks
    from mixprior import NormalVar, mc_conditional_check, coherent_product
    comp = NormalVar(0.0, 1.0)
    group = MixturePriorGroup(components=(comp,) * 2, ordered=True)
    claimed = coherent_product(group.components)
    wide = mc_conditional_check(group, claimed, epsilon=0.1, n_draws=300_000,
                                rng=np.random.default_rng(100))
    narrow = mc_conditional_check(group, claimed, epsilon=0.02, n_draws=1_500_000,
                                  rng=np.random.default_rng(100))
    assert narrow.passed
    assert narrow.ks_statistic < wide.ks_statistic
