"""Cross-library checks: densities and CDFs against scipy.stats.

These pin the parametrization conventions (the inverse gamma's reciprocal
scale, the gamma's rate) to an implementation nobody in this package wrote,
and the normalizers of the products the grid oracle certifies to adaptive
quadrature.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from mixprior import (Dirichlet, Gamma, InvGamma, MixturePriorGroup, NormalPrec, NormalVar,
                      coherent_product, mc_conditional_check)
from mixprior.special import reg_lower_incomplete_gamma

SEED = 1234


def test_normal_var_matches_scipy():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        m, v = float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 10))
        dist = NormalVar(m, v)
        ref = stats.norm(loc=m, scale=np.sqrt(v))
        xs = rng.uniform(m - 5 * np.sqrt(v), m + 5 * np.sqrt(v), size=20)
        assert np.allclose(dist.log_pdf(xs), ref.logpdf(xs), atol=1e-12)
        assert np.allclose(dist.cdf(xs), ref.cdf(xs), atol=1e-12)


def test_normal_prec_matches_scipy():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(25):
        m, p = float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 10))
        dist = NormalPrec(m, p)
        ref = stats.norm(loc=m, scale=1.0 / np.sqrt(p))
        xs = rng.uniform(m - 5, m + 5, size=20)
        assert np.allclose(dist.log_pdf(xs), ref.logpdf(xs), atol=1e-12)


def test_gamma_rate_convention_matches_scipy():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(25):
        a, b = float(rng.uniform(0.3, 12)), float(rng.uniform(0.1, 6))
        dist = Gamma(a, b)
        ref = stats.gamma(a, scale=1.0 / b)  # rate b = 1 / scipy scale
        xs = rng.uniform(0.01, 5.0, size=20) * max(a / b, 1.0)
        assert np.allclose(dist.log_pdf(xs), ref.logpdf(xs), atol=1e-11)
        assert np.allclose(dist.cdf(xs), ref.cdf(xs), atol=1e-12)


def test_invgamma_reciprocal_scale_convention_matches_scipy():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(25):
        a, b = float(rng.uniform(0.3, 12)), float(rng.uniform(0.1, 6))
        dist = InvGamma(a, b)
        ref = stats.invgamma(a, scale=1.0 / b)  # textbook scale = 1 / b
        xs = rng.uniform(0.01, 5.0, size=20) / b
        assert np.allclose(dist.log_pdf(xs), ref.logpdf(xs), atol=1e-11)
        assert np.allclose(dist.cdf(xs), ref.cdf(xs), atol=1e-12)


def test_dirichlet_matches_scipy():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        d = tuple(float(v) for v in rng.uniform(0.5, 8.0, size=dim))
        dist = Dirichlet(d)
        ref = stats.dirichlet(np.asarray(d))
        x = rng.dirichlet(np.ones(dim))
        x = np.clip(x, 1e-9, None)
        x = x / x.sum()
        assert dist.log_pdf(x) == pytest.approx(float(ref.logpdf(x)), abs=1e-10)


def test_invgamma_sampler_matches_scipy_distribution():
    # two-sample KS between this package's sampler and scipy's
    rng = np.random.default_rng(SEED + 5)
    ours = InvGamma(3.0, 0.5).sample(rng, size=50_000)
    theirs = stats.invgamma(3.0, scale=2.0).rvs(size=50_000, random_state=rng)
    stat, pvalue = stats.ks_2samp(ours, theirs)
    assert pvalue > 0.001, (stat, pvalue)


# (lowest shape, highest shape, absolute bound): the error grows with the shape
# through the prefactor x^a e^-x / Gamma(a)
INCGAMMA_BANDS = [(1e-3, 1e2, 1e-13), (1e2, 1e3, 2e-12), (1e3, 1e4, 2e-11)]


@pytest.mark.parametrize("lo, hi, bound", INCGAMMA_BANDS)
def test_incomplete_gamma_matches_scipy_alone_and_in_a_batch(lo, hi, bound):
    # each point alone, then inside one 32,768-point batch that spans both
    # regimes far past it: a step count taken from the wrong extreme of a batch
    # leaves the batch's points short of convergence
    rng = np.random.default_rng(SEED + 6)
    for shape in np.exp(rng.uniform(math.log(lo), math.log(hi), 8)):
        sd = math.sqrt(shape)
        xs = np.concatenate([
            [0.0, 1e-300, shape + 1.0, shape + 1.0 + 1e-12, shape + 1.0 - 1e-12],
            np.maximum(shape + sd * np.linspace(-8.0, 8.0, 9), 0.0),
            shape * np.array([1e-6, 1e-2, 0.5, 2.0, 10.0]),
        ])
        want = special.gammainc(shape, xs)
        alone = np.array([reg_lower_incomplete_gamma(shape, float(x)) for x in xs])
        filler = rng.uniform(0.0, 2.0, 32_768 - xs.size) * (shape + 10.0 * sd + 10.0)
        batch = reg_lower_incomplete_gamma(shape, np.concatenate([xs, filler]))[:xs.size]
        assert np.max(np.abs(alone - want)) <= bound, shape
        assert np.max(np.abs(batch - want)) <= bound, shape


# (family, component hyperparameter pairs): the gamma and inverse gamma
# products the log x grid certifies and a grid in x did not
PRODUCT_CASES = [
    ("inv_gamma", [(0.1, 1.0)] * 2),
    ("gamma", [(1.2, 1.0), (1.3, 1.0)]),
    ("gamma", [(0.6, 1.0), (0.7, 1.0)]),
] + [(family, [(3.0, b), (4.0, b)])
     for family in ("gamma", "inv_gamma") for b in (1.0, 1e3, 1e6, 1e9)]


def _scipy(family, a, b):
    if family == "gamma":
        return stats.gamma(a, scale=1.0 / b)
    return stats.invgamma(a, scale=1.0 / b)


def _log_normalizer(family, pairs):
    """Closed form of log of the integral of the product of the component densities."""
    k = len(pairs)
    if family == "gamma":
        shape, rate = sum(a for a, _ in pairs) - k + 1, sum(b for _, b in pairs)
        return (sum(a * math.log(b) - math.lgamma(a) for a, b in pairs)
                + math.lgamma(shape) - shape * math.log(rate)), (shape, rate)
    shape, scale = sum(a for a, _ in pairs) + k - 1, 1.0 / sum(1.0 / b for _, b in pairs)
    return (shape * math.log(scale) + math.lgamma(shape)
            - sum(a * math.log(b) + math.lgamma(a) for a, b in pairs)), (shape, scale)


@pytest.mark.parametrize("family, pairs", PRODUCT_CASES)
def test_product_normalizer_matches_adaptive_quadrature(family, pairs):
    log_c, nested = _log_normalizer(family, pairs)
    types = {"gamma": Gamma, "inv_gamma": InvGamma}
    claimed = coherent_product([types[family](a, b) for a, b in pairs])
    assert claimed.params() == pytest.approx(nested, rel=1e-12)
    ref = _scipy(family, *nested)
    parts = [_scipy(family, a, b) for a, b in pairs]

    def scaled_product(u):
        x = math.exp(u)
        return math.exp(sum(p.logpdf(x) for p in parts) + u - log_c)

    lo, hi = math.log(ref.ppf(1e-14)), math.log(ref.isf(1e-14))
    mode = math.log(ref.median())
    total, _ = integrate.quad(scaled_product, lo, hi, points=[mode], epsabs=0.0,
                              epsrel=1e-11, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_additive_band_rejects_the_log_contrast_conditional():
    # conditioning on log x_2 - log x_1 = 0 weights the product by x^(K-1), giving
    # Gamma(sum a, sum b); the band on additive contrasts conditions on
    # x_2 - x_1 = 0, whose law is the coherent product Gamma(sum a - K + 1, sum b)
    group = MixturePriorGroup(components=(Gamma(2.0, 1.0), Gamma(3.0, 2.0)))
    true = mc_conditional_check(group, coherent_product(group.components), epsilon=0.02,
                                n_draws=1_000_000, rng=np.random.default_rng(SEED + 6))
    log_contrast = mc_conditional_check(group, Gamma(5.0, 3.0), epsilon=0.02,
                                        n_draws=1_000_000, rng=np.random.default_rng(SEED + 6))
    assert true.passed
    assert not log_contrast.passed
    assert log_contrast.ks_statistic > 3.0 * log_contrast.ks_critical


# (family, component hyperparameter pairs, ordered, band half-width): the
# thinned band's retention against a quadrature of scipy's densities and CDFs
RETENTION_CASES = {
    "gamma-pair": ("gamma", [(2.0, 1.0), (3.0, 2.0)], False, 0.02),
    "inv-gamma-triple": ("inv_gamma", [(3.0, 2.0), (4.0, 1.0), (3.5, 4.0)], False, 0.05),
    "gamma-0.5-pair": ("gamma", [(0.5, 1.0)] * 2, False, 0.05),
    "gamma-ordered-triple": ("gamma", [(4.0, 2.0)] * 3, True, 0.05),
}


@pytest.mark.parametrize("family, pairs, ordered, epsilon", RETENTION_CASES.values(),
                         ids=RETENTION_CASES.keys())
def test_band_retention_matches_a_quadrature_of_the_window_masses(family, pairs, ordered,
                                                                  epsilon):
    # a row is kept with probability p = int f_1(x) prod_j [F_j(x + eps) - F_j(x - eps)] dx,
    # or int K f(y) [F(y + eps) - F(y)]^(K-1) dy for an identical ordered group, so
    # the retained count is Binomial(n, p)
    types = {"gamma": Gamma, "inv_gamma": InvGamma}
    group = MixturePriorGroup(components=tuple(types[family](a, b) for a, b in pairs),
                              ordered=ordered)
    first, *others = [_scipy(family, a, b) for a, b in pairs]
    if ordered:
        def integrand(x):
            window = first.cdf(x + epsilon) - first.cdf(x)
            return group.k * first.pdf(x) * window ** (group.k - 1)
    else:
        def integrand(x):
            return first.pdf(x) * math.prod(d.cdf(x + epsilon) - d.cdf(x - epsilon)
                                            for d in others)
    # in u = log x, over the first component's quantiles 1e-13 and 1 - 1e-13
    lo, hi = math.log(first.ppf(1e-13)), math.log(first.isf(1e-13))
    modes = {c.mode() for c in group.components}
    points = sorted(math.log(m) for m in modes if m > 0.0 and lo < math.log(m) < hi)
    p, _ = integrate.quad(lambda u: integrand(math.exp(u)) * math.exp(u), lo, hi,
                          points=points or None, epsabs=0.0, epsrel=1e-10, limit=400)
    n = 1_000_000
    # only the retained count is read; a shape sum below K - 1 has no coherent product
    report = mc_conditional_check(group, group.components[0], epsilon=epsilon, n_draws=n,
                                  rng=np.random.default_rng(SEED + 7))
    assert abs(report.n_retained - n * p) < 4.0 * math.sqrt(n * p * (1.0 - p)), \
        (report.n_retained, n * p)


# (components, ordered band half-width, P(cone) and P(keep) to 7 digits): the
# thinned ordered band's cone mass and keep probability, which its candidate
# rate and its kept count read, against scipy quadrature
CONE_CASES = {
    "inv-gamma-pair": ([InvGamma(1.5, 2.0), InvGamma(2.5, 4.0)], 0.02, (0.1139511, 0.1505334)),
    "normal-prec-pair": ([NormalPrec(-0.5, 4.0), NormalPrec(0.5, 4.0)], 0.005,
                         (0.9213504, 0.001132)),
    "gamma-triple": ([Gamma(2.0, 1.0), Gamma(3.0, 2.0), Gamma(4.0, 1.5)], 0.05,
                     (0.26742, 0.000309)),
    # standard deviations 10 and 0.1: the grid refines where the narrow one lies
    "normal-pair-of-two-scales": ([NormalVar(0.0, 100.0), NormalVar(1.0, 0.01)], 0.05,
                                  (0.5398259, 0.0036774)),
    # standard deviations 1000 and 0.001: each is resolved on its own grid bounds
    "normal-pair-far-apart-scales": ([NormalVar(0.0, 1e6), NormalVar(1.0, 1e-6)], 100.0,
                                     (0.5003989, 0.0795961)),
}


def _scipy_dist(dist):
    if isinstance(dist, NormalPrec):
        return stats.norm(dist.m, 1.0 / math.sqrt(dist.vprec))
    if isinstance(dist, NormalVar):
        return stats.norm(dist.m, math.sqrt(dist.v))
    return _scipy(dist.family, *dist.params())


@pytest.mark.parametrize("components, epsilon, digits", CONE_CASES.values(),
                         ids=CONE_CASES.keys())
def test_ordered_band_quadrature_matches_scipy(components, epsilon, digits):
    # P(cone) = P(x_1 <= ... <= x_K) and P(keep) = int f_1 q / P(cone), with
    # q(y) = P(y <= x_2 <= ... <= x_K < y + eps), at 1e-10 relative.  The outer
    # integrals run in log x for the positive families; at K = 3 the middle
    # coordinate s of the cone sees two CDFs, and q is a 40-point Gauss-Legendre
    # rule over the window, whose integrand is smooth
    from mixprior import verify

    group = MixturePriorGroup(components=tuple(components), ordered=True)
    grid = verify._grid(group.components, epsilon)
    cone = verify._cone_mass(grid, group.components)
    keep = verify._keep_probability(grid, group, epsilon, cone)
    first, *others = [_scipy_dist(d) for d in components]
    log_x = components[0].support[0] == 0.0

    def integral(f, dist, points=None):
        # int f(x) dx over dist's quantiles 1e-15 and 1 - 1e-15
        lo, hi = dist.ppf(1e-15), dist.isf(1e-15)
        if log_x:
            value, _ = integrate.quad(lambda u: f(math.exp(u)) * math.exp(u), math.log(lo),
                                      math.log(hi), epsabs=0.0, epsrel=1e-12, limit=400)
        else:
            value, _ = integrate.quad(f, lo, hi, points=points, epsabs=0.0, epsrel=1e-12,
                                      limit=400)
        return value

    if len(others) == 1:
        (second,) = others
        ref_cone = integral(lambda s: second.pdf(s) * first.cdf(s), second)
        # the window masses of a narrow second component vanish but near its median
        ref_keep = integral(lambda y: first.pdf(y) * (second.cdf(y + epsilon) - second.cdf(y)),
                            first, points=[second.median() - epsilon, second.median()])
    else:
        second, third = others
        ref_cone = integral(lambda s: second.pdf(s) * first.cdf(s) * third.sf(s), second)

        def q(y):
            inner, _ = integrate.fixed_quad(
                lambda s: second.pdf(s) * (third.cdf(y + epsilon) - third.cdf(s)),
                y, y + epsilon, n=40)
            return inner

        ref_keep = integral(lambda y: first.pdf(y) * q(y), first)
    assert cone == pytest.approx(ref_cone, rel=1e-10)
    assert keep == pytest.approx(ref_keep / ref_cone, rel=1e-10)
    assert (round(cone, 7), round(keep, 7)) == digits


# (components, ordered band half-width, P(keep)): bands on which the window
# quadrature must hold at any component width and any K.  The triple's x_2 is
# a thousand times narrower than the others: its references are a scipy
# quadrature whose outer integral runs over x_2, int f_2(s) int_(s-eps)^s f_1(y)
# [F_3(y + eps) - F_3(s)] dy ds, over P(cone) = int f_2 F_1 (1 - F_3).  The
# gamma quadruple's int f_1 q comes from nested 80-point Gauss-Legendre rules
# over the window and a Simpson rule in log x outside, converged to 15 digits
# (0.02047364970007228 at eps 2, 3.0171524574293084e-07 at eps 0.05), over
# P(cone) = 0.1191878554589
_NARROW_TRIPLE = [NormalVar(0.0, 1.0), NormalVar(1.0, 1e-6), NormalVar(2.0, 1.0)]
_GAMMA_QUADRUPLE = [Gamma(2.0, 1.0), Gamma(3.0, 2.0), Gamma(4.0, 1.5), Gamma(2.5, 0.8)]
WINDOW_CASES = {
    "narrow-middle-wide-band": (_NARROW_TRIPLE, 10.0, 0.9999999891),
    "narrow-middle": (_NARROW_TRIPLE, 3.0, 0.6653707536),
    "gamma-quadruple": (_GAMMA_QUADRUPLE, 2.0, 0.1717763074202),
    "gamma-quadruple-narrow-band": (_GAMMA_QUADRUPLE, 0.05, 2.531426080e-6),
}


@pytest.mark.parametrize("components, epsilon, p_keep", WINDOW_CASES.values(),
                         ids=WINDOW_CASES.keys())
def test_ordered_band_windows_match_scipy_at_any_width(components, epsilon, p_keep):
    # P(keep) = int f_1 q / P(cone), q(y) = P(y <= x_2 <= ... <= x_K < y + eps),
    # at 1e-9 absolute
    from mixprior import verify

    group = MixturePriorGroup(components=tuple(components), ordered=True)
    grid = verify._grid(group.components, epsilon)
    cone = verify._cone_mass(grid, group.components)
    assert verify._keep_probability(grid, group, epsilon, cone) == pytest.approx(p_keep, abs=1e-9)
