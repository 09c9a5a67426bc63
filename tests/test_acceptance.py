"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines as they happen).  Every tolerance is pinned here.
"""

import json
import math
import time

import numpy as np
import pytest

from mixprior import (
    CompanionMatrix,
    FeasibilityError,
    Gamma,
    InvGamma,
    MixturePriorGroup,
    ModelSpec,
    NormalPrec,
    NormalVar,
    StationarityProblem,
    coherent_family,
    coherent_gamma_forward,
    coherent_invgamma_forward,
    coherent_normal_forward,
    coherent_normal_prec_forward,
    coherent_product,
    companion_spectral_radius,
    feasible_k_range,
    mc_conditional_check,
    parse_model,
    reverse_equal_gamma,
    reverse_equal_invgamma,
    reverse_equal_normal,
    sample_constrained_priors,
    second_moment_map,
    spectral_radius,
    verify_product_coherence,
)
from mixprior.cli import main

SEED = 20260810


def _verdict(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def _random_components(rng, family, k):
    if family == "normal_var":
        return [NormalVar(float(rng.uniform(-4, 4)), float(rng.uniform(0.2, 6.0)))
                for _ in range(k)]
    if family == "normal_prec":
        return [NormalPrec(float(rng.uniform(-4, 4)), float(rng.uniform(0.2, 6.0)))
                for _ in range(k)]
    if family == "gamma":
        return [Gamma(float(rng.uniform(2.0, 9.0)), float(rng.uniform(0.3, 4.0)))
                for _ in range(k)]
    return [InvGamma(float(rng.uniform(1.0, 9.0)), float(rng.uniform(0.2, 4.0)))
            for _ in range(k)]


def test_criterion_01_grid_oracle_certifies_every_forward_map():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for family in ("normal_var", "normal_prec", "gamma", "inv_gamma"):
        for _ in range(25):
            k = int(rng.integers(2, 7))
            components = _random_components(rng, family, k)
            report = verify_product_coherence(components, coherent_product(components),
                                              sup_tol=1e-6)
            worst = max(worst, report.sup_norm_error)
            assert report.passed, (family, components, report.sup_norm_error)
    elapsed = time.perf_counter() - start
    _verdict(1, "grid oracle, 100 randomized instances across four families",
             worst <= 1e-6 and elapsed < 30.0,
             f"worst sup error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_mc_conditional_check_with_ordering_neutrality():
    start = time.perf_counter()
    cases = [
        NormalVar(0.0, 1.0),
        NormalPrec(0.0, 1.0),
        Gamma(2.0, 1.0),
        InvGamma(2.5, 0.2),
    ]
    failures = []
    for component in cases:
        for k, epsilon in ((2, 0.02), (3, 0.05)):
            for ordered in (False, True):
                group = MixturePriorGroup(components=(component,) * k, ordered=ordered)
                claimed = coherent_product(group.components)
                report = mc_conditional_check(group, claimed, epsilon=epsilon,
                                              n_draws=1_000_000,
                                              rng=np.random.default_rng(SEED))
                if not report.passed:
                    failures.append((component.family, k, ordered, report.ks_statistic))
    elapsed = time.perf_counter() - start
    _verdict(2, "epsilon-band conditional KS check, plain and ordered, K in {2,3}",
             not failures and elapsed < 120.0,
             f"failures {failures}, {elapsed:.1f}s")


def test_criterion_03_reverse_forward_round_trips():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        m1, v1 = float(rng.uniform(-5, 5)), float(rng.uniform(0.01, 50.0))
        m, v = reverse_equal_normal(m1, v1, k, "variance")
        back = coherent_normal_forward([(m, v)] * k)
        worst = max(worst, abs(back[0] - m1), abs(back[1] - v1) / v1)

        p1 = float(rng.uniform(0.01, 50.0))
        m, p = reverse_equal_normal(m1, p1, k, "precision")
        back = coherent_normal_prec_forward([(m, p)] * k)
        worst = max(worst, abs(back[0] - m1), abs(back[1] - p1) / p1)

        a1 = float(rng.uniform(0.1, 20.0)) + k  # keep the shape bound satisfied
        b1 = float(rng.uniform(0.01, 20.0))
        a, b = reverse_equal_invgamma(a1, b1, k)
        back = coherent_invgamma_forward([(a, b)] * k)
        worst = max(worst, abs(back[0] - a1) / a1, abs(back[1] - b1) / b1)

        a1 = float(rng.uniform(0.05, 20.0))
        a, b = reverse_equal_gamma(a1, b1, k)
        back = coherent_gamma_forward([(a, b)] * k)
        worst = max(worst, abs(back[0] - a1) / a1, abs(back[1] - b1) / b1)
    _verdict(3, "reverse-then-forward identity, 100 randomized nested priors per family",
             worst <= 1e-12, f"worst relative error {worst:.2e}")


def test_criterion_04_invgamma_feasibility_gate():
    rejected = False
    try:
        reverse_equal_invgamma(2.0, 1.0, 4)
    except FeasibilityError:
        rejected = True
    accepted = reverse_equal_invgamma(3.0 + 1e-6, 1.0, 4)[0] > 0.0
    range_says_no = feasible_k_range(2.0, 2, 4)
    range_says_yes = feasible_k_range(3.0 + 1e-6, 2, 4)
    diagnostics = False
    try:
        coherent_family([InvGamma(2.0, 1.0)], ks={2, 3, 4}, labels=["sigma2"])
    except FeasibilityError as err:
        diagnostics = "sigma2" in str(err) and "K=" in str(err)
    _verdict(4, "inverse gamma shape bound gates the reverse map",
             rejected and accepted and not range_says_no.feasible
             and 4 in range_says_no.infeasible_ks and range_says_yes.feasible
             and diagnostics)


def test_criterion_05_spectral_collapse_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 6))
        p = rng.dirichlet(np.ones(k), size=k)
        # a stationary companion: sample inside the triangle
        while True:
            phi1, phi2 = rng.uniform(-1.8, 1.8), rng.uniform(-0.95, 0.95)
            if phi1 + phi2 < 0.98 and phi2 - phi1 < 0.98:
                break
        regime = CompanionMatrix(phi1, phi2)
        problem = StationarityProblem(p=p, regimes=(regime,) * k)
        rho_map = spectral_radius(second_moment_map(problem))
        rho_companion = spectral_radius(regime.as_array())
        worst = max(worst, abs(rho_map - rho_companion ** 2))
    oracle = (0.5 + math.sqrt(1.45)) / 2.0
    companion_err = abs(spectral_radius(CompanionMatrix(0.5, 0.3).as_array()) - oracle)
    elapsed = time.perf_counter() - start
    _verdict(5, "second-moment map radius collapses to the squared companion radius",
             worst <= 1e-8 and companion_err <= 1e-10 and elapsed < 10.0,
             f"worst collapse error {worst:.2e}, companion error {companion_err:.2e}, "
             f"{elapsed:.1f}s")


def _known_spectrum_matrix(rng):
    """A signed ``V D V^-1`` with real and rotation blocks in D, and its exact radius."""
    n_real, n_pairs = int(rng.integers(0, 8)), int(rng.integers(0, 6))
    if n_real + 2 * n_pairs < 2:
        n_real = 2
    n = n_real + 2 * n_pairs
    d = np.zeros((n, n))
    moduli = []
    for i in range(n_real):
        d[i, i] = rng.uniform(-3.0, 3.0)
        moduli.append(abs(d[i, i]))
    for j in range(n_pairs):
        i = n_real + 2 * j
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0)
        d[i:i + 2, i:i + 2] = [[a, -b], [b, a]]
        moduli.append(math.hypot(a, b))
    while True:
        v = rng.normal(size=(n, n))
        if np.linalg.cond(v) <= 100.0:
            break
    return v @ d @ np.linalg.inv(v), max(moduli)


def test_criterion_06_spectral_radius_vs_independent_radii():
    rng = np.random.default_rng(SEED + 6)
    worst = {"known spectrum": 0.0, "p = I": 0.0, "collapse": 0.0}
    for i in range(200):
        if i % 2 == 0:
            a, oracle = _known_spectrum_matrix(rng)
            case = "known spectrum"
        else:
            # switching-AR(2) second-moment maps with mixed-sign coefficients,
            # whose radius the closed-form companion radius gives
            k = int(rng.integers(1, 6))
            regimes = tuple(CompanionMatrix(float(rng.uniform(-1.5, 1.5)),
                                            float(rng.uniform(-1.0, 1.0)))
                            for _ in range(k))
            if i % 4 == 1:
                # p = I: block-diagonal, rho = max_r rho(Phi_r)^2
                p, case = np.eye(k), "p = I"
            else:
                # equal regimes: rho = rho(Phi)^2 whatever the transition matrix
                p, case = rng.dirichlet(np.ones(k), size=k), "collapse"
                regimes = (regimes[0],) * k
            a = second_moment_map(StationarityProblem(p=p, regimes=regimes))
            oracle = max(companion_spectral_radius(r.phi1, r.phi2) for r in regimes) ** 2
        worst[case] = max(worst[case], abs(spectral_radius(a) - oracle))
    _verdict(6, "eigensolver radius vs independent radii on 200 signed matrices",
             max(worst.values()) <= 1e-8,
             ", ".join(f"{case} {err:.2e}" for case, err in worst.items()))


def test_criterion_07_constrained_sampler_matches_plain_mc_mass():
    model = ModelSpec(
        name="diffuse_ar2", kind="single", k=1,
        groups={
            "phi1": MixturePriorGroup(components=(NormalVar(0.0, 100.0),), label="phi1"),
            "phi2": MixturePriorGroup(components=(NormalVar(0.0, 100.0),), label="phi2"),
        },
        regularity="ar2_stationarity",
    )
    rng = np.random.default_rng(SEED + 7)
    # sampler route: the acceptance rate of the stationarity rejection sampler
    n_accept = 640
    _, sampler_rate = sample_constrained_priors(model, n_accept, rng,
                                                max_attempts=4_000_000)
    # independent route: plain Monte Carlo mass of the stationarity triangle
    n_mc = 100_000
    phi1 = rng.normal(0.0, 10.0, size=n_mc)
    phi2 = rng.normal(0.0, 10.0, size=n_mc)
    inside = (phi2 > -1.0) & (phi1 + phi2 < 1.0) & (phi2 - phi1 < 1.0)
    mc_rate = float(inside.mean())
    pooled = 0.5 * (sampler_rate + mc_rate)
    se_sampler = math.sqrt(pooled * (1.0 - pooled) * pooled / n_accept)
    se_mc = math.sqrt(pooled * (1.0 - pooled) / n_mc)
    margin = 3.0 * math.sqrt(se_sampler ** 2 + se_mc ** 2)
    gap = abs(sampler_rate - mc_rate)
    _verdict(7, "rejection-sampler acceptance equals the triangle prior mass",
             gap <= margin,
             f"sampler {sampler_rate:.5f}, plain MC {mc_rate:.5f}, gap {gap:.5f} "
             f"vs 3SE {margin:.5f}")


def test_criterion_08_end_to_end_switching_ar2_scenario(tmp_path, model_paths, capsys):
    out_dir = tmp_path / "generated"
    rc_family = main(["family", "--model", model_paths["ar2"], "--k-range", "2:2",
                      "--out-dir", str(out_dir)])
    capsys.readouterr()
    generated = out_dir / "ar2_k2.model"
    built = parse_model(generated.read_text())
    reference = parse_model(open(model_paths["msiah2"]).read())
    same_structure = built == type(built)(
        name=built.name, kind=reference.kind, k=reference.k,
        delta_priors=reference.delta_priors, groups=reference.groups,
        eta_prior=reference.eta_prior, initial_state=reference.initial_state,
        regularity=reference.regularity,
    )

    def plan_passes(nested_path, general_path):
        rc = main(["check-plan", "--nested", str(nested_path), "--general",
                   str(general_path), "--tol", "1e-12", "--format", "machine"])
        payload = json.loads(capsys.readouterr().out)
        return rc == 0 and payload["passed"]

    nested_vs_general = plan_passes(model_paths["ar2"], generated)
    nested_vs_intermediate = plan_passes(model_paths["ar2"], model_paths["msi2"])
    intermediate_vs_general = plan_passes(model_paths["msi2"], generated)
    with capsys.disabled():
        _verdict(8, "family expansion then plan checks across nested, intermediate, general",
                 rc_family == 0 and same_structure and nested_vs_general
                 and nested_vs_intermediate and intermediate_vs_general,
                 f"pairings: M1-MK {nested_vs_general}, M1-M* {nested_vs_intermediate}, "
                 f"M*-MK {intermediate_vs_general}")
