"""Cross-model pairing tests: rule derivation, plan checking, family construction."""

import dataclasses
import json
import math

import pytest

from mixprior import (
    CoherencePlan,
    MixturePriorGroup,
    NormalPrec,
    PlanError,
    build_family_model,
    check_plan,
    coherent_product,
    derive_pairings,
    from_machine,
    parse_model,
    to_human,
    to_machine,
)


def plan_between(nested, general):
    return CoherencePlan(nested=nested, general=general,
                         pairings=derive_pairings(nested, general))


def test_nested_vs_general_all_product_pairings(ar2_doc, msiah2_doc):
    nested = parse_model(ar2_doc)
    general = parse_model(msiah2_doc)
    pairings = derive_pairings(nested, general)
    assert {(p.name, p.rule) for p in pairings} == {
        ("alpha", "product"), ("phi1", "product"),
        ("phi2", "product"), ("sigma_prec", "product"),
    }
    report = check_plan(plan_between(nested, general))
    assert report.passed
    assert all(r.discrepancy <= 1e-12 for r in report.results)


def test_nested_vs_intermediate_mixes_rules(ar2_doc, msi2_doc):
    nested = parse_model(ar2_doc)
    general = parse_model(msi2_doc)
    pairings = {(p.name, p.rule) for p in derive_pairings(nested, general)}
    assert pairings == {
        ("alpha", "product"), ("phi1", "identity"),
        ("phi2", "identity"), ("sigma_prec", "identity"),
    }
    assert check_plan(plan_between(nested, general)).passed


def test_intermediate_vs_general(msi2_doc, msiah2_doc):
    nested = parse_model(msi2_doc)
    general = parse_model(msiah2_doc)
    pairings = {(p.name, p.rule) for p in derive_pairings(nested, general)}
    assert pairings == {
        ("alpha", "identity"), ("phi1", "product"), ("phi2", "product"),
        ("sigma_prec", "product"), ("eta", "identity"),
    }
    report = check_plan(plan_between(nested, general))
    assert report.passed, to_human(report)


def test_perturbed_variance_fails_with_reported_discrepancy(ar2_doc, msiah2_doc):
    nested = parse_model(ar2_doc)
    general = parse_model(msiah2_doc)
    bumped = dataclasses.replace(
        nested,
        groups={**nested.groups,
                "phi1": MixturePriorGroup(components=(NormalPrec(0.5, 4.0 + 1e-3),),
                                          label="phi1")},
    )
    report = check_plan(plan_between(bumped, general))
    assert not report.passed
    failing = {r.name: r for r in report.results if not r.passed}
    assert set(failing) == {"phi1"}
    assert failing["phi1"].discrepancy == pytest.approx(1e-3, rel=1e-6)


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_nan_or_negative_tolerance_is_refused(tol, ar2_doc, msiah2_doc):
    with pytest.raises(ValueError, match="tol"):
        check_plan(plan_between(parse_model(ar2_doc), parse_model(msiah2_doc)), tol=tol)


def test_backwards_nesting_is_reported_as_failure(ar2_doc, msiah2_doc):
    report = check_plan(plan_between(parse_model(msiah2_doc), parse_model(ar2_doc)))
    assert not report.passed
    assert any("switches in the nested model" in r.detail for r in report.results)


def test_family_mismatch_raises(ar2_doc, msiah2_doc):
    nested = parse_model(ar2_doc)
    general = parse_model(msiah2_doc)
    swapped = dataclasses.replace(
        nested,
        groups={**nested.groups,
                "sigma_prec": MixturePriorGroup(components=(NormalPrec(1.0, 1.0),),
                                                label="sigma_prec")},
    )
    with pytest.raises(PlanError):
        check_plan(plan_between(swapped, general))


def test_build_family_model_reproduces_msiah_document(ar2_doc, msiah2_doc):
    nested = parse_model(ar2_doc)
    built = build_family_model(nested, 2, name="msiah2_ar2")
    assert built == parse_model(msiah2_doc)


def test_build_family_model_round_trips_through_products(ar2_doc):
    nested = parse_model(ar2_doc)
    for k in (2, 3, 5):
        general = build_family_model(nested, k)
        assert general.k == k
        assert general.regularity == "msar2_stationarity"
        for label, group in general.groups.items():
            implied = coherent_product(group.components)
            assert implied == nested.groups[label].components[0], label


def test_build_family_model_rejects_non_single(msiah2_doc):
    with pytest.raises(PlanError):
        build_family_model(parse_model(msiah2_doc), 3)


def test_build_family_model_mixture_kind(ar2_doc):
    nested = parse_model(ar2_doc)
    unconstrained = dataclasses.replace(nested, regularity="none")
    general = build_family_model(unconstrained, 3, kind="mixture", eta_concentration=2.0)
    assert general.kind == "mixture"
    assert len(general.eta_prior) == 1 and general.eta_prior[0].dim == 3
    assert general.regularity == "none"
    # the switching stationarity constraint needs transition rows
    with pytest.raises(PlanError):
        build_family_model(nested, 3, kind="mixture")


def test_plan_report_machine_round_trip(ar2_doc, msiah2_doc):
    report = check_plan(plan_between(parse_model(ar2_doc), parse_model(msiah2_doc)))
    text = to_machine(report)
    again = from_machine(text)
    assert again == report
    assert to_machine(again) == text


def test_missing_parameter_plan_is_strict_json_and_round_trips(ar2_doc, msiah2_doc):
    nested = parse_model(ar2_doc)
    general = parse_model(msiah2_doc)
    extra = MixturePriorGroup(components=(NormalPrec(0.0, 1.0),) * general.k, label="extra")
    general = dataclasses.replace(general, groups={**general.groups, "extra": extra})
    report = check_plan(plan_between(nested, general))
    assert math.inf in [r.discrepancy for r in report.results]

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = to_machine(report)
    payload = json.loads(text, parse_constant=refuse)
    assert None in [p["discrepancy"] for p in payload["pairings"]]
    again = from_machine(text)
    assert again == report
    assert to_machine(again) == text


def test_emit_report_dispatch_and_stationarity_round_trip():
    import numpy as np

    from mixprior import (CompanionMatrix, StationarityProblem, emit_report,
                          is_stationary_msar2)

    result = is_stationary_msar2(
        StationarityProblem(p=np.ones((1, 1)), regimes=(CompanionMatrix(0.5, 0.3),)))
    human = emit_report(result)
    machine = emit_report(result, "machine")
    assert "stationary" in human
    assert from_machine(machine) == result
    with pytest.raises(ValueError):
        emit_report(result, "yaml")


def test_infinite_report_fields_round_trip_as_strict_json(ar2_doc, msiah2_doc):
    import numpy as np

    from mixprior import CoherenceReport, InvGamma, StationarityResult, mc_conditional_check

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    group = MixturePriorGroup(components=(InvGamma(3.0, 1.0),) * 2)
    band = mc_conditional_check(group, coherent_product(group.components), epsilon=math.inf,
                                n_draws=100_000, rng=np.random.default_rng(3))
    assert band.epsilon == math.inf and band.n_retained == 100_000
    grid = CoherenceReport(method="grid", passed=False, sup_norm_error=math.inf, sup_tol=1e-6)
    plan_tol = check_plan(plan_between(parse_model(ar2_doc), parse_model(msiah2_doc)),
                          tol=math.inf)
    rho = StationarityResult(stationary=False, rho=math.inf, boundary=False)
    for report in (band, grid, plan_tol, rho):
        text = to_machine(report)
        json.loads(text, parse_constant=refuse)
        again = from_machine(text)
        assert again == report
        assert to_machine(again) == text
        assert to_human(again) == to_human(report)
    assert "inf" in to_human(from_machine(to_machine(band)))


def test_plan_report_human_rendering(ar2_doc, msiah2_doc):
    nested = parse_model(ar2_doc)
    general = parse_model(msiah2_doc)
    good = to_human(check_plan(plan_between(nested, general)))
    assert good.startswith("PASS")
    bumped = dataclasses.replace(
        nested,
        groups={**nested.groups,
                "phi2": MixturePriorGroup(components=(NormalPrec(0.1, 4.0),), label="phi2")},
    )
    bad = to_human(check_plan(plan_between(bumped, general)))
    assert bad.startswith("FAIL")
    assert "phi2" in bad
