"""The lazy package namespace: the public names, their identity and their homes."""

import importlib

import pytest

import mixprior

# every public name the package namespace has bound since 0.1.0, with the
# submodule it was imported from then
PUBLIC_NAMES = {
    "coherence": [
        "FeasibilityError", "KRangeFeasibility", "MixturePriorGroup", "coherent_family",
        "coherent_gamma_forward", "coherent_invgamma_forward", "coherent_normal_forward",
        "coherent_normal_prec_forward", "coherent_product", "feasible_k_range",
        "reverse_equal_gamma", "reverse_equal_invgamma", "reverse_equal_normal",
    ],
    "constraints": [
        "CompanionMatrix", "ConfigurationError", "ParameterDraw",
        "RejectionCapError", "StationarityProblem",
        "StationarityResult", "companion_spectral_radius", "is_stationary_msar2",
        "sample_constrained_priors", "sample_ordered", "second_moment_map", "spectral_radius",
    ],
    "distributions": ["Dirichlet", "DistSpec", "Gamma", "InvGamma", "NormalPrec", "NormalVar"],
    "modelspec": ["Diagnostic", "ModelFormatError", "ModelSpec", "format_dist", "format_model",
                  "parse_dist", "parse_model"],
    "plan": ["CoherencePlan", "Pairing", "PairingResult", "PlanError", "PlanReport",
             "build_family_model", "check_plan", "derive_pairings"],
    "reports": ["emit_report", "from_machine", "to_human", "to_machine"],
    "special": ["reg_lower_incomplete_gamma"],
    "verify": ["CoherenceReport", "GridCoverageError", "InsufficientRetentionError",
               "ks_critical_value", "ks_statistic", "mc_conditional_check",
               "verify_product_coherence"],
}
ALL_NAMES = [name for names in PUBLIC_NAMES.values() for name in names]

# names defined in a numpy-free module and re-exported under their old module
MOVED = [
    ("REGULARITY_KINDS", "constraints", "modelspec"),
    ("RejectionCapError", "constraints", "errors"),
    ("ConfigurationError", "constraints", "errors"),
    ("GridCoverageError", "verify", "errors"),
    ("InsufficientRetentionError", "verify", "errors"),
    ("StationarityResult", "constraints", "reports"),
    ("CoherenceReport", "verify", "reports"),
]


def test_all_is_the_public_api():
    assert len(mixprior.__all__) == len(set(mixprior.__all__))
    assert set(mixprior.__all__) == set(ALL_NAMES)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC_NAMES.items()
                                          for n in names])
def test_each_name_is_the_submodule_object(module, name):
    submodule = importlib.import_module(f"mixprior.{module}")
    assert getattr(mixprior, name) is getattr(submodule, name)


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from mixprior import *", namespace)
    assert set(ALL_NAMES) <= set(namespace)
    for name in ALL_NAMES:
        assert namespace[name] is getattr(mixprior, name)
    assert set(ALL_NAMES) <= set(dir(mixprior))
    assert "__version__" in dir(mixprior)


@pytest.mark.parametrize("name, old, home", MOVED)
def test_moved_names_keep_their_old_module(name, old, home):
    value = getattr(importlib.import_module(f"mixprior.{old}"), name)
    assert value is getattr(importlib.import_module(f"mixprior.{home}"), name)
    if not isinstance(value, tuple):
        assert value.__module__ == f"mixprior.{home}"


def test_names_resolve_on_every_access(monkeypatch):
    from mixprior import modelspec

    original = modelspec.parse_model
    assert mixprior.parse_model is original
    assert "parse_model" not in vars(mixprior)

    def stand_in(text):
        return original(text)

    monkeypatch.setattr(modelspec, "parse_model", stand_in)
    assert mixprior.parse_model is stand_in
    monkeypatch.undo()
    assert mixprior.parse_model is original
    assert "parse_model" not in vars(mixprior)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mixprior.no_such_name  # noqa: B018
    # a submodule still imports through the package
    from mixprior import plan
    assert plan.check_plan is mixprior.check_plan
