"""Coherent prior structures for finite-mixture and Markov-switching models.

The package relates the prior of a K-component mixture (or Markov-switching)
model to the prior of its nested single-component counterpart: closed-form
forward and reverse hyperparameter maps for normal, gamma and inverse gamma
priors, identifiability and stationarity constraints, numeric oracles that
certify every map, a textual model-document format and a batch CLI.

The public names below resolve lazily (PEP 562): ``mixprior.parse_model``
imports :mod:`mixprior.modelspec` on first use, and only the array-side
modules (``constraints``, ``verify``, ``special``) import numpy.  So the
document, plan and closed-form code, and the CLI subcommands built on it,
start without numpy.  Each access reads the name from its submodule; nothing
is bound here.
"""

from importlib import import_module as _import_module

# submodule -> the public names it provides to the package namespace
_SUBMODULE_NAMES = {
    "coherence": (
        "FeasibilityError", "KRangeFeasibility", "MixturePriorGroup", "coherent_family",
        "coherent_gamma_forward", "coherent_invgamma_forward", "coherent_normal_forward",
        "coherent_normal_prec_forward", "coherent_product", "feasible_k_range",
        "reverse_equal_gamma", "reverse_equal_invgamma", "reverse_equal_normal",
    ),
    "constraints": (
        "CompanionMatrix", "ParameterDraw", "StationarityProblem", "companion_spectral_radius",
        "is_stationary_msar2", "sample_constrained_priors", "sample_ordered",
        "second_moment_map", "spectral_radius",
    ),
    "distributions": ("Dirichlet", "DistSpec", "Gamma", "InvGamma", "NormalPrec", "NormalVar"),
    "errors": ("ConfigurationError", "GridCoverageError", "InsufficientRetentionError",
               "RejectionCapError"),
    "modelspec": ("Diagnostic", "ModelFormatError", "ModelSpec", "format_dist", "format_model",
                  "parse_dist", "parse_model"),
    "plan": ("CoherencePlan", "Pairing", "PairingResult", "PlanError", "PlanReport",
             "build_family_model", "check_plan", "derive_pairings"),
    "reports": ("CoherenceReport", "StationarityResult", "emit_report", "from_machine",
                "to_human", "to_machine"),
    "special": ("reg_lower_incomplete_gamma",),
    "verify": ("ks_critical_value", "ks_statistic", "mc_conditional_check",
               "verify_product_coherence"),
}
_HOME = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # read from the submodule on every access and never bound here, so a
    # rebinding in the submodule (a tracer's wrapper, and its removal) shows
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
