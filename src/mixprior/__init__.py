"""Coherent prior structures for finite-mixture and Markov-switching models.

The package relates the prior of a K-component mixture (or Markov-switching)
model to the prior of its nested single-component counterpart: closed-form
forward and reverse hyperparameter maps for normal, gamma and inverse gamma
priors, identifiability and stationarity constraints, numeric oracles that
certify every map, a textual model-document format and a batch CLI.
"""

from .coherence import (
    FeasibilityError,
    KRangeFeasibility,
    MixturePriorGroup,
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
from .constraints import (
    CompanionMatrix,
    ConfigurationError,
    OrderingConstraint,
    ParameterDraw,
    RejectionCapError,
    SpectralRadiusError,
    StationarityProblem,
    StationarityResult,
    build_p2,
    companion_spectral_radius,
    indicator_ordered,
    is_stationary_ar2,
    is_stationary_msar2,
    regularity_indicator,
    sample_constrained_priors,
    sample_ordered,
    spectral_radius,
)
from .distributions import (
    Dirichlet,
    DistSpec,
    Gamma,
    InvGamma,
    NormalPrec,
    NormalVar,
)
from .modelspec import (
    Diagnostic,
    ModelFormatError,
    ModelSpec,
    format_dist,
    format_model,
    parse_dist,
    parse_model,
)
from .plan import (
    CoherencePlan,
    Pairing,
    PairingResult,
    PlanError,
    PlanReport,
    build_family_model,
    check_plan,
    derive_pairings,
)
from .reports import emit_report, from_machine, to_human, to_machine
from .special import reg_lower_incomplete_gamma
from .verify import (
    CoherenceReport,
    GridCoverageError,
    InsufficientRetentionError,
    from_contrasts,
    ks_critical_value,
    ks_statistic,
    mc_conditional_check,
    to_contrasts,
    verify_product_coherence,
)

__version__ = "0.1.0"
