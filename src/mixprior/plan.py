"""Coherence plans: pairing the priors of a nested model with a general model.

Each shared parameter name resolves to one of two rules.  Parameters with the
same structure on both sides (scalar/scalar, group/group, transition rows)
must carry *identical* priors; a scalar on the nested side paired with a
switching group on the general side must equal the normalized *product* of
the group's components.  Pairing a nested group with a general scalar is
rejected: the general model has to be at least as general.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coherence import MixturePriorGroup, _equal_group, coherent_product
from .distributions import Dirichlet, DistSpec
from .modelspec import ModelSpec

__all__ = [
    "PlanError",
    "Pairing",
    "PairingResult",
    "PlanReport",
    "CoherencePlan",
    "derive_pairings",
    "check_plan",
    "build_family_model",
]

DEFAULT_PLAN_TOL = 1e-12


class PlanError(ValueError):
    """The two models cannot be paired as requested."""


@dataclass(frozen=True)
class Pairing:
    """One named pairing; rule is 'identity' or 'product'."""

    name: str
    rule: str


@dataclass(frozen=True)
class PairingResult:
    name: str
    rule: str
    passed: bool
    discrepancy: float
    detail: str


@dataclass(frozen=True)
class PlanReport:
    nested_name: str
    general_name: str
    tol: float
    results: tuple[PairingResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


@dataclass(frozen=True)
class CoherencePlan:
    nested: ModelSpec
    general: ModelSpec
    pairings: tuple[Pairing, ...]


def _structure(model: ModelSpec, name: str):
    # -> ("scalar", dist) | ("group", group) | None
    if name == "eta":
        return ("eta", model.eta_prior) if model.eta_prior is not None else None
    scalar = model.scalar_prior(name)
    if scalar is not None:
        return ("scalar", scalar)
    group = model.groups.get(name)
    if group is not None:
        return ("group", group)
    return None


def _parameter_names(model: ModelSpec) -> list[str]:
    names = list(model.delta_priors)
    names.extend(label for label in model.groups if label not in names)
    return names


def derive_pairings(nested: ModelSpec, general: ModelSpec) -> tuple[Pairing, ...]:
    """Structure-based pairings over the union of parameter names.

    Nested-only or general-only names still yield pairings so that
    :func:`check_plan` reports them as failures rather than skipping them;
    the transition rows pair only when both models carry them.
    """
    names = _parameter_names(general)
    names.extend(n for n in _parameter_names(nested) if n not in names)
    pairings = []
    for name in names:
        nested_side = _structure(nested, name)
        general_side = _structure(general, name)
        if nested_side is None or general_side is None:
            pairings.append(Pairing(name=name, rule="identity"))
            continue
        if nested_side[0] == "scalar" and general_side[0] == "group" and general_side[1].k > 1:
            pairings.append(Pairing(name=name, rule="product"))
        else:
            pairings.append(Pairing(name=name, rule="identity"))
    if nested.eta_prior is not None:
        pairings.append(Pairing(name="eta", rule="identity"))
    return tuple(pairings)


def _dist_discrepancy(a: DistSpec, b: DistSpec) -> float:
    if a.family != b.family:
        raise PlanError(f"family mismatch: {a.family} vs {b.family}")
    if isinstance(a, Dirichlet):
        if a.dim != b.dim:
            raise PlanError(f"dirichlet dimension mismatch: {a.dim} vs {b.dim}")
        return max(abs(x - y) for x, y in zip(a.d, b.d))
    return max(abs(x - y) for x, y in zip(a.params(), b.params()))


def _check_pairing(pairing: Pairing, nested: ModelSpec, general: ModelSpec,
                   tol: float) -> PairingResult:
    name, rule = pairing.name, pairing.rule
    nested_side = _structure(nested, name)
    general_side = _structure(general, name)
    if nested_side is None or general_side is None:
        missing = "nested" if nested_side is None else "general"
        return PairingResult(name=name, rule=rule, passed=False, discrepancy=float("inf"),
                             detail=f"parameter missing from the {missing} model")

    if rule == "product":
        if nested_side[0] != "scalar" or general_side[0] != "group":
            raise PlanError(
                f"product rule for {name!r} needs a nested scalar and a general group"
            )
        group: MixturePriorGroup = general_side[1]
        if group.family != nested_side[1].family:
            raise PlanError(
                f"family mismatch in pairing {name!r}: "
                f"{nested_side[1].family} vs {group.family}"
            )
        implied = coherent_product(group.components)
        err = _dist_discrepancy(nested_side[1], implied)
        return PairingResult(name=name, rule=rule, passed=err <= tol, discrepancy=err,
                             detail=f"nested prior vs product of {group.k} components")

    if rule == "identity":
        if nested_side[0] == "eta":
            rows_n, rows_g = nested_side[1], general_side[1]
            if general_side[0] != "eta" or len(rows_n) != len(rows_g):
                return PairingResult(name=name, rule=rule, passed=False,
                                     discrepancy=float("inf"),
                                     detail="transition-row priors differ in shape")
            err = max(_dist_discrepancy(a, b) for a, b in zip(rows_n, rows_g))
            return PairingResult(name=name, rule=rule, passed=err <= tol, discrepancy=err,
                                 detail=f"{len(rows_n)} transition rows")
        if nested_side[0] == "scalar" and general_side[0] == "scalar":
            err = _dist_discrepancy(nested_side[1], general_side[1])
            return PairingResult(name=name, rule=rule, passed=err <= tol, discrepancy=err,
                                 detail="common-parameter priors must be identical")
        if nested_side[0] == "group" and general_side[0] == "group":
            a, b = nested_side[1], general_side[1]
            if a.k != b.k:
                return PairingResult(name=name, rule=rule, passed=False,
                                     discrepancy=float("inf"),
                                     detail=f"group sizes differ: {a.k} vs {b.k}")
            err = max(_dist_discrepancy(x, y) for x, y in zip(a.components, b.components))
            return PairingResult(name=name, rule=rule, passed=err <= tol, discrepancy=err,
                                 detail=f"shared switching group of {a.k} components")
        if nested_side[0] == "group" and general_side[0] == "scalar":
            return PairingResult(name=name, rule=rule, passed=False, discrepancy=float("inf"),
                                 detail="parameter switches in the nested model but not in the general one")
        raise PlanError(f"cannot pair {nested_side[0]} with {general_side[0]} for {name!r}")

    raise PlanError(f"unknown pairing rule {rule!r}")


def check_plan(plan: CoherencePlan, tol: float = DEFAULT_PLAN_TOL) -> PlanReport:
    """Check every pairing; identity pairings compare hyperparameters exactly.

    ``tol`` must be >= 0, possibly infinite; a NaN is refused.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    results = tuple(_check_pairing(p, plan.nested, plan.general, tol) for p in plan.pairings)
    return PlanReport(nested_name=plan.nested.name, general_name=plan.general.name,
                      tol=tol, results=results)


def build_family_model(nested: ModelSpec, k: int, kind: str = "markov_switching",
                       eta_concentration: float = 1.0, name: str | None = None) -> ModelSpec:
    """Expand a single-component model into a coherent K-component model.

    Every one-component group becomes a K-component group through the
    equal-hyperparameter reverse map; delta priors are copied verbatim.
    Transition rows get symmetric dirichlet priors, and an ar2 stationarity
    constraint widens to its switching counterpart.
    """
    if nested.kind != "single":
        raise PlanError(f"can only expand single-component models, got kind={nested.kind!r}")
    k = int(k)
    if k < 2:
        raise ValueError(f"K must be >= 2, got {k}")
    if kind not in ("mixture", "markov_switching"):
        raise ValueError(f"kind must be mixture or markov_switching, got {kind!r}")

    groups = {label: _equal_group(group.components[0], k, label, ordered=group.ordered)
              for label, group in nested.groups.items()}
    rows = k if kind == "markov_switching" else 1
    eta = tuple(Dirichlet(d=(float(eta_concentration),) * k) for _ in range(rows))
    regularity = nested.regularity
    if regularity == "ar2_stationarity" and "phi1" in groups and "phi2" in groups:
        if kind != "markov_switching":
            raise PlanError(
                "the stationarity constraint widens only for markov_switching "
                "expansions; expand with kind='markov_switching' or drop the constraint"
            )
        regularity = "msar2_stationarity"
    return ModelSpec(
        name=name or f"{nested.name}_k{k}",
        kind=kind,
        k=k,
        delta_priors=dict(nested.delta_priors),
        groups=groups,
        eta_prior=eta,
        initial_state=nested.initial_state if isinstance(nested.initial_state, str) else "uniform",
        regularity=regularity,
    )
