"""Closed-form coherence maps between K-component priors and nested priors.

Forward maps send the K per-component hyperparameters to the hyperparameters
of the normalized product density, which is the unique prior for the nested
single-component model that makes the two prior structures coherent.  Reverse
maps recover K identical component priors from a given nested prior; they are
defined only under component-wise equality of hyperparameters.

All sums are accumulated with ``math.fsum`` so round-trip identities hold to
1e-12 regardless of K.  A sum that overflows a float raises ``ValueError``
naming the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    # the family table in ``distributions`` refers to the maps defined here
    from .distributions import DistSpec

__all__ = [
    "FeasibilityError",
    "MixturePriorGroup",
    "KRangeFeasibility",
    "coherent_normal_forward",
    "coherent_normal_prec_forward",
    "coherent_invgamma_forward",
    "coherent_gamma_forward",
    "reverse_equal_normal",
    "reverse_equal_invgamma",
    "reverse_equal_gamma",
    "feasible_k_range",
    "coherent_product",
    "coherent_family",
]

class FeasibilityError(ValueError):
    """A coherence map admits no proper density for the requested K."""

    def __init__(self, message: str, *, k: int | None = None, bound: float | None = None,
                 value: float | None = None):
        super().__init__(message)
        self.k = k
        self.bound = bound
        self.value = value


def _check_pairs(groups, first_name, second_name, k_min=2):
    pairs = [(float(a), float(b)) for a, b in groups]
    if len(pairs) < k_min:
        raise ValueError(f"need at least {k_min} components, got {len(pairs)}")
    for i, (a, b) in enumerate(pairs):
        if not math.isfinite(a):
            raise ValueError(f"{first_name}[{i}] must be finite, got {a}")
        if not math.isfinite(b) or b <= 0.0:
            raise ValueError(f"{second_name}[{i}] must be positive and finite, got {b}")
    return pairs


def _fsum(terms, what: str) -> float:
    try:
        return math.fsum(terms)
    except OverflowError:
        raise ValueError(f"the {what} overflows a float") from None


def coherent_normal_forward(groups: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """(m_i, v_i) pairs -> (m1, v1): precision-weighted mean, inverted precision sum."""
    pairs = _check_pairs(groups, "m", "v")
    inv_sum = _fsum((1.0 / v for _, v in pairs), "sum of the precisions 1/v_i")
    m1 = _fsum((m / v for m, v in pairs), "sum of the weighted means m_i/v_i") / inv_sum
    return m1, 1.0 / inv_sum


def coherent_normal_prec_forward(groups: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """(m_i, vprec_i) pairs -> (m1, vprec1 = sum of precisions)."""
    pairs = _check_pairs(groups, "m", "vprec")
    prec_sum = _fsum((p for _, p in pairs), "sum of the precisions vprec_i")
    m1 = _fsum((p * m for m, p in pairs), "sum of the weighted means vprec_i*m_i") / prec_sum
    return m1, prec_sum


def coherent_invgamma_forward(groups: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """(a_i, b_i) pairs -> (a1 = sum a_i + K - 1, b1 = harmonic combination of b_i)."""
    pairs = _check_pairs(groups, "a", "b")
    for i, (a, _) in enumerate(pairs):
        if a <= 0.0:
            raise ValueError(f"a[{i}] must be positive, got {a}")
    k = len(pairs)
    a1 = _fsum((a for a, _ in pairs), "sum of the shapes a_i") + k - 1.0
    b1 = 1.0 / _fsum((1.0 / b for _, b in pairs), "sum of the reciprocals 1/b_i")
    return a1, b1


def coherent_gamma_forward(groups: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """(a_i, b_i) pairs -> (a1 = sum a_i - K + 1, b1 = sum b_i); a1 must be > 0."""
    pairs = _check_pairs(groups, "a", "b")
    for i, (a, _) in enumerate(pairs):
        if a <= 0.0:
            raise ValueError(f"a[{i}] must be positive, got {a}")
    k = len(pairs)
    shape_sum = _fsum((a for a, _ in pairs), "sum of the shapes a_i")
    a1 = shape_sum + 1.0 - k
    if a1 <= 0.0:
        raise FeasibilityError(
            "product kernel not normalizable as gamma: "
            f"sum of shapes {shape_sum} must exceed K - 1 = {k - 1}",
            k=k, bound=float(k - 1), value=shape_sum,
        )
    return a1, _fsum((b for _, b in pairs), "sum of the rates b_i")


def _check_k(k) -> int:
    k = int(k)
    if k < 2:
        raise ValueError(f"K must be >= 2, got {k}")
    return k


def reverse_equal_normal(m1: float, spread1: float, k: int,
                         parametrization: str = "variance") -> tuple[float, float]:
    """Nested normal -> K identical components; spread1 is a variance or a precision."""
    k = _check_k(k)
    if not math.isfinite(float(m1)):
        raise ValueError(f"m1 must be finite, got {m1}")
    spread1 = float(spread1)
    if spread1 <= 0.0 or not math.isfinite(spread1):
        raise ValueError(f"spread1 must be positive and finite, got {spread1}")
    if parametrization == "variance":
        return float(m1), k * spread1
    if parametrization == "precision":
        return float(m1), spread1 / k
    raise ValueError(f"parametrization must be 'variance' or 'precision', got {parametrization!r}")


def reverse_equal_invgamma(a1: float, b1: float, k: int) -> tuple[float, float]:
    """Nested inverse gamma -> K identical components; requires a1 > K - 1."""
    k = _check_k(k)
    a1, b1 = float(a1), float(b1)
    if a1 <= 0.0 or b1 <= 0.0:
        raise ValueError("a1 and b1 must be positive")
    if not a1 > k - 1.0:
        raise FeasibilityError(
            f"inverse gamma reverse map needs a1 > K - 1: got a1 = {a1} with K = {k} "
            f"(bound {k - 1})",
            k=k, bound=float(k - 1), value=a1,
        )
    return (a1 - k + 1.0) / k, k * b1


def reverse_equal_gamma(a1: float, b1: float, k: int) -> tuple[float, float]:
    """Nested gamma -> K identical components; feasible for every a1 > 0."""
    k = _check_k(k)
    a1, b1 = float(a1), float(b1)
    if a1 <= 0.0 or b1 <= 0.0:
        raise ValueError("a1 and b1 must be positive")
    return (a1 + k - 1.0) / k, b1 / k


@dataclass(frozen=True)
class KRangeFeasibility:
    """Verdict of the inverse gamma shape bound over a range of component counts."""

    feasible: bool
    a1: float
    k_min: int
    k_max: int
    infeasible_ks: tuple[int, ...]


def feasible_k_range(a1: float, k_min: int, k_max: int) -> KRangeFeasibility:
    """True iff a1 > K_max - 1, i.e. the reverse map is proper for every K in range."""
    a1 = float(a1)
    k_min, k_max = int(k_min), int(k_max)
    if a1 <= 0.0:
        raise ValueError(f"a1 must be positive, got {a1}")
    if k_min < 2 or k_max < k_min:
        raise ValueError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
    bad = tuple(k for k in range(k_min, k_max + 1) if not a1 > k - 1.0)
    return KRangeFeasibility(feasible=not bad, a1=a1, k_min=k_min, k_max=k_max,
                             infeasible_ks=bad)


@dataclass(frozen=True)
class MixturePriorGroup:
    """The per-component priors of one switching-parameter group.

    ``ordered`` marks the group as carrying the nondecreasing identifiability
    constraint; the constraint is enforced at sampling time, never by
    reordering the stored components.
    """

    components: tuple[DistSpec, ...]
    ordered: bool = False
    label: str = ""

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a prior group needs at least one component")
        families = {c.family for c in comps}
        if len(families) != 1:
            raise ValueError(f"group components must share one family, got {sorted(families)}")
        family = comps[0].family
        if family == "dirichlet":
            dims = {c.dim for c in comps}
            if len(dims) != 1:
                raise ValueError(f"dirichlet components must share one dimension, got {sorted(dims)}")
            if self.ordered:
                raise ValueError("ordering constraints apply to scalar families only")
        object.__setattr__(self, "components", comps)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def family(self) -> str:
        return self.components[0].family

    @property
    def identical(self) -> bool:
        return all(c == self.components[0] for c in self.components)


def coherent_product(components: Sequence[DistSpec]) -> DistSpec:
    """Normalized product of same-family densities, as a distribution of that family."""
    comps = list(components)
    if len(comps) < 2:
        raise ValueError("need at least 2 components")
    families = {c.family for c in comps}
    if len(families) != 1:
        raise ValueError(f"components must share one family, got {sorted(families)}")
    cls = type(comps[0])
    if cls.forward_map is None:
        raise NotImplementedError(
            f"no product-coherence convention exists for {cls.family} priors"
        )
    return cls(*cls.forward_map([c.params() for c in comps]))


def _equal_group(dist: DistSpec, k: int, label: str, ordered: bool = False) -> MixturePriorGroup:
    """K identical components whose coherent product is ``dist``.

    Feasibility failures are re-raised annotated with K and the parameter label.
    """
    cls = type(dist)
    if cls.reverse_map is None:
        raise NotImplementedError(f"no reverse map for family {dist.family!r}")
    try:
        component = cls(*cls.reverse_map(*dist.params(), k))
    except FeasibilityError as err:
        raise FeasibilityError(
            f"prior {label!r} is infeasible at K={k}: {err}",
            k=k, bound=err.bound, value=err.value,
        ) from err
    return MixturePriorGroup(components=(component,) * k, ordered=ordered, label=label)


def coherent_family(nested: Sequence[DistSpec], ks: Sequence[int],
                    labels: Sequence[str] | None = None) -> dict[int, list[MixturePriorGroup]]:
    """Equal-hyperparameter mixture groups for each K, coherent with each nested prior.

    Every emitted group round-trips through :func:`coherent_product` back to
    its nested prior.  Feasibility failures are re-raised annotated with the
    offending K and parameter label.
    """
    nested = list(nested)
    if labels is None:
        labels = [f"prior_{i}" for i in range(len(nested))]
    if len(labels) != len(nested):
        raise ValueError("labels must match the nested priors one-to-one")
    out: dict[int, list[MixturePriorGroup]] = {}
    for k in sorted({int(k) for k in ks}):
        if k < 2:
            raise ValueError(f"every K must be >= 2, got {k}")
        out[k] = [_equal_group(dist, k, label) for label, dist in zip(labels, nested)]
    return out
