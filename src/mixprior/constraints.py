"""Identifiability and regularity constraints on mixture-model priors.

Covers the nondecreasing ordering constraint (weak inequalities, so the
equal-components diagonal stays inside the constrained support), the
second-order stationarity check for Markov-switching AR(2) models through
the block matrix built from transition probabilities and squared companion
matrices, and rejection sampling from constrained priors.

Every radius but the closed-form AR(2) companion radius comes from one
eigensolve: ``spectral_radius`` on a matrix or a stack, and for the verdicts
one with eigenvectors, which also gives its accuracy band; a radius within
the band of 1 is flagged ``boundary``.

The rejection sampler draws and checks candidates in blocks of arrays: one
sized draw per prior, one regularity mask per block and, for switching
models, one batched eigensolve over the stack of block matrices.  Its
acceptance rate is ``n`` over the candidates up to and including the n-th
accepted one, so the rate keeps its negative-binomial law whatever the
block sizes were.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import MixturePriorGroup
from .errors import ConfigurationError, RejectionCapError
from .modelspec import REGULARITY_KINDS, ModelSpec, OrderingConstraint
from .reports import StationarityResult

__all__ = [
    "OrderingConstraint",
    "CompanionMatrix",
    "StationarityProblem",
    "StationarityResult",
    "ParameterDraw",
    "RejectionCapError",
    "ConfigurationError",
    "indicator_ordered",
    "sample_ordered",
    "build_p2",
    "spectral_radius",
    "companion_spectral_radius",
    "is_stationary_msar2",
    "is_stationary_ar2",
    "regularity_indicator",
    "sample_constrained_priors",
]

DEFAULT_REJECTION_CAP = 1_000_000


def indicator_ordered(values) -> bool:
    """True iff the coordinates are nondecreasing (ties allowed)."""
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(values) >= 0.0))


def sample_ordered(group: MixturePriorGroup, rng: np.random.Generator, size: int | None = None,
                   max_attempts: int | None = None):
    """Draw from the order-constrained joint prior of ``group``.

    Identical components admit an exact construction (sort one iid draw,
    valid because the constrained density is the symmetric product restricted
    to the nondecreasing cone).  Heterogeneous components fall back to
    rejection sampling with an attempt cap, in batches sized from the
    acceptance seen so far.
    """
    if not group.ordered:
        raise ValueError("group does not carry an ordering constraint")
    n = 1 if size is None else int(size)
    k = group.k
    if k == 1:
        draws = np.asarray(group.components[0].sample(rng, size=n), dtype=float).reshape(n, 1)
        return draws[0] if size is None else draws

    if group.identical:
        draws = np.asarray(group.components[0].sample(rng, size=(n, k)), dtype=float)
        draws.sort(axis=1)
        return draws[0] if size is None else draws

    if max_attempts is None:
        max_attempts = max(DEFAULT_REJECTION_CAP, 20 * n)
    rows: list[np.ndarray] = []
    accepted = 0
    attempts = 0
    while accepted < n:
        need = n - accepted
        # a quarter more than expected at the rate (accepted + 1) / (attempts + 2),
        # as sample_constrained_priors sizes its blocks, and never more than
        # four proposals per row still needed (1024 when few rows remain)
        batch = min(math.ceil(1.25 * need * (attempts + 2) / (accepted + 1)),
                    max(4 * need, 1024), max_attempts - attempts)
        if batch <= 0:
            rate = accepted / attempts if attempts else 0.0
            raise RejectionCapError(
                f"ordered rejection sampler exceeded {max_attempts} attempts "
                f"(empirical acceptance rate {rate:.3g})",
                attempts=attempts, accepted=accepted,
            )
        columns = [np.asarray(c.sample(rng, size=batch), dtype=float) for c in group.components]
        keep = columns[1] >= columns[0]
        for low, high in zip(columns[1:], columns[2:]):
            keep &= high >= low
        rows.append(np.column_stack([column[keep] for column in columns]))
        accepted += int(keep.sum())
        attempts += batch
    draws = np.concatenate(rows, axis=0)[:n]
    return draws[0] if size is None else draws


@dataclass(frozen=True)
class CompanionMatrix:
    """AR(2) companion matrix [[phi1, phi2], [1, 0]] for one regime."""

    phi1: float
    phi2: float

    def __post_init__(self):
        for name in ("phi1", "phi2"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    def as_array(self) -> np.ndarray:
        return np.array([[self.phi1, self.phi2], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class StationarityProblem:
    """Transition matrix plus one companion matrix per regime."""

    p: np.ndarray
    regimes: tuple[CompanionMatrix, ...]

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {p.shape}")
        k = p.shape[0]
        if k < 1:
            raise ValueError("need at least one state")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ValueError("transition probabilities must be finite and nonnegative")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("every transition-matrix row must sum to 1 (within 1e-12)")
        regimes = tuple(self.regimes)
        if len(regimes) != k:
            raise ValueError(f"expected {k} regimes, got {len(regimes)}")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "regimes", regimes)

    @property
    def k(self) -> int:
        return self.p.shape[0]


def build_p2(problem: StationarityProblem) -> np.ndarray:
    """Assemble the 4K x 4K stationarity matrix.

    Row-block r (destination regime) and column-block c (source regime) hold
    ``p[c, r] * kron(Phi_r, Phi_r)``; with all regimes equal this reduces to
    ``kron(p.T, kron(Phi, Phi))``.
    """
    phi = np.array([[reg.phi1, reg.phi2] for reg in problem.regimes])
    return _p2_stack(problem.p[None], phi[None, :, 0], phi[None, :, 1])[0]


def _square_finite(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def spectral_radius(a):
    """Largest eigenvalue modulus of a matrix ``(n, n)`` (a float) or a stack ``(..., n, n)``."""
    rho = np.abs(np.linalg.eigvals(_square_finite(a))).max(-1)
    return float(rho) if rho.ndim == 0 else rho


def _radius_and_band(a) -> tuple[float, float]:
    """The radius of one matrix and how far it may lie from the exact one, from one eigensolve.

    In units of ``max|a_ij|`` (so no norm overflows) the eigenvalues are exact
    for a matrix within ``delta = n eps |b|_F``, which moves the top one by
    ``kappa delta`` to first order; kappa comes from its right eigenvector and
    its left one (one step of inverse iteration), and stays small for copies
    of a semisimple eigenvalue.  Where that move reaches m - 1 eigenvalues
    whose eigenvectors lie near the top one, the m split from one Jordan
    block, which moves by at most about ``|b|_F (n eps)^(1/m)``.
    """
    a = _square_finite(a)
    eigenvalues, vectors = np.linalg.eig(a)
    scale = float(np.abs(a).max()) or 1.0
    n, eps = a.shape[0], float(np.finfo(float).eps)
    b, shifted = a / scale, eigenvalues / scale
    top = np.argmax(np.abs(shifted))
    x = vectors[:, top]
    norm = float(np.linalg.norm(b))
    delta = n * eps * norm
    try:
        y = np.linalg.solve((b - (shifted[top] + delta) * np.eye(n)).conj().T, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = y / np.abs(y).max()  # its norm must not underflow
            move = float(delta * np.linalg.norm(y) / abs(np.vdot(y, x)))
    except np.linalg.LinAlgError:
        move = math.inf
    move = move if move < math.inf else math.inf  # NaN too: kappa unbounded
    chain = (np.abs(shifted - shifted[top]) <= move) & (np.abs(x.conj() @ vectors) >= 0.5)
    m = int(chain.sum())
    if m > 1 or move == math.inf:  # the first order fails, or kappa is unknown
        move = min(move, 2.0 * norm * (n * eps) ** (1.0 / m))
    return float(np.abs(eigenvalues).max()), scale * move


def companion_spectral_radius(phi1, phi2):
    """rho of the AR(2) companion matrix, from the roots of x^2 - phi1 x - phi2."""
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    disc = phi1 * phi1 + 4.0 * phi2
    real = disc >= 0.0
    sqrt_disc = np.sqrt(np.where(real, disc, 0.0))
    real_rho = np.maximum(np.abs(phi1 + sqrt_disc), np.abs(phi1 - sqrt_disc)) / 2.0
    complex_rho = np.sqrt(np.maximum(-phi2, 0.0))
    out = np.where(real, real_rho, complex_rho)
    return float(out) if out.ndim == 0 else out


def is_stationary_msar2(problem: StationarityProblem) -> StationarityResult:
    """Sufficient second-order stationarity check: rho of the block matrix < 1, outside the band."""
    rho, band = _radius_and_band(build_p2(problem))
    boundary = abs(rho - 1.0) <= band
    return StationarityResult(stationary=rho < 1.0 and not boundary, rho=rho, boundary=boundary)


def is_stationary_ar2(phi1: float, phi2: float) -> bool:
    """AR(2) stationarity via the companion spectral radius.

    Cross-checked against the stationarity-triangle inequalities; genuine
    disagreement outside the solver's accuracy band signals a numerical bug.
    """
    phi1, phi2 = float(phi1), float(phi2)
    rho, band = _radius_and_band(CompanionMatrix(phi1, phi2).as_array())
    by_radius = rho < 1.0
    by_triangle = (phi2 > -1.0) and (phi1 + phi2 < 1.0) and (phi2 - phi1 < 1.0)
    if by_radius != by_triangle and abs(rho - 1.0) > band:
        raise AssertionError(
            f"stationarity checks disagree at phi=({phi1}, {phi2}): "
            f"rho={rho!r} vs triangle={by_triangle}"
        )
    return by_radius


@dataclass(frozen=True, eq=False)
class ParameterDraw:
    """One point from a model's prior: common parameters, group vectors, transition rows.

    Inside the sampler a *block* of m candidates has the same form, with a
    leading candidate axis on every value: delta ``(m,)``, groups ``(m, K)``
    and eta ``(m, rows, K)``.
    """

    delta: dict
    groups: dict
    eta: np.ndarray | None = None


# working-set budget of one sampler block: with the estimate of _block_cap, a
# block of 8x8 stationarity matrices (K = 2) holds at most ~1200 candidates,
# one of 12x12 matrices (K = 3) ~600
_BLOCK_BYTES = 1 << 20


def _block_cap(model: "ModelSpec") -> int:
    """Most candidates per block: the budget over a candidate's bytes, drawn and checked."""
    values = len(model.delta_priors) + sum(row.dim for row in model.eta_prior or ())
    for group in model.groups.values():
        # a heterogeneous ordered group's first batch proposes 2.5 rows per
        # candidate and, at high acceptance, holds as many kept copies and
        # stacked rows again: about 7.5 values per component
        values += group.k * (8 if group.ordered and not group.identical else 1)
    if model.regularity == "ar2_stationarity":
        values += 12  # temporaries of the closed-form companion radius
    elif model.regularity == "msar2_stationarity":
        # Kronecker squares, the 4K x 4K stack, its finiteness mask and eigenvalues
        values += 20 * model.k * model.k + 8 * model.k
    return max(1, _BLOCK_BYTES // (8 * values))


def _draw_block(model: "ModelSpec", m: int, rng: np.random.Generator) -> ParameterDraw:
    delta = {name: np.asarray(dist.sample(rng, size=m), dtype=float)
             for name, dist in model.delta_priors.items()}
    groups = {}
    for label, group in model.groups.items():
        if group.ordered:
            groups[label] = np.asarray(sample_ordered(group, rng, size=m), dtype=float)
        else:
            groups[label] = np.stack(
                [np.asarray(c.sample(rng, size=m), dtype=float) for c in group.components], axis=1)
    eta = None
    if model.eta_prior is not None:
        eta = np.stack([row.sample(rng, size=m) for row in model.eta_prior], axis=1)
    return ParameterDraw(delta=delta, groups=groups, eta=eta)


def _common_values(model: "ModelSpec", block: ParameterDraw, name: str) -> np.ndarray:
    """``(m,)`` values of a parameter that must not switch."""
    if name in block.delta:
        return block.delta[name]
    if name in block.groups:
        values = block.groups[name]
        if values.shape[1] != 1:
            raise ConfigurationError(
                f"parameter {name!r} switches across {values.shape[1]} regimes; "
                "the nested stationarity constraint needs a scalar"
            )
        return values[:, 0]
    raise ConfigurationError(f"model {model.name!r} does not define parameter {name!r}")


def _values_by_regime(model: "ModelSpec", block: ParameterDraw, name: str, k: int) -> np.ndarray:
    """``(m, k)`` values of a parameter, a common one repeated across the regimes."""
    if name in block.groups:
        values = block.groups[name]
        if values.shape[1] not in (1, k):
            raise ConfigurationError(
                f"parameter {name!r} has {values.shape[1]} values, expected {k}")
        return np.broadcast_to(values, (values.shape[0], k))
    if name in block.delta:
        values = block.delta[name]
        return np.broadcast_to(values[:, None], (values.shape[0], k))
    raise ConfigurationError(f"model {model.name!r} does not define parameter {name!r}")


def _p2_stack(p: np.ndarray, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """``(m, 4K, 4K)`` stationarity matrices from ``p`` ``(m, K, K)`` and ``phi`` ``(m, K)``.

    Block (r, c) is ``p[c, r] * kron(Phi_r, Phi_r)``, each entry the product
    ``p * (a * b)`` as ``np.kron`` and a scalar multiple compute it.  The
    products are broadcast rather than summed by ``einsum``, whose zero
    start would turn a ``-0.0`` entry into ``+0.0``.
    """
    m, k = phi1.shape
    companion = np.zeros((m, k, 2, 2))
    companion[..., 0, 0] = phi1
    companion[..., 0, 1] = phi2
    companion[..., 1, 0] = 1.0
    # huge phi overflow to inf or nan here; the radius rejects non-finite entries
    with np.errstate(over="ignore", invalid="ignore"):
        # squares[m, r, i, k, j, l] = Phi_r[i, j] * Phi_r[k, l], i.e. kron(Phi_r, Phi_r)
        squares = companion[:, :, :, None, :, None] * companion[:, :, None, :, None, :]
        squares = squares.reshape(m, k, 4, 1, 4)
        # stack[m, r, a, c, b] = p[m, c, r] * squares[m, r, a, b]
        stack = p.transpose(0, 2, 1)[:, :, None, :, None] * squares
    return stack.reshape(m, 4 * k, 4 * k)


def _regular_mask(model: "ModelSpec", block: ParameterDraw, m: int) -> np.ndarray:
    """Which of the block's ``m`` candidates satisfy the model's regularity constraint.

    Membership is tested in [0, 1): the constrained statistic is the AR(2)
    companion radius for nested and intermediate models and the block-matrix
    radius, from one ``spectral_radius`` call on the stack, for fully
    switching models.  Random continuous draws give a defective matrix with
    probability zero, so the eigenvalues are accurate to rounding and the
    mask leaves out the accuracy band of ``is_stationary_msar2``: the two
    disagree only on draws within a few ulps of rho = 1.
    """
    kind = model.regularity
    if kind == "none":
        return np.ones(m, dtype=bool)
    if kind == "ar2_stationarity":
        phi1 = _common_values(model, block, "phi1")
        phi2 = _common_values(model, block, "phi2")
        return companion_spectral_radius(phi1, phi2) < 1.0
    if kind == "msar2_stationarity":
        k = model.k
        if model.kind != "markov_switching" or block.eta is None or block.eta.shape[1:] != (k, k):
            raise ConfigurationError(
                "msar2_stationarity needs a markov_switching model with transition rows"
            )
        stack = _p2_stack(block.eta, _values_by_regime(model, block, "phi1", k),
                          _values_by_regime(model, block, "phi2", k))
        return spectral_radius(stack) < 1.0
    raise ConfigurationError(f"unknown regularity kind {kind!r}")


def regularity_indicator(model: "ModelSpec", draw: ParameterDraw) -> bool:
    """Evaluate the model's regularity constraint at one parameter point (a block of one)."""
    block = ParameterDraw(
        delta={name: np.asarray(value, dtype=float).reshape(1)
               for name, value in draw.delta.items()},
        groups={label: np.asarray(values, dtype=float).reshape(1, -1)
                for label, values in draw.groups.items()},
        eta=None if draw.eta is None else np.asarray(draw.eta, dtype=float)[None],
    )
    return bool(_regular_mask(model, block, 1)[0])


def _unstack(block: ParameterDraw, rows: np.ndarray) -> list[ParameterDraw]:
    delta = {name: values[rows].tolist() for name, values in block.delta.items()}
    groups = {label: values[rows] for label, values in block.groups.items()}
    eta = None if block.eta is None else block.eta[rows]
    return [
        ParameterDraw(delta={name: values[i] for name, values in delta.items()},
                      groups={label: values[i] for label, values in groups.items()},
                      eta=None if eta is None else eta[i])
        for i in range(len(rows))
    ]


def sample_constrained_priors(model: "ModelSpec", n: int, rng: np.random.Generator,
                              max_attempts: int | None = None):
    """``n`` draws from the constrained prior via rejection on the regularity indicator.

    Candidates are drawn and checked in blocks.  A block holds about the
    candidates expected to give the draws still needed, at the acceptance
    seen so far, within a byte budget and the attempts left.  The draws are
    the first ``n`` accepted candidates in stream order, and the returned
    rate is ``n`` over the candidates up to and including the n-th accepted
    one; candidates after it are dropped and not counted.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_attempts is None:
        max_attempts = max(DEFAULT_REJECTION_CAP, 20 * n)
    cap = _block_cap(model)
    draws: list[ParameterDraw] = []
    attempts = 0
    while len(draws) < n:
        if attempts >= max_attempts:
            rate = len(draws) / attempts if attempts else 0.0
            raise RejectionCapError(
                f"constrained prior sampler exceeded {max_attempts} attempts with "
                f"{len(draws)} accepted draws (empirical acceptance rate {rate:.3g})",
                attempts=attempts, accepted=len(draws),
            )
        need = n - len(draws)
        # a quarter more than expected at the rate (accepted + 1) / (attempts + 2)
        m = min(math.ceil(1.25 * need * (attempts + 2) / (len(draws) + 1)),
                cap, max_attempts - attempts)
        block = _draw_block(model, m, rng)
        rows = np.flatnonzero(_regular_mask(model, block, m))[:need]
        attempts += int(rows[-1]) + 1 if len(rows) == need else m
        draws.extend(_unstack(block, rows))
    return draws, n / attempts
