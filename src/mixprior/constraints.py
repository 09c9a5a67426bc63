"""Identifiability and regularity constraints on mixture-model priors.

Covers the nondecreasing ordering constraint (weak inequalities, so the
equal-components diagonal stays inside the constrained support), the
second-order stationarity check for Markov-switching AR(2) models through
the second-moment map built from transition probabilities and the
companion matrices, and rejection sampling from constrained priors.

Every switching-AR(2) answer reads the one second-moment map on symmetric
2x2 matrices (``second_moment_map``, a 3K x 3K matrix).  The verdict takes
its radius from one eigensolve with eigenvectors, which also gives its
accuracy band, except with all regimes equal: the radius is then the
squared companion radius in closed form, exact at the double roots where an
eigensolve loses half its digits.  A radius within the band of 1 is flagged
``boundary``.

The rejection sampler draws and checks candidates in blocks of arrays: one
sized draw per prior, one regularity mask per block and, for switching
models, one batched linear solve over the stack of second-moment maps (the
coupled Lyapunov criterion), which decides ``rho < 1`` without a radius.
Its acceptance rate is ``n`` over the candidates up to and including the
n-th accepted one, so the rate keeps its negative-binomial law whatever the
block sizes were.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .coherence import MixturePriorGroup
from .errors import ConfigurationError, RejectionCapError
from .modelspec import REGULARITY_KINDS, ModelSpec
from .reports import StationarityResult

__all__ = [
    "CompanionMatrix",
    "StationarityProblem",
    "StationarityResult",
    "ParameterDraw",
    "RejectionCapError",
    "ConfigurationError",
    "sample_ordered",
    "second_moment_map",
    "spectral_radius",
    "companion_spectral_radius",
    "is_stationary_msar2",
    "sample_constrained_priors",
]

DEFAULT_REJECTION_CAP = 1_000_000


def sample_ordered(group: MixturePriorGroup, rng: np.random.Generator, size: int | None = None,
                   max_attempts: int | None = None):
    """Draw from the order-constrained joint prior of ``group``.

    Identical components admit an exact construction (sort one iid draw,
    valid because the constrained density is the symmetric product restricted
    to the nondecreasing cone).  Heterogeneous components fall back to
    rejection sampling with an attempt cap, in batches sized from the
    acceptance seen so far; a proposal's column j is drawn only while its
    columns before j are still in order.
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
    draws = np.empty((n, k))
    accepted = 0
    attempts = 0
    while accepted < n:
        need = n - accepted
        # a quarter more than expected: at first as if every proposal were
        # accepted, then at the rate (accepted + 1) / (attempts + 2); never
        # more than four proposals per row still needed (1024 when few remain)
        expected = need * (attempts + 2) / (accepted + 1) if attempts else need
        batch = min(math.ceil(1.25 * expected), max(4 * need, 1024), max_attempts - attempts)
        if batch <= 0:
            rate = accepted / attempts if attempts else 0.0
            raise RejectionCapError(
                f"ordered rejection sampler exceeded {max_attempts} attempts "
                f"(empirical acceptance rate {rate:.3g})",
                attempts=attempts, accepted=accepted,
            )
        # column j is drawn only for the proposals still in the cone x_1 <= ... <= x_{j-1}
        columns = [np.asarray(group.components[0].sample(rng, size=batch), dtype=float)]
        for component in group.components[1:]:
            column = np.asarray(component.sample(rng, size=columns[-1].size), dtype=float)
            keep = column >= columns[-1]
            columns = [previous[keep] for previous in columns] + [column[keep]]
        take = min(columns[0].size, need)
        for j, column in enumerate(columns):
            draws[accepted:accepted + take, j] = column[:take]
        accepted += take
        attempts += batch
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


def second_moment_map(problem: StationarityProblem) -> np.ndarray:
    """The 3K x 3K second-moment map of the problem; see ``_second_moment_stack``.

    With all regimes equal it is ``kron(p.T, A)``, A the map of one regime,
    so its radius is ``rho(A) = rho(Phi)^2`` for any stochastic ``p``.
    """
    phi = np.array([[reg.phi1, reg.phi2] for reg in problem.regimes])
    return _second_moment_stack(problem.p[None], phi[None, :, 0], phi[None, :, 1])[0]


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


def _collapse_radius_and_band(phi1: float, phi2: float) -> tuple[float, float]:
    """``rho(Phi)^2`` in closed form, and how far rounding may move it from the exact one.

    The discriminant's rounding moves its square root by at most
    ``sqrt(|disc| + delta) - sqrt(|disc|)``, which is ``sqrt(delta)`` at a
    double root and ``delta / (2 sqrt|disc|)`` away from one.
    """
    eps = float(np.finfo(float).eps)
    root = companion_spectral_radius(phi1, phi2)
    disc = abs(phi1 * phi1 + 4.0 * phi2)
    delta = 4.0 * eps * (phi1 * phi1 + 4.0 * abs(phi2))
    move = (math.sqrt(disc + delta) - math.sqrt(disc)) / 2.0 + 2.0 * eps * root
    return root * root, 2.0 * root * move + 2.0 * eps * root * root


def is_stationary_msar2(problem: StationarityProblem) -> StationarityResult:
    """Sufficient second-order stationarity check: rho of the second-moment map < 1, off the band.

    Non-finite map entries raise ``ValueError``.  With all regimes equal the
    radius is ``rho(Phi)^2`` whatever ``p``, taken in closed form; otherwise
    it comes from one eigensolve of the map.
    """
    maps = _square_finite(second_moment_map(problem))
    first = problem.regimes[0]
    if all(regime == first for regime in problem.regimes):
        rho, band = _collapse_radius_and_band(first.phi1, first.phi2)
    else:
        rho, band = _radius_and_band(maps)
    boundary = abs(rho - 1.0) <= band
    return StationarityResult(stationary=rho < 1.0 and not boundary, rho=rho, boundary=boundary)


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
# switching block at K = 2 holds at most ~1200 candidates, one at K = 3 ~600
_BLOCK_BYTES = 1 << 20


def _block_cap(model: "ModelSpec") -> int:
    """Most candidates per block: the budget over a candidate's bytes, drawn and checked.

    The block sizes decide how the generator's stream is split between the
    priors (each block draws ``m`` values of one prior, then of the next), so
    the draws stay the same only while this estimate does.
    """
    values = len(model.delta_priors) + sum(row.dim for row in model.eta_prior or ())
    for group in model.groups.values():
        # a heterogeneous ordered group's batch proposes at most four rows per
        # row still needed and holds their kept copies and the rows besides:
        # within 8 values per component
        values += group.k * (8 if group.ordered and not group.identical else 1)
    if model.regularity == "ar2_stationarity":
        values += 12  # temporaries of the closed-form companion radius
    elif model.regularity == "msar2_stationarity":
        # more than the 3K x 3K solve holds: kept only for the stream split,
        # which a smaller estimate would make anew
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


def _second_moment_stack(p: np.ndarray, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """``(m, 3K, 3K)`` second-moment maps from ``p`` ``(m, K, K)`` and ``phi`` ``(m, K)``.

    The map ``T(S)_r = Phi_r (sum_c p[c, r] S_c) Phi_r'`` acts on K symmetric
    2x2 matrices, each held as ``(s11, 2 s12, s22)``; block (r, c) is
    ``p[c, r] A_r``.  Doubling the middle coordinate puts the factor 2 on
    ``phi1``, which overflows only where ``phi1 * phi1`` already does.
    """
    m, k = phi1.shape
    maps = np.zeros((m, k, 3, 3))
    # huge phi overflow to inf or nan here; the mask rejects non-finite entries
    with np.errstate(over="ignore", invalid="ignore"):
        maps[..., 0, 0] = phi1 * phi1
        maps[..., 0, 1] = phi1 * phi2
        maps[..., 0, 2] = phi2 * phi2
        maps[..., 1, 0] = 2.0 * phi1
        maps[..., 1, 1] = phi2
        maps[..., 2, 0] = 1.0
        # stack[m, r, a, c, b] = p[m, c, r] * maps[m, r, a, b]
        stack = p.transpose(0, 2, 1)[:, :, None, :, None] * maps[:, :, :, None, :]
    return stack.reshape(m, 3 * k, 3 * k)


def _contracting(maps: np.ndarray) -> np.ndarray:
    """Which second-moment maps ``(m, 3K, 3K)`` have spectral radius below 1.

    T maps positive semidefinite tuples to positive semidefinite ones, so
    rho(T) < 1 exactly when ``(I - T) X = (I, ..., I)`` has a solution whose
    every 2x2 block is positive definite (the coupled Lyapunov criterion for
    Markov jump linear systems).  A singular ``I - T`` has the eigenvalue 1
    and is rejected; numpy refuses a stack that holds one, so that stack is
    solved one map at a time.
    """
    m, n = maps.shape[:2]
    identity = np.tile([1.0, 0.0, 1.0], n // 3)
    lyapunov = np.eye(n) - maps
    try:
        # an (m, n, 1) right-hand side is a stack of columns under numpy 1 and 2 alike
        x = np.linalg.solve(lyapunov, np.broadcast_to(identity[:, None], (m, n, 1)))[..., 0]
    except np.linalg.LinAlgError:
        x = np.full((m, n), np.nan)
        for i in range(m):
            try:
                x[i] = np.linalg.solve(lyapunov[i], identity)
            except np.linalg.LinAlgError:
                pass
    s11, s12, s22 = x.reshape(m, n // 3, 3).transpose(2, 0, 1)
    # s12 is held doubled: s11 s22 > s12^2 reads 4 s11 s22 > (2 s12)^2
    with np.errstate(over="ignore", invalid="ignore"):
        return ((s11 > 0.0) & (4.0 * s11 * s22 > s12 * s12)).all(axis=1)


def _regular_mask(model: "ModelSpec", block: ParameterDraw, m: int) -> np.ndarray:
    """Which of the block's ``m`` candidates satisfy the model's regularity constraint.

    Membership is tested in [0, 1): the constrained statistic is the AR(2)
    companion radius for nested and intermediate models and, for fully
    switching models, the radius of the second-moment map that
    ``is_stationary_msar2`` reads.  That one is decided without a radius, by
    one batched 3K x 3K solve over the block (``_contracting``), and a
    non-finite entry raises ``ValueError`` as ``spectral_radius`` does.  The
    mask leaves out the verdict's accuracy band: random continuous draws give
    a double companion root or a defective map with probability zero, and the
    two disagree only on draws within rounding of rho = 1.
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
        maps = _second_moment_stack(block.eta, _values_by_regime(model, block, "phi1", k),
                                    _values_by_regime(model, block, "phi2", k))
        return _contracting(_square_finite(maps))
    raise ConfigurationError(f"unknown regularity kind {kind!r}")


def _records(keys: list, columns: list, n: int):
    """``n`` dicts, the i-th from ``keys`` to the i-th entry of each column, with no Python loop."""
    rows = zip(*columns) if columns else repeat((), n)
    return map(dict, map(zip, repeat(keys), rows))


def _unstack(block: ParameterDraw, rows: np.ndarray) -> list[ParameterDraw]:
    """The block's candidates at ``rows`` as draws, each value sliced once for all of them.

    Common parameters become Python floats; group vectors and transition
    matrices stay numpy rows of the block's slices.
    """
    n = len(rows)
    deltas = _records(list(block.delta), [v[rows].tolist() for v in block.delta.values()], n)
    groups = _records(list(block.groups), [list(v[rows]) for v in block.groups.values()], n)
    etas = repeat(None, n) if block.eta is None else list(block.eta[rows])
    return list(map(ParameterDraw, deltas, groups, etas))


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
