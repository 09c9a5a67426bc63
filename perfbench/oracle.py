"""Computations the benchmark checks the program against, made apart from it.

Nothing here imports ``mixprior``: the closed-form coherence maps, the
stationarity block matrix and a minimal reader for distribution literals are
written out again from the paper's formulas, so a wrong answer in the program
cannot also hide in its check.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

# family -> (first field, second field) as written in model documents
LITERAL_FIELDS = {
    "normal_var": ("m", "v"),
    "normal_prec": ("m", "vprec"),
    "gamma": ("a_breve", "b_breve"),
    "inv_gamma": ("a", "b"),
}

_LITERAL_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")
_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")


def forward(family: str, pairs) -> tuple[float, float]:
    """Nested hyperparameters of the normalized product of K same-family priors."""
    a = np.array([p[0] for p in pairs], dtype=float)
    b = np.array([p[1] for p in pairs], dtype=float)
    k = len(pairs)
    if family == "normal_var":  # precision weighting
        prec = math.fsum(1.0 / b)
        return math.fsum(a / b) / prec, 1.0 / prec
    if family == "normal_prec":
        prec = math.fsum(b)
        return math.fsum(a * b) / prec, prec
    if family == "gamma":
        return math.fsum(a) - k + 1.0, math.fsum(b)
    if family == "inv_gamma":
        return math.fsum(a) + k - 1.0, 1.0 / math.fsum(1.0 / b)
    raise ValueError(f"no closed form for {family!r}")


def reverse(family: str, first: float, second: float, k: int) -> tuple[float, float]:
    """Hyperparameters of each of K equal components whose product is the nested prior."""
    if family == "normal_var":
        return first, k * second
    if family == "normal_prec":
        return first, second / k
    if family == "gamma":
        return (first + k - 1.0) / k, second / k
    if family == "inv_gamma":
        return (first - k + 1.0) / k, k * second
    raise ValueError(f"no closed form for {family!r}")


def close(got, want, rel: float = 1e-12) -> bool:
    """Every entry of ``got`` within ``rel`` of ``want``, relative to max(1, |want|)."""
    return all(abs(g - w) <= rel * max(1.0, abs(w)) for g, w in zip(got, want, strict=True))


def scipy_density(family: str, first: float, second: float):
    """A frozen scipy distribution in this package's parametrization."""
    from scipy import stats

    if family == "normal_var":
        return stats.norm(first, math.sqrt(second))
    if family == "normal_prec":
        return stats.norm(first, 1.0 / math.sqrt(second))
    if family == "gamma":  # rate parametrization
        return stats.gamma(first, scale=1.0 / second)
    if family == "inv_gamma":  # kernel exp(-1/(b x)): textbook scale is 1/b
        return stats.invgamma(first, scale=1.0 / second)
    raise ValueError(f"no scipy form for {family!r}")


def quad_product_matches(family: str, pairs, nested, points=(0.25, 0.5, 0.75),
                         rel: float = 1e-6) -> bool:
    """The normalized product density equals the nested density at a few quantiles.

    The normalizer comes from ``scipy.integrate.quad``; the evaluation points
    are quantiles of the nested prior.
    """
    from scipy import integrate

    comps = [scipy_density(family, *p) for p in pairs]
    claim = scipy_density(family, *nested)
    lo = 0.0 if family in ("gamma", "inv_gamma") else -np.inf
    centre = float(claim.median())  # split at the bump so quad cannot miss it

    def product(x):
        return math.exp(math.fsum(c.logpdf(x) for c in comps))

    mass = integrate.quad(product, lo, centre, limit=200)[0]
    mass += integrate.quad(product, centre, np.inf, limit=200)[0]
    for q in points:
        x = float(claim.ppf(q))
        if abs(product(x) / mass - claim.pdf(x)) > rel * claim.pdf(x):
            return False
    return True


def ar2_stationary(phi1, phi2) -> np.ndarray:
    """The AR(2) stationarity triangle, strict inequalities."""
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    return (phi2 > -1.0) & (phi1 + phi2 < 1.0) & (phi2 - phi1 < 1.0)


def block_radius(p, phi1, phi2) -> np.ndarray:
    """Spectral radius of the MS-AR(2) second-moment matrix, batched.

    ``p`` has shape (n, K, K), ``phi1`` and ``phi2`` shape (n, K).  Block
    (r, c) of the 4K x 4K matrix is ``p[c, r] * kron(Phi_r, Phi_r)``, built here
    as ``blockdiag(kron(Phi_r, Phi_r)) @ kron(p.T, I_4)``.
    """
    p = np.asarray(p, dtype=float)
    n, k = p.shape[0], p.shape[1]
    phi = np.zeros((n, k, 2, 2))
    phi[:, :, 0, 0] = phi1
    phi[:, :, 0, 1] = phi2
    phi[:, :, 1, 0] = 1.0
    blocks = np.zeros((n, 4 * k, 4 * k))
    for r in range(k):
        for i in range(n):
            blocks[i, 4 * r:4 * r + 4, 4 * r:4 * r + 4] = np.kron(phi[i, r], phi[i, r])
    mix = np.stack([np.kron(p[i].T, np.eye(4)) for i in range(n)])
    return np.abs(np.linalg.eigvals(blocks @ mix)).max(axis=-1)


def collapse_radius(phi1: float, phi2: float) -> float:
    """Radius when every regime shares one companion matrix: rho(Phi)^2.

    rho(Phi) comes from the roots of x^2 - phi1 x - phi2 in closed form, which
    stays exact at a double root where an eigensolver loses half its digits.
    """
    disc = phi1 * phi1 + 4.0 * phi2
    if disc >= 0.0:
        rho = (abs(phi1) + math.sqrt(disc)) / 2.0
    else:
        rho = math.sqrt(-phi2)
    return rho * rho


def on_simplex(rows, tol: float = 1e-12) -> bool:
    rows = np.asarray(rows, dtype=float)
    return bool(np.all(rows >= 0.0) and np.all(np.abs(rows.sum(axis=-1) - 1.0) <= tol))


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, as strict JSON does."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def read_literal(text: str) -> tuple[str, tuple[float, ...]]:
    """``gamma(a_breve=2.0, b_breve=1.0)`` -> ("gamma", (2.0, 1.0)), fields in order."""
    match = _LITERAL_RE.match(text)
    if not match:
        raise ValueError(f"not a literal: {text!r}")
    family, body = match.group(1), match.group(2)
    values = dict(part.split("=", 1) for part in body.replace(" ", "").split(","))
    return family, tuple(float(values[f]) for f in LITERAL_FIELDS[family])


def read_priors(document: str) -> dict[str, list[tuple[str, tuple[float, ...]]]]:
    """Scalar priors of a model document: {parameter: [(family, values), ...]}.

    ``[delta]`` entries and ``[group.*]`` components are read; transition rows
    and constraints are skipped.
    """
    out: dict[str, list] = {}
    section = None
    for raw in document.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _SECTION_RE.match(line)
        if match:
            section = match.group(1)
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        if section == "delta":
            out[key] = [read_literal(value)]
        elif section and section.startswith("group.") and key == "component":
            out.setdefault(section[len("group."):], []).append(read_literal(value))
    return out


def expected_pairings(nested_doc: str, general_doc: str, tol: float) -> dict[str, bool]:
    """Pass/fail of each scalar-parameter pairing, from the closed forms.

    A one-component nested prior against a K-component general group must be
    the product; equal structures must match exactly; a parameter on one side
    only fails.
    """
    nested, general = read_priors(nested_doc), read_priors(general_doc)
    verdicts = {}
    for name in set(nested) | set(general):
        if name not in nested or name not in general:
            verdicts[name] = False
            continue
        n_side, g_side = nested[name], general[name]
        if len(n_side) == 1 and len(g_side) > 1:
            family = n_side[0][0]
            if any(f != family for f, _ in g_side):
                verdicts[name] = False
                continue
            want = forward(family, [v for _, v in g_side])
            got = n_side[0][1]
        elif len(n_side) == len(g_side):
            want = [x for _, v in g_side for x in v]
            got = [x for _, v in n_side for x in v]
        else:
            verdicts[name] = False
            continue
        verdicts[name] = max(abs(g - w) for g, w in zip(got, want)) <= tol
    return verdicts
