"""``sample``: accepted draws from constrained priors.

One operation draws a fixed number of accepted points from the constrained
prior of each of four documents with ``sample_constrained_priors``:

* ``msiah2_ar2`` (K=2, 8x8 block matrix, acceptance about 0.46);
* the K=3 ``build_family_model`` expansion of ``ar2`` (12x12, about 0.30);
* ``ar2`` itself, whose closed-form companion radius bypasses
  ``spectral_radius`` (about 0.82);
* a K=2 mixture whose ``ordered = true`` group has heterogeneous components,
  so every candidate runs the ordered rejection sampler.

Operation ``i`` draws from generator streams seeded by ``(seed, i, doc)``,
so work per operation varies a little and the median over a run does not.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import mixprior as mp

import oracle
from workloads import Op

ROUNDS_PER_SECOND = 5.0
TRACE_ROUNDS = 6

ORDERED_DOC = """\
[model]
name = ordered_mix
kind = mixture
k = 2

[delta]
phi1 = normal_prec(m=0.5, vprec=4.0)
phi2 = normal_prec(m=0.0, vprec=4.0)

[group.mu]
ordered = true
component = normal_var(m=-1.0, v=1.0)
component = normal_var(m=1.0, v=1.0)

[group.sigma_prec]
component = gamma(a_breve=2.0, b_breve=1.0)
component = gamma(a_breve=2.0, b_breve=1.0)

[eta]
row = dirichlet(d=[1.0, 1.0])

[constraint]
regularity = ar2_stationarity
"""

# (document, accepted draws per operation)
DRAWS = {"msiah2_ar2": 40, "ar2_k3": 20, "ar2": 100, "ordered_mix": 100}


class State:
    def __init__(self, seed, models):
        self.seed = seed
        self.models = models
        self.round = [Op("sample")]


def setup(seed: int, workdir: Path) -> State:
    demos = Path(__file__).resolve().parents[2] / "demos" / "models"
    ar2 = mp.parse_model((demos / "ar2.model").read_text(encoding="utf-8"))
    models = {
        "msiah2_ar2": mp.parse_model((demos / "msiah2_ar2.model").read_text(encoding="utf-8")),
        "ar2_k3": mp.build_family_model(ar2, 3),
        "ar2": ar2,
        "ordered_mix": mp.parse_model(ORDERED_DOC),
    }
    return State(seed, models)


def run_op(state: State, op: Op, index: int):
    out = {}
    for j, (name, model) in enumerate(state.models.items()):
        rng = np.random.default_rng([state.seed, index, j])
        out[name] = mp.sample_constrained_priors(model, DRAWS[name], rng)
    return out


def _values(draws, name):
    """(n, K) array of one parameter, whether it is a delta prior or a group."""
    rows = []
    for d in draws:
        rows.append(np.atleast_1d(d.delta[name]) if name in d.delta else np.asarray(d.groups[name]))
    return np.asarray(rows, dtype=float)


def _check_doc(name: str, model, draws, rate) -> str | None:
    if len(draws) != DRAWS[name]:
        return f"{name}: {len(draws)} draws, asked for {DRAWS[name]}"
    if not 0.0 < rate <= 1.0:
        return f"{name}: acceptance rate {rate}"
    phi1, phi2 = _values(draws, "phi1"), _values(draws, "phi2")
    if np.any(_values(draws, "sigma_prec") <= 0.0):
        return f"{name}: a precision is not positive"
    if model.eta_prior is not None:
        eta = np.stack([np.asarray(d.eta, dtype=float) for d in draws])
        if not oracle.on_simplex(eta):
            return f"{name}: a transition row is off the simplex"
    if model.regularity == "msar2_stationarity":
        rho = oracle.block_radius(eta, phi1, phi2)
        # eigvals is accurate to ~1e-15 for the simple eigenvalues random draws have
        if np.any(rho >= 1.0 + 1e-9):
            return f"{name}: accepted draw with block radius {rho.max():.12g}"
    elif not np.all(oracle.ar2_stationary(phi1, phi2)):
        return f"{name}: accepted draw outside the AR(2) stationarity triangle"
    for label, group in model.groups.items():
        if group.ordered and np.any(np.diff(_values(draws, label), axis=1) < 0.0):
            return f"{name}: ordered group {label} is not nondecreasing"
    return None


def check(state: State, op: Op, output) -> str | None:
    for name, (draws, rate) in output.items():
        problem = _check_doc(name, state.models[name], draws, rate)
        if problem:
            return problem
    return None


def finish(state: State) -> list[str]:
    return []


def plant(state: State, op: Op, output):
    import dataclasses

    def replace_first(name, **changes):
        draws, rate = output[name]
        bad = dict(output)
        bad[name] = ([dataclasses.replace(draws[0], **changes)] + list(draws[1:]), rate)
        return bad

    ms = output["msiah2_ar2"][0][0]
    explosive = dict(ms.groups, phi1=np.array([1.6, 1.6]), phi2=np.array([0.3, 0.3]))
    ar2 = output["ar2"][0][0]
    outside = dict(ar2.groups, phi2=np.array([-1.5]))
    mix = output["ordered_mix"][0][0]
    swapped = dict(mix.groups, mu=mix.groups["mu"][::-1] - np.array([0.0, 1.0]))
    return [
        ("non-stationary msiah2 draw", replace_first("msiah2_ar2", groups=explosive)),
        ("transition row off the simplex",
         replace_first("msiah2_ar2", eta=np.array([[1.2, -0.2], [0.5, 0.5]]))),
        ("ar2 draw outside the triangle", replace_first("ar2", groups=outside)),
        ("ordered group out of order", replace_first("ordered_mix", groups=swapped)),
        ("one draw missing", {**output, "ar2": (output["ar2"][0][1:], output["ar2"][1])}),
    ]


def teardown(state: State) -> None:
    pass
