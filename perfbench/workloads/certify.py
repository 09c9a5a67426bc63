"""``certify``: both oracles on one (group, claimed nested prior) pair.

One operation maps the group's components forward (or takes a perturbed
claim), runs the grid oracle and then the Monte Carlo band check at 1e6 draws.
The round is a fixed cycle: normal in variance and precision form, gamma and
inverse gamma, at K=2 and K=3, plain and ordered, each with the forward map
and with a perturbed claim, plus two cases that fail on known faults.

The Monte Carlo streams are fixed per case and do not follow ``--seed``: a
KS test at level alpha rejects a true claim with probability alpha, so
seeded streams would make the failed count depend on the seed.  Each band
half-width is chosen so the true claim passes with a KS ratio well below 1
and the perturbed one fails well above it.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

import mixprior as mp

import oracle
from workloads import Op

ROUNDS_PER_SECOND = 0.2
TRACE_ROUNDS = 1
N_DRAWS = 1_000_000

# name -> (family, component hyperparameters, ordered, band half-width, stream seed)
CASES = {
    "normal_var_k2": ("normal_var", [(0.0, 1.0), (1.0, 2.0)], False, 0.02, 11),
    "normal_prec_k3": ("normal_prec", [(0.5, 4.0), (0.0, 2.0), (1.0, 1.0)], False, 0.05, 12),
    "gamma_k2": ("gamma", [(2.0, 1.0), (3.0, 2.0)], False, 0.02, 13),
    "inv_gamma_k3": ("inv_gamma", [(3.0, 2.0), (4.0, 1.0), (3.5, 4.0)], False, 0.01, 14),
    "normal_prec_k2_ordered": ("normal_prec", [(-0.5, 4.0), (0.5, 4.0)], True, 0.005, 15),
    "gamma_k3_ordered": ("gamma", [(4.0, 2.0)] * 3, True, 0.05, 16),
    "inv_gamma_k2_ordered": ("inv_gamma", [(3.0, 2.0)] * 2, True, 0.001, 17),
    "normal_var_k3_ordered": ("normal_var", [(0.0, 1.0)] * 3, True, 0.03, 18),
}
# known faults: the forward map is right and an oracle rejects it every time
FAULT_CASES = {
    "heavy_tail_grid": (
        "inv_gamma", [(0.1, 1.0)] * 2, False, 0.05, 1,
        "grid oracle rejects the exact InvGamma(1.2, 0.5) product of two "
        "inv_gamma(a=0.1, b=1) priors (sup error 3.07e-4 > 1e-6)",
    ),
    "ordered_band": (
        "inv_gamma", [(1.5, 2.0), (2.5, 4.0)], True, 0.02, 1,
        "one-sided epsilon band on an ordered heterogeneous group carries O(eps) "
        "bias; the MC check rejects the correct forward map at eps=0.02",
    ),
}

_TYPES = {"normal_var": mp.NormalVar, "normal_prec": mp.NormalPrec,
          "gamma": mp.Gamma, "inv_gamma": mp.InvGamma}


def _perturbed(family: str, nested: tuple[float, float]) -> tuple[float, float]:
    first, second = nested
    if family == "normal_var":  # shift the mean by half a standard deviation
        return first + 0.5 * second ** 0.5, second
    if family == "normal_prec":
        return first + 0.5 / second ** 0.5, second
    return first, 1.25 * second  # scale or rate off by a quarter


class State:
    def __init__(self, ops):
        self.round = ops


def setup(seed: int, workdir: Path) -> State:
    ops = []
    for name, (family, pairs, ordered, eps, stream) in CASES.items():
        for claim in ("forward", "perturbed"):
            ops.append(_op(f"{name}/{claim}", family, pairs, ordered, eps, stream, claim))
    for name, (family, pairs, ordered, eps, stream, fault) in FAULT_CASES.items():
        ops.append(_op(f"{name}/forward", family, pairs, ordered, eps, stream, "forward", fault))
    return State(ops)


def _op(name, family, pairs, ordered, eps, stream, claim, fault=None) -> Op:
    components = tuple(_TYPES[family](*p) for p in pairs)
    nested = oracle.forward(family, pairs)
    data = {
        "family": family, "pairs": pairs, "nested": nested, "claim": claim,
        "epsilon": eps, "stream": stream,
        "group": mp.MixturePriorGroup(components=components, ordered=ordered),
    }
    if claim == "perturbed":
        data["claimed"] = _TYPES[family](*_perturbed(family, nested))
    return Op(name, known_fault=fault, data=data)


def run_op(state: State, op: Op, index: int):
    d = op.data
    components = d["group"].components
    claimed = d.get("claimed") or mp.coherent_product(components)
    grid = mp.verify_product_coherence(components, claimed)
    mc = mp.mc_conditional_check(d["group"], claimed, epsilon=d["epsilon"], n_draws=N_DRAWS,
                                 rng=np.random.default_rng(d["stream"]))
    return claimed, grid, mc


def _hyper(dist) -> tuple[float, float]:
    return tuple(getattr(dist, f.name) for f in dataclasses.fields(dist))


def check(state: State, op: Op, output) -> str | None:
    d = op.data
    claimed, grid, mc = output
    if d["claim"] == "forward" and not oracle.close(_hyper(claimed), d["nested"]):
        return f"forward map gave {_hyper(claimed)}, closed form {d['nested']}"
    if grid.passed != (grid.sup_norm_error <= grid.sup_tol):
        return "grid verdict disagrees with its own statistics"
    if mc.passed != (mc.ks_statistic < mc.ks_critical) or mc.n_retained < 200:
        return "Monte Carlo verdict disagrees with its own statistics"
    want = d["claim"] == "forward"
    if grid.passed != want:
        return f"grid oracle says {grid.passed} (sup error {grid.sup_norm_error:.3g})"
    if mc.passed != want:
        return f"Monte Carlo oracle says {mc.passed} (KS ratio {mc.ks_statistic / mc.ks_critical:.3g})"
    return None


def finish(state: State) -> list[str]:
    """The closed forms the checks rely on match a quadrature of the product."""
    problems = []
    for op in state.round:
        d = op.data
        if d["claim"] == "forward" and not oracle.quad_product_matches(
                d["family"], d["pairs"], d["nested"]):
            problems.append(f"{op.name}: closed form disagrees with scipy quadrature")
    return problems


def plant(state: State, op: Op, output):
    claimed, grid, mc = output
    wrong_claim = type(claimed)(*_perturbed(op.data["family"], _hyper(claimed)))
    planted = [
        ("grid verdict flipped", (claimed, dataclasses.replace(grid, passed=not grid.passed), mc)),
        ("Monte Carlo verdict flipped", (claimed, grid, dataclasses.replace(mc, passed=not mc.passed))),
    ]
    if op.data["claim"] == "forward":
        planted.append(("forward map off its closed form", (wrong_claim, grid, mc)))
    return planted


def teardown(state: State) -> None:
    pass
