"""``documents``: round trips of generated model documents through the planner.

One operation takes the text of one general document and runs
``parse_model``, ``format_model``, ``parse_model`` again, ``check_plan``
against the nested document it was expanded from, and ``to_machine``.

The nested document is generated from ``--seed``: one prior in each of the
four scalar families as a one-component group, plus a common ``[delta]``
prior.  A round holds its coherent expansions over K=2..8 in both kinds
(mixture and markov_switching), four expansions with one component nudged
above the plan tolerance, and one general document with a parameter the
nested one lacks, whose report is not strict JSON (a known fault).
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import mixprior as mp

import oracle
from workloads import Op

ROUNDS_PER_SECOND = 40.0
TRACE_ROUNDS = 8
TOL = 1e-12
K_RANGE = range(2, 9)
NUDGE = 1e-9  # relative; far above TOL at these magnitudes

MISSING_FAULT = ("a plan whose nested document lacks a parameter of the general one "
                 "serialises its discrepancy as a bare Infinity, which strict JSON rejects")


def nested_document(seed: int) -> str:
    rng = random.Random(seed)

    def u(lo, hi):
        return rng.uniform(lo, hi)

    # the inverse gamma shape stays above K - 1 = 7 so every expansion is feasible
    return f"""\
[model]
name = nested_{seed}
kind = single
k = 1

[delta]
mu0 = normal_prec(m={u(-1, 1)!r}, vprec={u(1, 4)!r})

[group.level]
component = normal_var(m={u(-1, 1)!r}, v={u(0.5, 2)!r})

[group.drift]
component = normal_prec(m={u(-1, 1)!r}, vprec={u(1, 4)!r})

[group.precision]
component = gamma(a_breve={u(1, 3)!r}, b_breve={u(0.5, 2)!r})

[group.variance]
component = inv_gamma(a={u(8, 12)!r}, b={u(0.5, 2)!r})

[constraint]
regularity = none
initial_state = uniform
"""


def _nudged(general, label: str):
    group = general.groups[label]
    first = group.components[0]
    field = dataclasses.fields(first)[1].name
    bumped = dataclasses.replace(first, **{field: getattr(first, field) * (1.0 + NUDGE)})
    groups = dict(general.groups)
    groups[label] = dataclasses.replace(group, components=(bumped,) + group.components[1:])
    return dataclasses.replace(general, groups=groups, name=f"{general.name}_nudged")


def _with_extra_group(general):
    extra = mp.MixturePriorGroup(components=(mp.NormalVar(0.0, 1.0),) * general.k, label="extra")
    return dataclasses.replace(general, groups={**general.groups, "extra": extra},
                               name=f"{general.name}_extra")


class State:
    def __init__(self, nested, ops):
        self.nested = nested
        self.round = ops


def setup(seed: int, workdir: Path) -> State:
    nested_text = nested_document(seed)
    nested = mp.parse_model(nested_text)
    ops = []

    def add(name, general, fault=None):
        text = mp.format_model(general)
        ops.append(Op(name, known_fault=fault, data={
            "text": text,
            "expected": oracle.expected_pairings(nested_text, text, TOL),
        }))

    for kind in ("mixture", "markov_switching"):
        for k in K_RANGE:
            add(f"{kind}_k{k}", mp.build_family_model(nested, k, kind=kind))
    for k, label in zip((3, 5, 7, 8), ("level", "drift", "precision", "variance")):
        add(f"nudged_{label}_k{k}", _nudged(mp.build_family_model(nested, k), label))
    add("missing_parameter_k2", _with_extra_group(mp.build_family_model(nested, 2)),
        MISSING_FAULT)
    return State(nested, ops)


def run_op(state: State, op: Op, index: int):
    spec = mp.parse_model(op.data["text"])
    text = mp.format_model(spec)
    again = mp.parse_model(text)
    plan = mp.CoherencePlan(nested=state.nested, general=again,
                            pairings=mp.derive_pairings(state.nested, again))
    report = mp.check_plan(plan, tol=TOL)
    return spec, text, again, report, mp.to_machine(report)


def check(state: State, op: Op, output) -> str | None:
    spec, text, again, report, machine = output
    if text != op.data["text"] or again != spec:
        return "format_model(parse_model(text)) is not a fixed point"
    expected = op.data["expected"]
    got = {r.name: r.passed for r in report.results}
    if got != expected:
        return f"pairing verdicts {got}, closed forms say {expected}"
    if report.passed != all(expected.values()):
        return "plan verdict disagrees with its pairings"
    try:
        payload = oracle.strict_json(machine)
    except ValueError as err:
        return f"machine report is not strict JSON: {err}"
    if payload.get("passed") != report.passed:
        return "machine report carries another verdict"
    return None


def finish(state: State) -> list[str]:
    return []


def plant(state: State, op: Op, output):
    spec, text, again, report, machine = output
    flipped = dataclasses.replace(report.results[0], passed=not report.results[0].passed)
    wrong = dataclasses.replace(report, results=(flipped,) + report.results[1:])
    return [
        ("formatted text drifts", (spec, text + " ", again, report, machine)),
        ("pairing verdict flipped", (spec, text, again, wrong, machine)),
        ("machine report with Infinity",
         (spec, text, again, report, machine.replace('"tol": 1e-12', '"tol": Infinity'))),
    ]


def teardown(state: State) -> None:
    pass
