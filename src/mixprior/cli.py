"""Batch command-line interface.

Exit codes: 0 on success or a passing check, 1 on analytic infeasibility or a
failing verification, 2 on input errors.  All stochastic subcommands take
``--seed`` (default 12345) and reproduce their output byte for byte.

``forward``, ``reverse``, ``family`` and ``check-plan`` need no arrays and run
without importing numpy; ``verify``, ``stationarity`` and ``sample`` import
it, with ``constraints`` and ``verify``, inside their handlers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .coherence import FeasibilityError, MixturePriorGroup, coherent_product
from .distributions import FAMILIES
from .errors import (ConfigurationError, GridCoverageError, InsufficientRetentionError,
                     RejectionCapError)
from .modelspec import ModelFormatError, ModelSpec, format_dist, format_model, parse_dist, parse_model
from .plan import CoherencePlan, PlanError, build_family_model, check_plan, derive_pairings
from .reports import canonical_json, json_number, to_human, to_machine

if TYPE_CHECKING:
    from .constraints import StationarityProblem

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# largest K that `stationarity --model` checks: its 4K x 4K matrix is then 8 MiB
MAX_STATIONARITY_K = 256

# `verify` keeps its arrays within 2 GiB.  The grid oracle holds about 64 bytes
# per point.  The Monte Carlo check runs blocks of at most verify's _BLOCK_ROWS
# draws, one in flight per worker (verify._WORKERS).  Measured by tracemalloc,
# a block holds about 8 bytes per draw and component for a plain group, and
# 54-96 for a heterogeneous ordered pair or triple (proposals, kept copies and
# stacked rows); 64 are budgeted, which binds only for wide groups.  The first
# coordinates kept in the band peak at 16 bytes per draw when every draw is
# kept (any K: the blocks' results while they are joined, then the sample and
# the KS test's sorted copy); 128 are budgeted
MAX_ARRAY_BYTES = 2 << 30
MAX_GRID_N = MAX_ARRAY_BYTES // 64
MAX_MC_DRAWS = MAX_ARRAY_BYTES // 128


class _InputError(Exception):
    pass


def _load_model(path: str) -> ModelSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err}") from err
    return parse_model(text)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _group_from_args(args) -> MixturePriorGroup:
    if args.model:
        model = _load_model(args.model)
        group = model.groups.get(args.group or "")
        if group is None:
            raise _InputError(f"model {model.name!r} has no group {args.group!r}")
        return group
    if not args.component:
        raise _InputError("give either --model/--group or at least two --component literals")
    comps = tuple(parse_dist(text) for text in args.component)
    return MixturePriorGroup(components=comps, label="cli")


def _cmd_forward(args) -> int:
    group = _group_from_args(args)
    nested = coherent_product(group.components)
    if args.format == "machine":
        _emit(args, canonical_json({"schema": "v1", "report": "forward",
                                    "nested": format_dist(nested)}))
    else:
        _emit(args, f"coherent nested prior: {format_dist(nested)}")
    return EXIT_OK


_REVERSE_FAMILIES = {cls.reverse_name: cls for cls in FAMILIES.values() if cls.reverse_name}


def _cmd_reverse(args) -> int:
    cls = _REVERSE_FAMILIES[args.family]
    first_flag, second_flag = cls.reverse_flags
    first, second = getattr(args, first_flag), getattr(args, second_flag)
    if first is None or second is None:
        raise _InputError(f"--family {args.family} needs --{first_flag} and --{second_flag}")
    k = args.k
    component = cls(*cls.reverse_map(first, second, k))
    if args.format == "machine":
        _emit(args, canonical_json({"schema": "v1", "report": "reverse", "k": k,
                                    "component": format_dist(component)}))
    else:
        _emit(args, f"each of the {k} components: {format_dist(component)}")
    return EXIT_OK


def _parse_k_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise _InputError(f"--k-range takes K or KMIN:KMAX, got {text!r}") from None
    if lo < 2 or hi < lo:
        raise _InputError(f"need 2 <= KMIN <= KMAX, got {text!r}")
    return lo, hi


def _cmd_family(args) -> int:
    nested = _load_model(args.model)
    lo, hi = _parse_k_range(args.k_range)
    documents = []
    for k in range(lo, hi + 1):
        general = build_family_model(nested, k, kind=args.kind,
                                     eta_concentration=args.eta_concentration)
        documents.append((k, general))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for k, general in documents:
            (out_dir / f"{general.name}.model").write_text(format_model(general),
                                                           encoding="utf-8")
            print(f"wrote {out_dir / (general.name + '.model')}")
    else:
        for _, general in documents:
            print(format_model(general))
    return EXIT_OK


def _cmd_verify(args) -> int:
    import numpy as np

    from .verify import _BLOCK_ROWS, _WORKERS, mc_conditional_check, verify_product_coherence

    group = _group_from_args(args)
    claimed = parse_dist(args.claimed) if args.claimed else coherent_product(group.components)
    methods = ["grid", "mc"] if args.method == "both" else [args.method]
    if "grid" in methods and args.grid_n is not None and args.grid_n > MAX_GRID_N:
        raise _InputError(f"--grid-n: at most {MAX_GRID_N} grid points, got {args.grid_n}")
    if "mc" in methods:
        block = min(args.n_draws, _BLOCK_ROWS)
        in_flight = min(_WORKERS, -(-args.n_draws // _BLOCK_ROWS))
        need = 128 * args.n_draws + 64 * group.k * block * in_flight
        if need > MAX_ARRAY_BYTES:
            raise _InputError(f"--n-draws: {args.n_draws} draws of {group.k} components need "
                              f"about {need >> 20} MiB, over the {MAX_ARRAY_BYTES >> 20} MiB "
                              "budget")
    rng = np.random.default_rng(args.seed)
    outputs = []
    all_passed = True
    for method in methods:
        if method == "grid":
            report = verify_product_coherence(group.components, claimed,
                                              grid=(args.grid_lo, args.grid_hi, args.grid_n),
                                              sup_tol=args.sup_tol)
        else:
            report = mc_conditional_check(group, claimed, epsilon=args.epsilon,
                                          n_draws=args.n_draws, rng=rng,
                                          alpha=args.ks_alpha)
        all_passed = all_passed and report.passed
        outputs.append(to_machine(report) if args.format == "machine" else to_human(report))
    _emit(args, "\n".join(outputs))
    return EXIT_OK if all_passed else EXIT_FAIL


def _cmd_check_plan(args) -> int:
    nested = _load_model(args.nested)
    general = _load_model(args.general)
    plan = CoherencePlan(nested=nested, general=general,
                         pairings=derive_pairings(nested, general))
    report = check_plan(plan, tol=args.tol)
    _emit(args, to_machine(report) if args.format == "machine" else to_human(report))
    return EXIT_OK if report.passed else EXIT_FAIL


def _parse_matrix(text: str) -> list[list[float]]:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
        if len({len(row) for row in rows}) != 1:
            raise ValueError
        return rows
    except ValueError:
        raise _InputError(f"matrix flags take 'a,b;c,d' rows, got {text!r}") from None


def _problem_from_model(model: ModelSpec) -> StationarityProblem:
    import numpy as np

    from .constraints import CompanionMatrix, StationarityProblem

    # evaluate the regularity statistic at the prior mean point
    if model.k > MAX_STATIONARITY_K:
        raise _InputError(f"model.k: the stationarity check builds a 4K x 4K matrix and takes "
                          f"K <= {MAX_STATIONARITY_K}, got k = {model.k}")
    def regime_means(name: str) -> np.ndarray:
        group = model.groups.get(name)
        if group is not None:
            return np.asarray([c.mean() for c in group.components], dtype=float)
        dist = model.delta_priors.get(name)
        if dist is None:
            raise _InputError(f"model {model.name!r} does not define parameter {name!r}")
        return np.full(model.k, float(dist.mean()))

    phi1 = regime_means("phi1")
    phi2 = regime_means("phi2")
    if model.eta_prior is not None and model.kind == "markov_switching":
        p = np.vstack([np.asarray(row.mean()) for row in model.eta_prior])
    else:
        p = np.eye(model.k) if model.k > 1 else np.ones((1, 1))
    regimes = tuple(CompanionMatrix(phi1[i], phi2[i]) for i in range(model.k))
    return StationarityProblem(p=p, regimes=regimes)


def _cmd_stationarity(args) -> int:
    import numpy as np

    from .constraints import CompanionMatrix, StationarityProblem, is_stationary_msar2

    if args.p is not None or args.phi is not None:
        if args.p is None or args.phi is None:
            raise _InputError("--p and --phi go together")
        p = np.asarray(_parse_matrix(args.p), dtype=float)
        phi = np.asarray(_parse_matrix(args.phi), dtype=float)
        if phi.shape[1] != 2 or phi.shape[0] != p.shape[0]:
            raise _InputError("--phi needs one 'phi1,phi2' row per state")
        problem = StationarityProblem(
            p=p, regimes=tuple(CompanionMatrix(row[0], row[1]) for row in phi))
    elif args.model:
        problem = _problem_from_model(_load_model(args.model))
    else:
        raise _InputError("give --model or explicit --p/--phi matrices")
    result = is_stationary_msar2(problem)
    _emit(args, to_machine(result) if args.format == "machine" else to_human(result))
    return EXIT_OK if result.stationary else EXIT_FAIL


def _cmd_sample(args) -> int:
    import numpy as np

    from .constraints import sample_constrained_priors

    model = _load_model(args.model)
    rng = np.random.default_rng(args.seed)
    draws, rate = sample_constrained_priors(model, args.n, rng,
                                            max_attempts=args.max_attempts)
    number = json_number if args.format == "machine" else float
    rows = []
    for draw in draws:
        row = {name: number(value) for name, value in draw.delta.items()}
        row.update({label: [number(v) for v in np.asarray(values).ravel()]
                    for label, values in draw.groups.items()})
        if draw.eta is not None:
            row["eta"] = [[number(v) for v in r] for r in np.asarray(draw.eta)]
        rows.append(row)
    if args.format == "machine":
        _emit(args, canonical_json({"schema": "v1", "report": "sample", "model": model.name,
                                    "acceptance_rate": rate, "draws": rows}))
    else:
        lines = [f"acceptance rate: {rate:.6g}"]
        for i, row in enumerate(rows):
            lines.append(f"draw {i}: " + ", ".join(f"{k}={v}" for k, v in row.items()))
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _add_common(parser, *, seed=False):
    parser.add_argument("--format", choices=["human", "machine"], default="human",
                        help="output format (default: human)")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    if seed:
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help=f"generator seed (default: {DEFAULT_SEED})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixprior",
        description="Coherent prior structures for finite-mixture and Markov-switching models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="map K component priors to the coherent nested prior")
    p.add_argument("--model", help="model document to read the group from")
    p.add_argument("--group", help="group label inside --model")
    p.add_argument("--component", action="append", default=[],
                   help="inline component literal, e.g. 'inv_gamma(a=2, b=1)' (repeatable)")
    _add_common(p)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("reverse", help="equal-hyperparameter components from a nested prior")
    p.add_argument("--family", choices=sorted(_REVERSE_FAMILIES), required=True)
    p.add_argument("--k", type=int, required=True, help="number of components")
    p.add_argument("--m1", type=float, help="nested normal mean")
    p.add_argument("--v1", type=float, help="nested normal variance")
    p.add_argument("--vprec1", type=float, help="nested normal precision")
    p.add_argument("--a1", type=float, help="nested shape")
    p.add_argument("--b1", type=float, help="nested scale (invgamma) or rate (gamma)")
    _add_common(p)
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("family", help="expand a nested model over a range of K")
    p.add_argument("--model", required=True, help="single-component model document")
    p.add_argument("--k-range", required=True, help="K or KMIN:KMAX (inclusive)")
    p.add_argument("--kind", choices=["mixture", "markov_switching"],
                   default="markov_switching")
    p.add_argument("--eta-concentration", type=float, default=1.0,
                   help="symmetric dirichlet weight for generated transition rows")
    p.add_argument("--out-dir", help="write one .model document per K into this directory")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="run the numeric oracles against a claimed nested prior")
    p.add_argument("--model", help="model document to read the group from")
    p.add_argument("--group", help="group label inside --model")
    p.add_argument("--component", action="append", default=[],
                   help="inline component literal (repeatable)")
    p.add_argument("--claimed", help="claimed nested prior literal; default: the forward map")
    p.add_argument("--method", choices=["grid", "mc", "both"], default="both")
    p.add_argument("--sup-tol", type=float, default=1e-6, help="grid sup-norm tolerance")
    p.add_argument("--grid-lo", type=float)
    p.add_argument("--grid-hi", type=float)
    p.add_argument("--grid-n", type=int)
    p.add_argument("--epsilon", type=float, default=0.02, help="contrast band half-width")
    p.add_argument("--n-draws", type=int, default=1_000_000)
    p.add_argument("--ks-alpha", type=float, default=0.001)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-plan", help="check coherence pairings between two model documents")
    p.add_argument("--nested", required=True, help="nested model document")
    p.add_argument("--general", required=True, help="general model document")
    p.add_argument("--tol", type=float, default=1e-12, help="hyperparameter tolerance")
    _add_common(p)
    p.set_defaults(func=_cmd_check_plan)

    p = sub.add_parser("stationarity", help="spectral-radius stationarity verdict")
    p.add_argument("--model", help="evaluate at the prior mean point of this model document")
    p.add_argument("--p", help="explicit transition matrix, rows 'a,b;c,d'")
    p.add_argument("--phi", help="explicit AR coefficients, one 'phi1,phi2' row per state")
    _add_common(p)
    p.set_defaults(func=_cmd_stationarity)

    p = sub.add_parser("sample", help="draw from a model's constrained prior")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=1, help="number of accepted draws")
    p.add_argument("--max-attempts", type=int, default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FeasibilityError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_FAIL
    except (RejectionCapError, InsufficientRetentionError) as err:
        print(f"failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    except (ModelFormatError, _InputError, GridCoverageError, PlanError,
            ConfigurationError, NotImplementedError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
