"""``cli``: one ``python -m mixprior.cli`` child per operation, one at a time.

The round is a fixed cycle of README commands with ``--format machine``
where the subcommand has it: ``forward``, ``reverse``, ``family``,
``check-plan``, ``verify --method grid``, ``stationarity`` once with
``--model`` and once with explicit ``--p/--phi``, and ``sample`` with a small
``--n``.  The explicit stationarity case is a defective block matrix whose
radius the program gets wrong (a known fault).  Hyperparameters, the nested
document and the sampler seed follow ``--seed``.

Set-up writes the inputs to a fresh directory under the benchmark's output
directory; every child runs with that directory as its working directory.
This process never imports ``mixprior``, so its own imports are not part of
the workload's set-up time.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle
from workloads import Op

ROUNDS_PER_SECOND = 0.4
TRACE_ROUNDS = 2
CHILD_TIMEOUT_S = 120

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
DEMOS = ROOT / "demos" / "models"

DEFECTIVE_FAULT = ("stationarity on a defective block matrix (double companion root 0.9) "
                   "reports rho 0.811655901861077 where the collapse identity gives 0.81")
SAMPLE_N = 20


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class State:
    def __init__(self, workdir, ops, inputs):
        self.workdir = workdir
        self.round = ops
        self.inputs = inputs
        self.env = child_env()


def setup(seed: int, workdir: Path) -> State:
    from workloads.documents import nested_document

    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    nested_text = nested_document(seed)
    inputs = {"nested.model": nested_text}
    for name in ("ar2.model", "msiah2_ar2.model"):
        inputs[name] = (DEMOS / name).read_text(encoding="utf-8")
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")

    ig = [(rng.uniform(1, 3), rng.uniform(1, 5)) for _ in range(2)]
    gamma_rev = (rng.uniform(1, 4), rng.uniform(0.5, 2))
    # nested gamma shapes of 3 and more: the grid oracle wrongly rejects exact
    # products with a nested shape between 1 and about 1.6
    gm = [(rng.uniform(2, 4), rng.uniform(0.5, 2)) for _ in range(2)]

    def lit(family, fields, values):
        return f"{family}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"

    ops = [
        Op("forward", data={"argv": [
            "forward", *sum((["--component", lit("inv_gamma", "ab", p)] for p in ig), []),
            "--format", "machine"], "pairs": ig}),
        Op("reverse", data={"argv": [
            "reverse", "--family", "gamma", "--a1", repr(gamma_rev[0]), "--b1", repr(gamma_rev[1]),
            "--k", "3", "--format", "machine"], "nested": gamma_rev}),
        Op("family", data={"argv": [
            "family", "--model", "nested.model", "--k-range", "2:4", "--out-dir", "family_out"]}),
        Op("check-plan", data={"argv": [
            "check-plan", "--nested", "ar2.model", "--general", "msiah2_ar2.model",
            "--format", "machine"]}),
        Op("verify", data={"argv": [
            "verify", *sum((["--component", lit("gamma", ("a_breve", "b_breve"), p)] for p in gm), []),
            "--method", "grid", "--format", "machine"]}),
        Op("stationarity", data={"argv": [
            "stationarity", "--model", "msiah2_ar2.model", "--format", "machine"]}),
        Op("stationarity", known_fault=DEFECTIVE_FAULT, data={"argv": [
            "stationarity", "--p", "0.5,0.5;0.5,0.5", "--phi", "1.8,-0.81;1.8,-0.81",
            "--format", "machine"], "p": [[0.5, 0.5], [0.5, 0.5]], "phi": (1.8, -0.81)}),
        Op("sample", data={"argv": [
            "sample", "--model", "msiah2_ar2.model", "--n", str(SAMPLE_N),
            "--seed", str(seed), "--format", "machine"]}),
    ]
    return State(workdir, ops, inputs)


def spawn(argv: list[str], cwd: Path, env: dict):
    """Run one child to its end; returns (seconds, exit code, stdout, stderr, peak RSS in kB).

    The output goes to files, not pipes, so the child never blocks on a full
    pipe and ``os.wait4`` can collect its resource usage.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                 stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, child.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), usage.ru_maxrss)


def run_op(state: State, op: Op, index: int):
    return spawn([sys.executable, "-m", "mixprior.cli", *op.data["argv"]], state.workdir, state.env)


def check(state: State, op: Op, output) -> str | None:
    _, code, stdout, stderr, _ = output
    if code not in (0, 1, 2):
        return f"exit code {code} breaks the 0/1/2 contract: {stderr.strip()[-200:]}"
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    d = op.data
    if op.name == "family":
        return _check_family(state, stdout)
    try:
        payload = oracle.strict_json(stdout)
    except ValueError as err:
        return f"stdout is not strict JSON: {err}"
    if op.name == "forward":
        family, values = oracle.read_literal(payload["nested"])
        if family != "inv_gamma" or not oracle.close(values, oracle.forward("inv_gamma", d["pairs"])):
            return f"forward gave {payload['nested']}"
    elif op.name == "reverse":
        family, values = oracle.read_literal(payload["component"])
        if family != "gamma" or not oracle.close(values, oracle.reverse("gamma", *d["nested"], 3)):
            return f"reverse gave {payload['component']}"
    elif op.name == "check-plan":
        expected = oracle.expected_pairings(state.inputs["ar2.model"],
                                            state.inputs["msiah2_ar2.model"], 1e-12)
        got = {p["name"]: p["passed"] for p in payload["pairings"]}
        if got != expected or payload["passed"] is not True:
            return f"pairings {got}, closed forms say {expected}"
    elif op.name == "verify":
        if payload["passed"] is not True or not payload["sup_norm_error"] <= payload["sup_tol"]:
            return f"grid oracle rejects the exact forward map: {payload}"
    elif op.name == "stationarity":
        if "p" in d:
            p, (phi1, phi2) = np.asarray(d["p"]), d["phi"]
        else:
            p, phi1, phi2 = _prior_mean_point(state.inputs["msiah2_ar2.model"])
        k = p.shape[0]
        want = float(oracle.block_radius(p[None], np.full((1, k), phi1), np.full((1, k), phi2))[0])
        collapse = oracle.collapse_radius(phi1, phi2)
        # a defective block matrix costs an eigensolver up to eps^(1/3) of accuracy
        if abs(want - collapse) > 1e-5:
            return f"benchmark's own radii disagree: {want} vs {collapse}"
        if abs(payload["rho"] - collapse) > 1e-8 or payload["stationary"] != (collapse < 1.0):
            return f"rho {payload['rho']!r}, collapse identity gives {collapse!r}"
    elif op.name == "sample":
        return _check_sample(payload)
    return None


def _prior_mean_point(document: str):
    """Transition matrix and AR means at the prior mean of a document with equal regimes.

    With equal regimes the radius is rho(Phi)^2 for any stochastic matrix, so
    the uniform one stands in for the transition-row means.
    """
    priors = oracle.read_priors(document)
    phi1 = {v[0] for _, v in priors["phi1"]}
    phi2 = {v[0] for _, v in priors["phi2"]}
    if len(phi1) != 1 or len(phi2) != 1:
        raise ValueError("the stationarity input must have equal regimes")
    k = len(priors["phi1"])
    return np.full((k, k), 1.0 / k), phi1.pop(), phi2.pop()


def _check_family(state: State, stdout: str) -> str | None:
    nested = oracle.read_priors(state.inputs["nested.model"])
    out_dir = state.workdir / "family_out"
    written = sorted(out_dir.glob("*.model"))
    if len(written) != 3 or len(stdout.strip().splitlines()) != 3:
        return f"family wrote {len(written)} documents"
    for path in written:
        general = oracle.read_priors(path.read_text(encoding="utf-8"))
        for name, [(family, values)] in nested.items():
            comps = general.get(name, [])
            k = len(comps)
            if k == 1:  # delta priors are copied verbatim
                if comps[0][1] != values:
                    return f"{path.name}: {name} changed"
            elif not comps or not all(
                    f == family and oracle.close(v, oracle.reverse(family, *values, k))
                    for f, v in comps):
                return f"{path.name}: {name} is not the equal-component expansion"
    return None


def _check_sample(payload) -> str | None:
    draws = payload["draws"]
    if len(draws) != SAMPLE_N or not 0.0 < payload["acceptance_rate"] <= 1.0:
        return f"{len(draws)} draws at acceptance rate {payload['acceptance_rate']}"
    eta = np.array([d["eta"] for d in draws])
    if not oracle.on_simplex(eta):
        return "a transition row is off the simplex"
    if np.any(np.array([d["sigma_prec"] for d in draws]) <= 0.0):
        return "a precision is not positive"
    rho = oracle.block_radius(eta, np.array([d["phi1"] for d in draws]),
                              np.array([d["phi2"] for d in draws]))
    if np.any(rho >= 1.0 + 1e-9):
        return f"accepted draw with block radius {rho.max():.12g}"
    return None


def finish(state: State) -> list[str]:
    return []


def plant(state: State, op: Op, output):
    elapsed, code, stdout, stderr, rss = output
    planted = [("exit code outside the contract", (elapsed, 3, stdout, stderr, rss))]
    if op.name == "family":
        planted.append(("nothing written", (elapsed, code, "", stderr, rss)))
    else:
        planted.append(("stdout not JSON", (elapsed, code, stdout + "}", stderr, rss)))
    if op.name == "stationarity":
        planted.append(("radius off", (elapsed, code, stdout.replace('"rho": 0.', '"rho": 1.'),
                                       stderr, rss)))
    return planted


def teardown(state: State) -> None:
    shutil.rmtree(state.workdir, ignore_errors=True)
