#!/usr/bin/env python3
"""Benchmark of mixprior: four closed-loop workloads, checked, with a traced mode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample --seed 1 --seconds 25 --trace 0

Every run does a fixed number of whole rounds of its workload's operations,
``round(seconds * ROUNDS_PER_SECOND)``, one operation at a time, and checks
each output outside the timed span.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Details go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sample", "certify", "documents", "cli")
CHILD_WORKLOADS = ("cli",)  # the program runs in child processes, not in this one
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120
STARTUP_PROBES = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here: no program to measure, or a probe failed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one set-up and print it (used by the runs themselves)")
    return parser.parse_args(argv)


def workdir(name: str) -> Path:
    return OUT / f"{name}-{os.getpid()}"


def load(name: str, seed: int):
    """Import the workload, build its inputs and run one warm-up operation.

    Returns the module, its state and the set-up time, counted from just
    before ``mixprior`` is imported (before the inputs are written, for a
    workload whose program runs in children).
    """
    if name in CHILD_WORKLOADS:
        importlib.import_module(f"workloads.{name}")
    start = time.perf_counter()
    mod = importlib.import_module(f"workloads.{name}")
    state = mod.setup(seed, workdir(name))
    mod.run_op(state, state.round[0], 0)
    seconds = time.perf_counter() - start
    program = sys.modules.get("mixprior")
    if program is not None and Path(program.__file__).resolve().parent != SRC / "mixprior":
        raise BenchError(f"imported mixprior from {program.__file__}, not from {SRC}")
    return mod, state, seconds


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh process, measured by a child run of this script."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
            "--seed", str(seed), "--seconds", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Phase:
    """Timed operations of one pass, with each output's check."""

    def __init__(self):
        self.seconds: list[float] = []
        self.failures: list[tuple[int, str, str, str | None]] = []
        self.child_rss_kb: list[int] = []
        self.child_stdout_bytes: list[int] = []

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if f[3] is None]


def run_one(mod, state, op, index: int, phase: Phase, tracer=None) -> None:
    """Time one operation, then check its output outside the timed span."""
    span = tracer.span("bench.op") if tracer else contextlib.nullcontext()
    if tracer:
        tracer.op = index
    output, problem = None, None
    with span:
        start = time.perf_counter()
        try:
            output = mod.run_op(state, op, index)
        except Exception as exc:  # an operation that raises counts as failed
            problem = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if tracer:
        tracer.op = None
    if problem is None:
        try:
            problem = mod.check(state, op, output)
        except Exception:  # a malformed output can break its check
            problem = "check raised:\n" + traceback.format_exc(limit=3)
    phase.seconds.append(seconds)
    if problem is not None:
        phase.failures.append((index, op.name, problem, op.known_fault))
    if name_of(mod) in CHILD_WORKLOADS and output is not None:
        phase.child_rss_kb.append(output[4])
        phase.child_stdout_bytes.append(len(output[2].encode()))


def run_phase(mod, state, rounds: int) -> Phase:
    phase = Phase()
    index = 1
    for _ in range(rounds):
        for op in state.round:
            run_one(mod, state, op, index, phase)
            index += 1
    return phase


def run_pairs(mod, state, rounds: int, tracer) -> tuple[Phase, Phase]:
    """Run each operation untraced and then traced, on the same inputs and streams.

    Back-to-back pairs see the same machine speed, so the ratio within a pair
    measures the trace overhead rather than the drift between two passes.
    """
    plain, traced = Phase(), Phase()
    index = 1
    for _ in range(rounds):
        for op in state.round:
            run_one(mod, state, op, index, plain)
            tracer.install()
            try:
                run_one(mod, state, op, index, traced, tracer)
            finally:
                tracer.uninstall()
            index += 1
    return plain, traced


def name_of(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


def quarter_medians(seconds: list[float]) -> list[float]:
    """Median operation time in each quarter of the run, in ms: the drift within a run."""
    q = max(1, len(seconds) // 4)
    return [statistics.median(seconds[i:i + q]) * 1e3 for i in range(0, q * 4, q)
            if seconds[i:i + q]]


def end_to_end(setups: list[float], phase: Phase, peak_kb: int) -> dict:
    """The end-to-end metrics: name -> (value, unit)."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        # per second of timed spans: the checks between operations are not counted
        "ops_per_s": (phase.attempted / sum(phase.seconds), "1/s"),
        "op_p50_ms": (statistics.median(phase.seconds) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def timed_run(args) -> dict:
    mod, state, own_setup = load(args.workload, args.seed)
    setups = [own_setup] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    rounds = max(1, round(args.seconds * mod.ROUNDS_PER_SECOND))
    phase = run_phase(mod, state, rounds)
    if args.workload in CHILD_WORKLOADS:
        peak_kb = max(phase.child_rss_kb, default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = mod.finish(state)
    mod.teardown(state)

    metrics = end_to_end(setups, phase, peak_kb)
    details = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "ops_per_round": len(state.round), "setup_samples_s": setups,
        "quarter_median_ms": quarter_medians(phase.seconds),
        "failures": phase.failures, "run_problems": problems,
    }
    return result(phase.attempted, len(phase.failures),
                  not phase.unexpected and not problems, metrics, details,
                  OUT / f"result-{args.workload}-seed{args.seed}.json")


def cli_layer(tracer, mod, state) -> dict:
    """Start-up of a bare ``import mixprior.cli`` child, and in-process ``cli.main`` calls."""
    env = mod.child_env()
    startup = []
    for _ in range(STARTUP_PROBES):
        elapsed, code, _, err, _ = mod.spawn([sys.executable, "-c", "import mixprior.cli"],
                                             state.workdir, env)
        if code != 0:
            raise BenchError(f"import mixprior.cli failed:\n{err}")
        startup.append(elapsed * 1e3)
    from mixprior import cli

    main_ms = []
    here = Path.cwd()
    os.chdir(state.workdir)
    try:
        for op in state.round:
            with tracer.span("bench.cli_main"), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                cli.main(op.data["argv"])
                main_ms.append((time.perf_counter() - start) * 1e3)
    finally:
        os.chdir(here)
    return {"startup_ms": statistics.median(startup),
            "main_ms_per_call": statistics.fmean(main_ms)}


def traced_run(args) -> dict:
    """Trace every workload, the named one first, each for its ``TRACE_ROUNDS``.

    Every layer metric is thus measured on the workload whose cost it explains,
    whichever workload is named.  Each operation runs untraced and then traced
    (``run_pairs``), which gives the trace overhead.
    """
    from tracing import Summary, Tracer, layer_metrics

    tracer = Tracer()
    attempted = failed = 0
    correct = True
    overhead, cli, failures, run_problems = {}, {}, [], []
    for name in (args.workload,) + tuple(w for w in WORKLOADS if w != args.workload):
        mod, state, _ = load(name, args.seed)
        tracer.workload = name
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                state = mod.setup(args.seed, workdir(name))
        finally:
            tracer.uninstall()
        plain, traced = run_pairs(mod, state, mod.TRACE_ROUNDS, tracer)
        if name == "cli":
            tracer.install()
            try:
                cli = cli_layer(tracer, mod, state)
            finally:
                tracer.uninstall()
            cli["child_ms"] = {}
            for op, seconds in zip(state.round * mod.TRACE_ROUNDS, traced.seconds):
                cli["child_ms"].setdefault(op.name, []).append(seconds * 1e3)
            cli["stdout_kb_per_op"] = statistics.fmean(traced.child_stdout_bytes) / 1e3
        problems = mod.finish(state)
        mod.teardown(state)
        ratios = [t / p for t, p in zip(traced.seconds, plain.seconds)]
        overhead[name] = {
            "untraced_op_p50_ms": statistics.median(plain.seconds) * 1e3,
            "traced_op_p50_ms": statistics.median(traced.seconds) * 1e3,
            "median_pair_overhead": statistics.median(ratios) - 1.0,
        }
        for phase in (plain, traced):
            attempted += phase.attempted
            failed += len(phase.failures)
            correct = correct and not phase.unexpected
            failures.extend((name,) + f for f in phase.failures)
        correct = correct and not problems
        run_problems.extend(problems)
    metrics = layer_metrics(Summary(tracer.spans), cli)
    details = {"workload": args.workload, "seed": args.seed, "overhead": overhead,
               "failures": failures, "run_problems": run_problems,
               "span_fields": ["name", "start", "end", "parent", "op", "workload", "units"],
               "spans": tracer.spans}
    return result(attempted, failed, correct, metrics, details,
                  OUT / f"trace-{args.workload}-seed{args.seed}.json")


def result(attempted, failed, correct, metrics, details, path: Path) -> dict:
    line = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps({**details, "result": line}, default=str) + "\n", encoding="utf-8")
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mixprior" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'mixprior'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        if args.setup_probe:
            mod, state, seconds = load(args.workload, args.seed)
            mod.teardown(state)
            print(json.dumps({"setup_s": seconds}))
            return 0
        line = traced_run(args) if args.trace else timed_run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
