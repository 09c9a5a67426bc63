#!/usr/bin/env python3
"""Self-test of the benchmark: the form of BENCHMARK.json, and checks that catch wrong outputs.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs one round, requires each output to pass its check
(or to fail it, for an operation marked with a known fault), then plants the
workload's wrong outputs into each passing output and requires the check to
catch every one.  Exits 1 on the first finding.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracing import Summary, layer_metrics  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$")


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_form(bench: dict, per_layer_units: dict[str, str]) -> None:
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"top-level keys {sorted(bench)}")
    command = bench["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(a, str) and len(a) <= 200 for a in command)):
        fail("command must be a list of at most 32 strings of at most 200 characters")
    if any(a.startswith("/") or ".." in a.split("/") for a in command):
        fail("command leaves the checkout")
    paths = bench["paths"]
    if not 1 <= len(paths) <= 16 or not all(PATH_RE.match(p) and ".." not in p.split("/")
                                            for p in paths):
        fail(f"paths {paths}")
    for p in paths:
        if not (ROOT / p).is_dir():
            fail(f"path {p} is not a directory")
    if not isinstance(bench["run_seconds"], int) or not 1 <= bench["run_seconds"] <= 60:
        fail("run_seconds must be a whole number from 1 to 60")

    workloads = bench["workloads"]
    if [w.get("name") for w in workloads] != list(run.WORKLOADS):
        fail(f"workloads {[w.get('name') for w in workloads]}, run.py has {run.WORKLOADS}")
    for w in workloads:
        if set(w) != {"name", "why"} or not 0 < len(w["why"]) <= 200 or "\n" in w["why"]:
            fail(f"workload {w}")

    names = []
    one_op = run.Phase()
    one_op.seconds.append(1.0)
    e2e_units = {k: u for k, (_, u) in run.end_to_end([1.0], one_op, 1).items()}
    for m in bench["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"}:
            fail(f"end-to-end metric {m}")
        if not 0.0 < m["bound"] <= 0.25:
            fail(f"{m['name']}: bound {m['bound']} outside (0, 0.25]")
        if e2e_units.get(m["name"]) != m["unit"]:
            fail(f"{m['name']}: unit {m['unit']}, run.py reports {e2e_units.get(m['name'])}")
    if set(names) != set(e2e_units):
        fail(f"end-to-end metrics {names}, run.py reports {sorted(e2e_units)}")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    if setup["unit"] != "s" or setup["better"] != "lower" or \
            setup["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must be in s, lower is better, with the largest bound")

    layer_names = []
    for m in bench["per_layer"]:
        layer_names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer metric {m}")
        if per_layer_units.get(m["name"]) != m["unit"]:
            fail(f"{m['name']}: unit {m['unit']}, the traced run reports "
                 f"{per_layer_units.get(m['name'])}")
    if set(layer_names) != set(per_layer_units):
        fail(f"per-layer metrics differ from the traced run's: "
             f"{sorted(set(layer_names) ^ set(per_layer_units))}")

    every = names + layer_names + [w["name"] for w in workloads]
    for group in (names + layer_names, [w["name"] for w in workloads]):
        if len(group) != len(set(group)):
            fail("a name is used twice")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["better"] not in ("higher", "lower") or not UNIT_RE.match(m["unit"]):
            fail(f"metric {m}")
    if not all(NAME_RE.match(n) for n in every):
        fail(f"a name breaks the naming rule: {[n for n in every if not NAME_RE.match(n)]}")
    if len((ROOT / "BENCHMARK.json").read_bytes()) > 64 * 1024:
        fail("BENCHMARK.json is over 64 KiB")
    print(f"ok    BENCHMARK.json: {len(workloads)} workloads, {len(names)} end-to-end and "
          f"{len(layer_names)} per-layer metrics")


def check_workload(name: str) -> None:
    mod = importlib.import_module(f"workloads.{name}")
    state = mod.setup(1, run.workdir(f"selftest-{name}"))
    caught = planted = 0
    try:
        for index, op in enumerate(state.round, start=1):
            output = mod.run_op(state, op, index)
            problem = mod.check(state, op, output)
            if op.known_fault:
                if problem is None:
                    print(f"note  {name}/{op.name}: known fault no longer shows: {op.known_fault}")
                continue
            if problem is not None:
                fail(f"{name}/{op.name}: a right output fails its check: {problem}")
            for label, wrong in mod.plant(state, op, output):
                planted += 1
                if mod.check(state, op, wrong) is None:
                    fail(f"{name}/{op.name}: planted wrong output not caught: {label}")
                caught += 1
        problems = mod.finish(state)
        if problems:
            fail(f"{name}: run-level checks: {problems}")
    finally:
        mod.teardown(state)
    print(f"ok    {name}: {len(state.round)} operations checked, {caught}/{planted} planted "
          "wrong outputs caught")


def main() -> int:
    from workloads import cli

    cli_state = cli.setup(1, run.workdir("selftest-form"))
    cli.teardown(cli_state)
    subcommands = {op.name: [1.0] for op in cli_state.round}
    per_layer = layer_metrics(Summary([]), {"startup_ms": 1.0, "main_ms_per_call": 1.0,
                                            "stdout_kb_per_op": 1.0, "child_ms": subcommands})
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_form(bench, {k: u for k, (_, u) in per_layer.items()})
    for name in run.WORKLOADS:
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
