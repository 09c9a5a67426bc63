"""Spans recorded at the layer boundaries of ``mixprior``, and the per-layer metrics.

The tracer wraps the public functions of each layer module at their module
attributes, and the ``log_pdf``/``cdf``/``sample``/``mean`` methods of every
``DistSpec`` subclass.  Every module of the package that bound the same
function object under a name of its own (``verify.sample_ordered``, the
``cli`` imports, ...) gets the wrapper too, so calls the program makes
internally are seen.  Nothing inside the program is edited.

A span is ``[name, start, end, parent, op, workload, units]``.  Spans stay in
memory; the run writes them out when it ends.  A layer's self time is the
time of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("special", "distributions", "verify", "constraints", "modelspec", "plan",
          "coherence", "reports", "cli")
METHODS = ("log_pdf", "cdf", "sample", "mean")
NAME, START, END, PARENT, OP, WORKLOAD, UNITS = range(7)


def _mc_units(args, kwargs, report):
    group = args[0] if args else kwargs["group"]
    n = args[3] if len(args) > 3 else kwargs["n_draws"]
    k = group.k
    # draws, contrasts, |contrasts|, row maxima, band mask
    array_bytes = n * (k + 2 * (k - 1) + 1) * 8 + n
    if group.ordered and not group.identical:
        # the ordered rejection sampler's first batch of 4n rows: K columns, then stacked
        array_bytes += 2 * 4 * n * k * 8
    return {"draws": n, "retained": report.n_retained, "array_bytes": array_bytes}


def _sampler_units(args, kwargs, result):
    draws, rate = result
    return {"accepted": len(draws), "candidates": round(len(draws) / rate)}


# span name -> counts taken at the same boundary
COUNTERS = {
    "log_pdf": lambda a, k, r: {"points": np.size(a[1])},
    "cdf": lambda a, k, r: {"points": np.size(a[1])},
    "sample": lambda a, k, r: {"variates": np.size(r)},
    "special.reg_lower_incomplete_gamma": lambda a, k, r: {"points": np.size(r)},
    "verify.mc_conditional_check": _mc_units,
    "constraints.sample_constrained_priors": _sampler_units,
    "modelspec.parse_model": lambda a, k, r: {"bytes": len((a[0] if a else k["text"]).encode())},
    "plan.check_plan": lambda a, k, r: {"pairings": len(r.results)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.workload = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, self.workload, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        try:
            yield rec
        finally:
            self._exit(rec)

    def _wrap(self, name: str, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if counters is not None:
                rec[UNITS] = counters(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import mixprior
        from mixprior.distributions import DistSpec

        modules = [importlib.import_module(f"mixprior.{layer}") for layer in LAYERS]
        namespaces = modules + [mixprior]
        for layer, module in zip(LAYERS, modules):
            for attr in getattr(module, "__all__", ["main"]):
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, COUNTERS.get(name))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound, wrapped)
        for cls in DistSpec.__subclasses__():
            for meth in METHODS:
                if meth in vars(cls):
                    name = f"distributions.{cls.__name__}.{meth}"
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth], COUNTERS.get(meth)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


class Summary:
    """Durations, self times and counts of a list of spans, by workload."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        dur = np.array([s[END] - s[START] for s in spans])
        child = np.zeros(n)
        in_grid = [False] * n
        for i, s in enumerate(spans):
            parent = s[PARENT]
            if parent >= 0:
                child[parent] += dur[i]
                in_grid[i] = in_grid[parent]
            if s[NAME] == "verify.verify_product_coherence":
                in_grid[i] = True
        self.self_ms = defaultdict(float)   # (workload, layer) -> ms
        self.calls = defaultdict(int)       # (workload, span name) -> calls
        self.ms = defaultdict(float)        # (workload, span name) -> ms
        self.units = defaultdict(float)     # (workload, span name, unit) -> total
        self.ops = defaultdict(set)         # workload -> op ids
        self.grid_points = defaultdict(float)  # workload -> log_pdf points inside grid cases
        self.mc_array_bytes = defaultdict(int)  # workload -> largest computed MC array set
        for i, s in enumerate(spans):
            w, name = s[WORKLOAD], s[NAME]
            self.self_ms[w, name.split(".", 1)[0]] += (dur[i] - child[i]) * 1e3
            self.calls[w, name] += 1
            self.ms[w, name] += dur[i] * 1e3
            units = s[UNITS] or {}
            for unit, value in units.items():
                self.units[w, name, unit] += value
            if s[OP] is not None:
                self.ops[w].add(s[OP])
            if in_grid[i] and name.endswith(".log_pdf"):
                self.grid_points[w] += units["points"]
            self.mc_array_bytes[w] = max(self.mc_array_bytes[w], units.get("array_bytes", 0))

    def total(self, table, workload, suffix, *rest):
        """Sum of ``table`` over span names of ``workload`` that end with ``suffix``."""
        return sum(v for key, v in table.items()
                   if key[0] == workload and key[1].endswith(suffix) and key[2:] == rest)

    def n_ops(self, workload) -> int:
        return len(self.ops[workload])


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(s: Summary, cli: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, each measured on the workload whose cost it explains."""
    def per_op(workload, layer):
        return _ratio(s.self_ms[workload, layer], s.n_ops(workload))

    def per_call_us(workload, suffix):
        return _ratio(s.total(s.ms, workload, suffix), s.total(s.calls, workload, suffix), 1e3)

    def count(workload, suffix, unit):
        return s.total(s.units, workload, suffix, unit)

    m = {
        "distributions.self_ms_per_op": (per_op("certify", "distributions"), "ms"),
        "special.self_ms_per_op": (per_op("certify", "special"), "ms"),
        "distributions.log_pdf_ns_per_point": (_ratio(
            s.total(s.ms, "certify", ".log_pdf"), count("certify", ".log_pdf", "points"), 1e6), "ns"),
        "distributions.cdf_calls_per_op": (_ratio(
            s.total(s.calls, "certify", ".cdf"), s.n_ops("certify")), "count"),
        "distributions.cdf_us_per_call": (per_call_us("certify", ".cdf"), "us"),
        "special.incgamma_ns_per_point": (_ratio(
            s.total(s.ms, "certify", "reg_lower_incomplete_gamma"),
            count("certify", "reg_lower_incomplete_gamma", "points"), 1e6), "ns"),
        "distributions.sample_calls_per_op": (_ratio(
            s.total(s.calls, "sample", ".sample"), s.n_ops("sample")), "count"),
        "distributions.sample_ns_per_variate": (_ratio(
            s.total(s.ms, "certify", ".sample"), count("certify", ".sample", "variates"), 1e6), "ns"),
        "verify.self_ms_per_op": (per_op("certify", "verify"), "ms"),
        "verify.grid_ms_per_case": (_ratio(
            s.total(s.ms, "certify", "verify_product_coherence"),
            s.total(s.calls, "certify", "verify_product_coherence")), "ms"),
        "verify.mc_ms_per_case": (_ratio(
            s.total(s.ms, "certify", "mc_conditional_check"),
            s.total(s.calls, "certify", "mc_conditional_check")), "ms"),
        "verify.grid_points_per_case": (_ratio(
            s.grid_points["certify"], s.total(s.calls, "certify", "verify_product_coherence")),
            "count"),
        "verify.mc_draws_per_s": (_ratio(
            count("certify", "mc_conditional_check", "draws"),
            s.total(s.ms, "certify", "mc_conditional_check"), 1e3), "1/s"),
        "verify.mc_retained_per_mdraw": (_ratio(
            count("certify", "mc_conditional_check", "retained"),
            count("certify", "mc_conditional_check", "draws"), 1e6), "count"),
        "verify.mc_array_mb": (s.mc_array_bytes["certify"] / 1e6, "MB"),
        "constraints.self_ms_per_op": (per_op("sample", "constraints"), "ms"),
        "constraints.spectral_radius_us_per_matrix": (
            per_call_us("sample", "constraints.spectral_radius"), "us"),
        "constraints.build_p2_us_per_call": (per_call_us("sample", "constraints.build_p2"), "us"),
        "constraints.regularity_indicator_us_per_candidate": (
            per_call_us("sample", "constraints.regularity_indicator"), "us"),
        "constraints.spectral_radius_calls_per_op": (_ratio(
            s.total(s.calls, "sample", "constraints.spectral_radius"), s.n_ops("sample")), "count"),
        "constraints.candidates_per_accepted_draw": (_ratio(
            count("sample", "sample_constrained_priors", "candidates"),
            count("sample", "sample_constrained_priors", "accepted")), "count"),
        "constraints.sampler_us_per_accepted_draw": (_ratio(
            s.total(s.ms, "sample", "sample_constrained_priors"),
            count("sample", "sample_constrained_priors", "accepted"), 1e3), "us"),
        "constraints.sample_ordered_ms_per_call": (
            per_call_us("certify", "constraints.sample_ordered") / 1e3, "ms"),
        "modelspec.self_ms_per_op": (per_op("documents", "modelspec"), "ms"),
        "modelspec.parse_us_per_kb": (_ratio(
            s.total(s.ms, "documents", "modelspec.parse_model"),
            count("documents", "modelspec.parse_model", "bytes"), 1e6), "us"),
        "modelspec.format_us_per_doc": (per_call_us("documents", "modelspec.format_model"), "us"),
        "plan.self_ms_per_op": (per_op("documents", "plan"), "ms"),
        "plan.check_plan_us_per_pairing": (_ratio(
            s.total(s.ms, "documents", "plan.check_plan"),
            count("documents", "plan.check_plan", "pairings"), 1e3), "us"),
        "plan.build_family_model_us_per_call": (
            per_call_us("documents", "plan.build_family_model"), "us"),
        "coherence.coherent_product_us_per_call": (
            per_call_us("documents", "coherence.coherent_product"), "us"),
        "reports.to_machine_us_per_report": (per_call_us("documents", "reports.to_machine"), "us"),
        "cli.startup_ms": (cli["startup_ms"], "ms"),
        "cli.main_ms_per_call": (cli["main_ms_per_call"], "ms"),
    }
    for sub, values in sorted(cli["child_ms"].items()):
        m[f"cli.{sub}_ms"] = (statistics.median(values), "ms")
    m["cli.stdout_kb_per_op"] = (cli["stdout_kb_per_op"], "kB")
    return m
