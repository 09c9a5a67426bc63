"""Report types and their emission: aligned human tables and a canonical machine format.

The verdicts of the oracles (:class:`CoherenceReport`) and of the
stationarity check (:class:`StationarityResult`) are defined here, next to
the plan report they are emitted with, so that emitting a report never
imports numpy.  ``verify`` and ``constraints`` re-export them.

The machine format is strict, schema-versioned JSON (``"schema": "v1"``)
emitted with sorted keys and fixed separators, so identical reports serialize
to identical bytes and every serialization re-parses to an identical
in-memory object.  The payload builders write a non-finite float as ``null``
(:func:`json_number`), and :func:`from_machine` reads a ``null`` number back
as infinity, so infinities round-trip and a NaN reads back as infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .plan import PairingResult, PlanReport

__all__ = ["CoherenceReport", "StationarityResult", "SCHEMA_VERSION", "canonical_json",
           "json_number", "emit_report", "to_machine", "from_machine", "to_human"]

SCHEMA_VERSION = "v1"


@dataclass(frozen=True)
class CoherenceReport:
    """Machine-readable verdict of one verification run.

    ``passed`` is a deterministic function of the recorded statistics and
    tolerances.
    """

    method: str
    passed: bool
    sup_norm_error: float | None = None
    sup_tol: float | None = None
    ks_statistic: float | None = None
    ks_critical: float | None = None
    ks_alpha: float | None = None
    n_retained: int | None = None
    epsilon: float | None = None


@dataclass(frozen=True)
class StationarityResult:
    """Stationarity verdict; ``boundary`` (never ``stationary``) flags rho within its accuracy of 1."""

    stationary: bool
    rho: float
    boundary: bool


def json_number(value) -> float | None:
    """``value`` as a float, or None (JSON ``null``) when it is absent or not finite."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _read_number(value) -> float:
    # the inverse of json_number on a present number: null is infinity
    return math.inf if value is None else value


def canonical_json(payload: dict) -> str:
    """Strict JSON with sorted keys and fixed separators; the payload's floats must be finite."""
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "), allow_nan=False)


def _coherence_payload(report: CoherenceReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "report": "coherence",
        "method": report.method,
        "passed": report.passed,
        "sup_norm_error": json_number(report.sup_norm_error),
        "sup_tol": json_number(report.sup_tol),
        "ks_statistic": json_number(report.ks_statistic),
        "ks_critical": json_number(report.ks_critical),
        "ks_alpha": json_number(report.ks_alpha),
        "n_retained": report.n_retained,
        "epsilon": json_number(report.epsilon),
    }


def _plan_payload(report: PlanReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "report": "plan",
        "nested": report.nested_name,
        "general": report.general_name,
        "tol": json_number(report.tol),
        "passed": report.passed,
        "pairings": [
            {
                "name": r.name,
                "rule": r.rule,
                "passed": r.passed,
                "discrepancy": json_number(r.discrepancy),
                "detail": r.detail,
            }
            for r in report.results
        ],
    }


def _stationarity_payload(result: StationarityResult) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "report": "stationarity",
        "stationary": result.stationary,
        "rho": json_number(result.rho),
        "boundary": result.boundary,
    }


def to_machine(report) -> str:
    """Canonical machine serialization of a report object."""
    if isinstance(report, CoherenceReport):
        return canonical_json(_coherence_payload(report))
    if isinstance(report, PlanReport):
        return canonical_json(_plan_payload(report))
    if isinstance(report, StationarityResult):
        return canonical_json(_stationarity_payload(report))
    raise TypeError(f"no machine form for {type(report).__name__}")


_COHERENCE_FIELDS = ("method", "passed", "sup_norm_error", "sup_tol", "ks_statistic",
                     "ks_critical", "ks_alpha", "n_retained", "epsilon")
# the float fields each method fills in; the others stay None
_COHERENCE_NUMBERS = {"grid": ("sup_norm_error", "sup_tol"),
                      "mc_band": ("ks_statistic", "ks_critical", "ks_alpha", "epsilon")}


def from_machine(text: str):
    """Rebuild the report object from its machine serialization."""
    payload = json.loads(text)
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")
    kind = payload.get("report")
    if kind == "coherence":
        fields = {name: payload[name] for name in _COHERENCE_FIELDS}
        for name in _COHERENCE_NUMBERS.get(payload["method"], ()):
            fields[name] = _read_number(fields[name])
        return CoherenceReport(**fields)
    if kind == "plan":
        results = tuple(
            PairingResult(name=p["name"], rule=p["rule"], passed=p["passed"],
                          discrepancy=_read_number(p["discrepancy"]),
                          detail=p["detail"])
            for p in payload["pairings"]
        )
        return PlanReport(nested_name=payload["nested"], general_name=payload["general"],
                          tol=_read_number(payload["tol"]), results=results)
    if kind == "stationarity":
        return StationarityResult(stationary=payload["stationary"],
                                  rho=_read_number(payload["rho"]),
                                  boundary=payload["boundary"])
    raise ValueError(f"unknown report kind {kind!r}")


def emit_report(report, format: str = "human") -> str:
    """Render a report in the requested format."""
    if format == "human":
        return to_human(report)
    if format == "machine":
        return to_machine(report)
    raise ValueError(f"format must be 'human' or 'machine', got {format!r}")


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def to_human(report) -> str:
    """Aligned, verdict-first text rendering of a report object."""
    if isinstance(report, CoherenceReport):
        rows = [("method", report.method)]
        if report.method == "grid":
            rows += [("sup_norm_error", f"{report.sup_norm_error:.6e}"),
                     ("sup_tol", f"{report.sup_tol:.1e}")]
        else:
            rows += [("ks_statistic", f"{report.ks_statistic:.6e}"),
                     ("ks_critical", f"{report.ks_critical:.6e}"),
                     ("ks_alpha", f"{report.ks_alpha:g}"),
                     ("n_retained", str(report.n_retained)),
                     ("epsilon", f"{report.epsilon:g}")]
        width = max(len(k) for k, _ in rows)
        lines = [_verdict(report.passed)]
        lines += [f"  {k.ljust(width)}  {v}" for k, v in rows]
        return "\n".join(lines)

    if isinstance(report, PlanReport):
        lines = [f"{_verdict(report.passed)}  {report.nested_name} vs {report.general_name} "
                 f"(tol {report.tol:g})"]
        name_w = max([len(r.name) for r in report.results] + [4])
        rule_w = max([len(r.rule) for r in report.results] + [4])
        for r in report.results:
            disc = "inf" if r.discrepancy == float("inf") else f"{r.discrepancy:.3e}"
            lines.append(f"  {_verdict(r.passed)}  {r.name.ljust(name_w)}  "
                         f"{r.rule.ljust(rule_w)}  {disc}  {r.detail}")
        return "\n".join(lines)

    if isinstance(report, StationarityResult):
        verdict = "stationary" if report.stationary else "not stationary"
        note = "  (boundary-indeterminate)" if report.boundary else ""
        return f"rho = {report.rho:.12g}\nverdict: {verdict}{note}"

    raise TypeError(f"no human form for {type(report).__name__}")
