"""Textual model documents: parsing, validation and canonical emission.

A model document is a nested key/value format with sections ``[model]``,
``[delta]``, ``[group.<name>]``, ``[eta]`` and ``[constraint]``; the full
grammar is given as EBNF in ``docs/model_format.md``.  Distribution literals
look like ``normal_prec(m=0.0, vprec=4.0)`` with hyperparameter names ``m``,
``v``, ``vprec``, ``a``, ``b``, ``a_breve``, ``b_breve`` and ``d``.

Parsing is total: any input either yields a fully validated
:class:`ModelSpec` or raises :class:`ModelFormatError` carrying diagnostics
with line and field provenance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .coherence import MixturePriorGroup
from .distributions import FAMILIES, Dirichlet, DistSpec

__all__ = [
    "Diagnostic",
    "ModelFormatError",
    "ModelSpec",
    "parse_model",
    "format_model",
    "parse_dist",
    "format_dist",
]

MODEL_KINDS = ("single", "mixture", "markov_switching")
INITIAL_STATE_NAMES = ("uniform", "ergodic")
REGULARITY_KINDS = ("none", "ar2_stationarity", "msar2_stationarity")

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_ENTRY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S.*)$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_DIST_RE = re.compile(r"^([a-z_]+)\s*\((.*)\)$")


@dataclass(frozen=True)
class Diagnostic:
    """One parse or validation finding, pinned to a line and field path."""

    line: int
    path: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.path}: {self.message}"


class ModelFormatError(ValueError):
    """Raised when a model document fails to parse or validate."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        lines = "\n".join(str(d) for d in self.diagnostics)
        super().__init__(f"invalid model document:\n{lines}")


@dataclass(frozen=True, eq=True)
class ModelSpec:
    """A full prior structure: common priors, switching groups, transition rows."""

    name: str
    kind: str
    k: int
    delta_priors: dict[str, DistSpec] = field(default_factory=dict)
    groups: dict[str, MixturePriorGroup] = field(default_factory=dict)
    eta_prior: tuple[Dirichlet, ...] | None = None
    initial_state: str | tuple[float, ...] = "uniform"
    regularity: str = "none"

    def __post_init__(self):
        if self.eta_prior is not None:
            object.__setattr__(self, "eta_prior", tuple(self.eta_prior))
        if not isinstance(self.initial_state, str):
            object.__setattr__(self, "initial_state",
                               tuple(float(v) for v in self.initial_state))
        diags: list[Diagnostic] = []
        _validate_model(self, diags)
        if diags:
            raise ModelFormatError(diags)

    def scalar_prior(self, name: str) -> DistSpec | None:
        """The prior of a non-switching parameter, whether stored as delta or a 1-group."""
        if name in self.delta_priors:
            return self.delta_priors[name]
        group = self.groups.get(name)
        if group is not None and group.k == 1:
            return group.components[0]
        return None


def _validate_model(spec: ModelSpec, diags: list[Diagnostic], lines=None) -> None:
    loc = lines or {}

    def bad(path: str, message: str, key=None):
        diags.append(Diagnostic(line=loc.get(key or path, 0), path=path, message=message))

    if not _IDENT_RE.match(spec.name or ""):
        bad("model.name", f"must be an identifier, got {spec.name!r}")
    if spec.kind not in MODEL_KINDS:
        bad("model.kind", f"must be one of {MODEL_KINDS}, got {spec.kind!r}")
        return
    if spec.k < 1:
        bad("model.k", f"must be >= 1, got {spec.k}")
    if spec.kind == "single":
        if spec.k != 1:
            bad("model.k", f"kind=single requires k=1, got {spec.k}")
        if spec.eta_prior is not None:
            bad("eta", "kind=single admits no transition-row priors")
    else:
        if spec.k < 2:
            bad("model.k", f"kind={spec.kind} requires k >= 2, got {spec.k}")
    for label, group in spec.groups.items():
        if group.k != spec.k:
            bad(f"group.{label}", f"has {group.k} components but the model declares k={spec.k}",
                key=f"group.{label}")
    ordered = [label for label, g in spec.groups.items() if g.ordered]
    if len(ordered) > 1:
        bad(f"group.{ordered[1]}", f"at most one ordered group per model, found {ordered}",
            key=f"group.{ordered[1]}")
    if spec.kind == "markov_switching":
        if spec.eta_prior is None:
            bad("eta", f"kind=markov_switching requires {spec.k} dirichlet rows")
        else:
            if len(spec.eta_prior) != spec.k:
                bad("eta", f"expected {spec.k} rows, got {len(spec.eta_prior)}")
            for i, row in enumerate(spec.eta_prior):
                if row.dim != spec.k:
                    bad(f"eta.row[{i}]", f"dirichlet dimension {row.dim} != k={spec.k}", key="eta")
    elif spec.kind == "mixture" and spec.eta_prior is not None:
        if len(spec.eta_prior) != 1:
            bad("eta", f"kind=mixture takes a single weight row, got {len(spec.eta_prior)}")
        elif spec.eta_prior[0].dim != spec.k:
            bad("eta", f"weight dirichlet dimension {spec.eta_prior[0].dim} != k={spec.k}")
    if spec.regularity not in REGULARITY_KINDS:
        bad("constraint.regularity", f"must be one of {REGULARITY_KINDS}, got {spec.regularity!r}")
    elif spec.regularity == "msar2_stationarity" and spec.kind != "markov_switching":
        bad("constraint.regularity", "msar2_stationarity applies to markov_switching models only")
    if isinstance(spec.initial_state, str):
        if spec.initial_state not in INITIAL_STATE_NAMES:
            bad("constraint.initial_state",
                f"must be uniform, ergodic or a probability vector, got {spec.initial_state!r}")
    else:
        probs = spec.initial_state
        if len(probs) != spec.k:
            bad("constraint.initial_state", f"vector length {len(probs)} != k={spec.k}")
        elif not all(0.0 <= p <= 1.0 for p in probs) or abs(math.fsum(probs) - 1.0) > 1e-12:
            bad("constraint.initial_state", "entries must be nonnegative and sum to 1")


# --------------------------------------------------------------------------
# distribution literals


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    tail = text[start:]
    if tail.strip() or parts:
        parts.append(tail)
    return parts


def _parse_number(text: str):
    try:
        value = float(text.strip())
    except ValueError:
        return None
    return value


def _parse_vector(text: str):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        return None
    inner = text[1:-1].strip()
    if not inner:
        return ()
    values = []
    for part in inner.split(","):
        value = _parse_number(part)
        if value is None:
            return None
        values.append(value)
    return tuple(values)


def parse_dist(text: str) -> DistSpec:
    """Parse one distribution literal, e.g. ``gamma(a_breve=2.0, b_breve=1.0)``."""
    match = _DIST_RE.match(text.strip())
    if not match:
        raise ValueError(f"not a distribution literal: {text!r}")
    family, body = match.group(1), match.group(2)
    cls = FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    fields = cls.literal_fields
    seen: dict[str, object] = {}
    for part in _split_top_level(body):
        if "=" not in part:
            raise ValueError(f"expected name=value in {family} literal, got {part.strip()!r}")
        key, raw = part.split("=", 1)
        key = key.strip()
        if key not in fields:
            raise ValueError(f"{family} takes {fields}, got {key!r}")
        if key in seen:
            raise ValueError(f"duplicate hyperparameter {key!r}")
        value = _parse_vector(raw) if key == "d" else _parse_number(raw)
        if value is None:
            raise ValueError(f"could not read value for {key!r}: {raw.strip()!r}")
        seen[key] = value
    missing = [f for f in fields if f not in seen]
    if missing:
        raise ValueError(f"{family} is missing hyperparameters {missing}")
    return cls(*(seen[f] for f in fields))


# family -> "family(field=%r, ...)", filled with params()
_LITERAL_TEMPLATES = {
    family: f"{family}(" + ", ".join(f"{name}=%r" for name in cls.literal_fields) + ")"
    for family, cls in FAMILIES.items()
}


def format_dist(dist: DistSpec) -> str:
    """Canonical literal for one distribution."""
    return _LITERAL_TEMPLATES[dist.family] % dist.params()


# --------------------------------------------------------------------------
# document parsing


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_model(text: str) -> ModelSpec:
    """Parse and validate a model document; never crashes on malformed input."""
    diags: list[Diagnostic] = []
    sections: dict[str, list[tuple[int, str, str]]] = {}
    order: list[str] = []
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        section_match = _SECTION_RE.match(line)
        if section_match:
            name = section_match.group(1)
            parts = name.split(".")
            valid = (name in ("model", "delta", "eta", "constraint")
                     or (len(parts) == 2 and parts[0] == "group" and _IDENT_RE.match(parts[1])))
            if not valid:
                diags.append(Diagnostic(lineno, name, "unknown section"))
                current = None
                continue
            if name in sections:
                diags.append(Diagnostic(lineno, name, "duplicate section"))
            current = name
            sections.setdefault(name, [])
            if name not in order:
                order.append(name)
            continue
        entry_match = _ENTRY_RE.match(line)
        if not entry_match:
            diags.append(Diagnostic(lineno, current or "document",
                                    f"expected 'key = value' or '[section]', got {line!r}"))
            continue
        if current is None:
            diags.append(Diagnostic(lineno, "document", "entry appears before any section"))
            continue
        sections[current].append((lineno, entry_match.group(1), entry_match.group(2).strip()))

    lines: dict[str, int] = {}

    def entries(section: str) -> list[tuple[int, str, str]]:
        return sections.get(section, [])

    def single_valued(section: str, allowed: dict[str, bool]) -> dict[str, tuple[int, str]]:
        out: dict[str, tuple[int, str]] = {}
        for lineno, key, value in entries(section):
            if key not in allowed:
                diags.append(Diagnostic(lineno, f"{section}.{key}", "unknown key"))
            elif key in out:
                diags.append(Diagnostic(lineno, f"{section}.{key}", "duplicate key"))
            else:
                out[key] = (lineno, value)
        return out

    # [model]
    if "model" not in sections:
        diags.append(Diagnostic(0, "model", "missing required [model] section"))
    model_kv = single_valued("model", {"name": True, "kind": True, "k": True})
    name = kind = None
    k = 0
    if "name" in model_kv:
        lines["model.name"], name = model_kv["name"]
    else:
        diags.append(Diagnostic(0, "model.name", "missing required key"))
    if "kind" in model_kv:
        lines["model.kind"], kind = model_kv["kind"]
    else:
        diags.append(Diagnostic(0, "model.kind", "missing required key"))
    if "k" in model_kv:
        lineno, raw = model_kv["k"]
        lines["model.k"] = lineno
        value = _parse_number(raw)
        if value is None or not value.is_integer():
            diags.append(Diagnostic(lineno, "model.k", f"must be an integer, got {raw!r}"))
        else:
            k = int(value)
    else:
        diags.append(Diagnostic(0, "model.k", "missing required key"))

    def read_dist(lineno: int, path: str, raw: str) -> DistSpec | None:
        try:
            return parse_dist(raw)
        except (ValueError, NotImplementedError) as err:
            diags.append(Diagnostic(lineno, path, str(err)))
            return None

    # [delta]
    delta: dict[str, DistSpec] = {}
    for lineno, key, value in entries("delta"):
        path = f"delta.{key}"
        if key in delta:
            diags.append(Diagnostic(lineno, path, "duplicate parameter"))
            continue
        dist = read_dist(lineno, path, value)
        if dist is not None:
            delta[key] = dist

    # [group.*]
    groups: dict[str, MixturePriorGroup] = {}
    for section in order:
        if not section.startswith("group."):
            continue
        label = section.split(".", 1)[1]
        components: list[DistSpec] = []
        ordered = False
        first_line = 0
        for lineno, key, value in entries(section):
            first_line = first_line or lineno
            if key == "ordered":
                if value not in ("true", "false"):
                    diags.append(Diagnostic(lineno, f"{section}.ordered",
                                            f"must be true or false, got {value!r}"))
                else:
                    ordered = value == "true"
            elif key == "component":
                dist = read_dist(lineno, f"{section}.component[{len(components)}]", value)
                if dist is not None:
                    components.append(dist)
            else:
                diags.append(Diagnostic(lineno, f"{section}.{key}", "unknown key"))
        lines[section] = first_line
        if not components:
            diags.append(Diagnostic(first_line, section, "group declares no components"))
            continue
        try:
            groups[label] = MixturePriorGroup(components=tuple(components), ordered=ordered,
                                              label=label)
        except ValueError as err:
            diags.append(Diagnostic(first_line, section, str(err)))

    # [eta]
    eta_rows: list[Dirichlet] = []
    eta_present = "eta" in sections
    for lineno, key, value in entries("eta"):
        lines.setdefault("eta", lineno)
        if key != "row":
            diags.append(Diagnostic(lineno, f"eta.{key}", "unknown key; rows are 'row = dirichlet(...)'"))
            continue
        dist = read_dist(lineno, f"eta.row[{len(eta_rows)}]", value)
        if dist is None:
            continue
        if not isinstance(dist, Dirichlet):
            diags.append(Diagnostic(lineno, f"eta.row[{len(eta_rows)}]",
                                    f"transition rows take dirichlet priors, got {dist.family}"))
            continue
        eta_rows.append(dist)

    # [constraint]
    constraint_kv = single_valued("constraint", {"regularity": True, "initial_state": True})
    regularity = "none"
    initial_state: str | tuple[float, ...] = "uniform"
    if "regularity" in constraint_kv:
        lineno, raw = constraint_kv["regularity"]
        lines["constraint.regularity"] = lineno
        regularity = raw
    if "initial_state" in constraint_kv:
        lineno, raw = constraint_kv["initial_state"]
        lines["constraint.initial_state"] = lineno
        vector = _parse_vector(raw)
        initial_state = vector if vector is not None else raw

    if diags:
        raise ModelFormatError(diags)

    try:
        return ModelSpec(
            name=name or "",
            kind=kind or "",
            k=k,
            delta_priors=delta,
            groups=groups,
            eta_prior=tuple(eta_rows) if (eta_present or eta_rows) else None,
            initial_state=initial_state,
            regularity=regularity,
        )
    except ModelFormatError as err:
        # re-anchor validation diagnostics to source lines where known
        anchored = [Diagnostic(line=lines.get(d.path, lines.get(d.path.split(".")[0], d.line)),
                               path=d.path, message=d.message)
                    for d in err.diagnostics]
        raise ModelFormatError(anchored) from None


def format_model(spec: ModelSpec) -> str:
    """Canonical document for ``spec``; re-parsing reproduces it exactly."""
    out = ["[model]",
           f"name = {spec.name}",
           f"kind = {spec.kind}",
           f"k = {spec.k}"]
    if spec.delta_priors:
        out.append("")
        out.append("[delta]")
        for key, dist in spec.delta_priors.items():
            out.append(f"{key} = {format_dist(dist)}")
    for label, group in spec.groups.items():
        out.append("")
        out.append(f"[group.{label}]")
        if group.ordered:
            out.append("ordered = true")
        for component in group.components:
            out.append(f"component = {format_dist(component)}")
    if spec.eta_prior is not None:
        out.append("")
        out.append("[eta]")
        for row in spec.eta_prior:
            out.append(f"row = {format_dist(row)}")
    out.append("")
    out.append("[constraint]")
    out.append(f"regularity = {spec.regularity}")
    if isinstance(spec.initial_state, str):
        out.append(f"initial_state = {spec.initial_state}")
    else:
        inner = ", ".join(repr(v) for v in spec.initial_state)
        out.append(f"initial_state = [{inner}]")
    out.append("")
    return "\n".join(out)
