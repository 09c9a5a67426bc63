"""Model document parsing: valid corpus, rejecting documents, round trips, fuzz."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixprior import (
    Dirichlet,
    Gamma,
    ModelFormatError,
    NormalPrec,
    format_dist,
    format_model,
    parse_dist,
    parse_model,
)
from mixprior.distributions import FAMILIES


def test_parse_switching_ar2_document(msiah2_doc):
    model = parse_model(msiah2_doc)
    assert model.name == "msiah2_ar2"
    assert model.kind == "markov_switching"
    assert model.k == 2
    assert set(model.groups) == {"alpha", "phi1", "phi2", "sigma_prec"}
    assert model.groups["phi1"].components[0] == NormalPrec(0.5, 2.0)
    assert model.groups["sigma_prec"].components == (Gamma(1.5, 0.5),) * 2
    assert model.eta_prior == (Dirichlet((1.0, 1.0)), Dirichlet((1.0, 1.0)))
    assert model.regularity == "msar2_stationarity"
    assert model.initial_state == "uniform"


def test_parse_nested_document(ar2_doc):
    model = parse_model(ar2_doc)
    assert model.kind == "single" and model.k == 1
    assert model.eta_prior is None
    assert model.scalar_prior("phi1") == NormalPrec(0.5, 4.0)
    assert model.scalar_prior("nope") is None
    assert not any(group.ordered for group in model.groups.values())


def test_empty_document_gives_diagnostics_not_a_crash():
    with pytest.raises(ModelFormatError) as err:
        parse_model("")
    paths = {d.path for d in err.value.diagnostics}
    assert "model" in paths or "model.name" in paths


REJECTING_DOCUMENTS = {
    "single_with_k2": """
[model]
name = bad
kind = single
k = 2
""",
    "single_with_wide_group": """
[model]
name = bad
kind = single
k = 1
[group.mu]
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
""",
    "single_with_eta": """
[model]
name = bad
kind = single
k = 1
[eta]
row = dirichlet(d=[1, 1])
""",
    "markov_missing_eta_row": """
[model]
name = bad
kind = markov_switching
k = 2
[group.mu]
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
[eta]
row = dirichlet(d=[1, 1])
""",
    "eta_dimension_mismatch": """
[model]
name = bad
kind = markov_switching
k = 2
[group.mu]
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
[eta]
row = dirichlet(d=[1, 1, 1])
row = dirichlet(d=[1, 1, 1])
""",
    "group_size_mismatch": """
[model]
name = bad
kind = markov_switching
k = 2
[group.mu]
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
[eta]
row = dirichlet(d=[1, 1])
row = dirichlet(d=[1, 1])
""",
    "mixed_family_group": """
[model]
name = bad
kind = mixture
k = 2
[group.mu]
component = normal_var(m=0, v=1)
component = gamma(a_breve=1, b_breve=1)
""",
    "nonpositive_hyperparameter": """
[model]
name = bad
kind = single
k = 1
[group.mu]
component = normal_var(m=0, v=-1)
""",
    "unknown_family": """
[model]
name = bad
kind = single
k = 1
[group.mu]
component = laplace(m=0, b=1)
""",
    "two_ordered_groups": """
[model]
name = bad
kind = mixture
k = 2
[group.a]
ordered = true
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
[group.b]
ordered = true
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
""",
    "ordered_dirichlet_group": """
[model]
name = bad
kind = mixture
k = 2
[group.w]
ordered = true
component = dirichlet(d=[1, 1])
component = dirichlet(d=[1, 1])
""",
    "msar2_on_single": """
[model]
name = bad
kind = single
k = 1
[constraint]
regularity = msar2_stationarity
""",
    "initial_state_wrong_length": """
[model]
name = bad
kind = mixture
k = 2
[group.mu]
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
[constraint]
initial_state = [0.5, 0.25, 0.25]
""",
    "initial_state_not_a_simplex": """
[model]
name = bad
kind = mixture
k = 2
[group.mu]
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
[constraint]
initial_state = [0.9, 0.9]
""",
    "initial_state_overflowing": """
[model]
name = bad
kind = mixture
k = 2
[group.mu]
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
[constraint]
initial_state = [1e308, 1e308]
""",
    "initial_state_nan": """
[model]
name = bad
kind = mixture
k = 2
[group.mu]
component = normal_var(m=0, v=1)
component = normal_var(m=0, v=1)
[constraint]
initial_state = [nan, nan]
""",
    "unknown_regularity": """
[model]
name = bad
kind = single
k = 1
[constraint]
regularity = momentum
""",
}


@pytest.mark.parametrize("label", sorted(REJECTING_DOCUMENTS))
def test_invalid_documents_are_rejected_with_diagnostics(label):
    with pytest.raises(ModelFormatError) as err:
        parse_model(REJECTING_DOCUMENTS[label])
    assert err.value.diagnostics


def test_mixture_kind_takes_one_weight_row():
    base = """
[model]
name = mix
kind = mixture
k = 2
[group.mu]
ordered = true
component = normal_var(m=0.0, v=1.0)
component = normal_var(m=0.0, v=1.0)
[eta]
row = dirichlet(d=[1.0, 1.0])
"""
    model = parse_model(base)
    assert model.eta_prior == (Dirichlet((1.0, 1.0)),)
    assert model.groups["mu"].ordered
    with pytest.raises(ModelFormatError):
        parse_model(base + "row = dirichlet(d=[1.0, 1.0])\n")


def test_group_dimension_error_names_the_group():
    with pytest.raises(ModelFormatError) as err:
        parse_model(REJECTING_DOCUMENTS["group_size_mismatch"])
    assert any("group.mu" in d.path for d in err.value.diagnostics)


def test_diagnostics_carry_line_numbers():
    doc = "[model]\nname = x\nkind = single\nk = 1\n[group.mu]\ncomponent = normal_var(m=0, v=-1)\n"
    with pytest.raises(ModelFormatError) as err:
        parse_model(doc)
    assert any(d.line == 6 for d in err.value.diagnostics)


def test_round_trip_of_corpus(ar2_doc, msiah2_doc, msi2_doc):
    for doc in (ar2_doc, msiah2_doc, msi2_doc):
        model = parse_model(doc)
        emitted = format_model(model)
        again = parse_model(emitted)
        assert again == model
        assert format_model(again) == emitted


def test_dist_literal_round_trip():
    # one canonical literal per family of the table, built from its literal field names
    for family, cls in FAMILIES.items():
        values = ["[4.0, 1.0, 2.0]" if name == "d" else repr(0.0625 * 2 ** i)
                  for i, name in enumerate(cls.literal_fields)]
        text = f"{family}(" + ", ".join(f"{n}={v}" for n, v in zip(cls.literal_fields, values)) + ")"
        dist = parse_dist(text)
        assert type(dist) is cls
        assert format_dist(dist) == text


def test_dist_literal_errors():
    for bad in ("normal_var(m=0)", "gamma(a_breve=1, b_breve=1, c=2)",
                "normal_var(m=0, v=1", "dirichlet(d=1.0)", "gamma(a_breve=x, b_breve=1)"):
        with pytest.raises(ValueError):
            parse_dist(bad)


def _k_document(k: str) -> tuple[str, bool]:
    # a single-component model is valid only at k = 1, so any other k must be blamed
    return f"[model]\nname = m\nkind = single\nk = {k}\n", True


_K_TEXTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.just("1e400"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.text(max_size=400), st.just(False)), _K_TEXTS.map(_k_document)))
@example(_k_document("inf"))
@example(_k_document("-inf"))
@example(_k_document("nan"))
@example(_k_document("1e400"))
def test_parser_is_total_on_arbitrary_text(case):
    text, blames_k = case
    try:
        model = parse_model(text)
    except ModelFormatError as err:  # the only acceptable failure mode
        assert not blames_k or any(d.path == "model.k" for d in err.diagnostics)
    else:
        assert not blames_k or model.k == 1
