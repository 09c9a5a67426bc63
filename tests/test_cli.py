"""Command-line surface tests: exit codes, determinism, help texts."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mixprior
from mixprior.cli import build_parser, main
from mixprior.distributions import FAMILIES

SRC = Path(mixprior.__file__).resolve().parents[1]
DEMO_MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"

SUBCOMMANDS = ["forward", "reverse", "family", "verify", "check-plan", "stationarity", "sample"]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_subcommand_has_help(subcommand, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([subcommand, "--help"])
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out


def test_top_level_help(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(s in out for s in SUBCOMMANDS)


def test_forward_inline_components(capsys):
    rc = main(["forward",
               "--component", "inv_gamma(a=1.5, b=2)",
               "--component", "inv_gamma(a=2.5, b=4)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "inv_gamma(a=5.0," in out


def test_forward_from_model_document(model_paths, capsys):
    rc = main(["forward", "--model", model_paths["msiah2"], "--group", "sigma_prec"])
    assert rc == 0
    assert "gamma(a_breve=2.0, b_breve=1.0)" in capsys.readouterr().out
    rc = main(["forward", "--model", model_paths["msiah2"], "--group", "nope"])
    assert rc == 2


def test_forward_machine_format_is_json(capsys):
    rc = main(["forward", "--component", "normal_var(m=0, v=1)",
               "--component", "normal_var(m=0, v=1)", "--format", "machine"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "v1"
    assert payload["nested"] == "normal_var(m=0.0, v=0.5)"


def test_reverse_feasible(capsys):
    rc = main(["reverse", "--family", "gamma", "--a1", "3", "--b1", "2", "--k", "4"])
    assert rc == 0
    assert "gamma(a_breve=1.5, b_breve=0.5)" in capsys.readouterr().out


def test_reverse_infeasible_exits_one_citing_bound(capsys):
    rc = main(["reverse", "--family", "invgamma", "--a1", "2", "--b1", "1", "--k", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "a1 > K - 1" in err and "3" in err


def test_reverse_missing_flag_is_input_error(capsys):
    rc = main(["reverse", "--family", "normal", "--k", "2", "--m1", "0"])
    assert rc == 2
    # the --family choices and the nested-prior flags are those of the family table
    reverse = build_parser()._subparsers._group_actions[0].choices["reverse"]
    actions = {a.dest: a for a in reverse._actions}
    table = {cls.reverse_name: cls.reverse_flags for cls in FAMILIES.values() if cls.reverse_name}
    assert (actions["family"].choices, {d for d, a in actions.items() if a.type is float}) == (
        sorted(table), {flag for flags in table.values() for flag in flags})


def test_family_then_check_plan(tmp_path, model_paths, capsys):
    out_dir = tmp_path / "generated"
    rc = main(["family", "--model", model_paths["ar2"], "--k-range", "2:3",
               "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    generated = out_dir / "ar2_k2.model"
    assert generated.exists() and (out_dir / "ar2_k3.model").exists()
    rc = main(["check-plan", "--nested", model_paths["ar2"], "--general", str(generated)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_check_plan_failure_exits_one(tmp_path, model_paths, capsys):
    doc = open(model_paths["msiah2"]).read().replace("vprec=2.0", "vprec=2.5")
    other = tmp_path / "off.model"
    other.write_text(doc)
    rc = main(["check-plan", "--nested", model_paths["ar2"], "--general", str(other)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_verify_grid_on_constructed_pair(capsys):
    rc = main(["verify", "--method", "grid",
               "--component", "normal_var(m=0, v=1)", "--component", "normal_var(m=0, v=1)"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_detects_wrong_claim(capsys):
    rc = main(["verify", "--method", "grid", "--claimed", "normal_var(m=0, v=1)",
               "--component", "normal_var(m=0, v=1)", "--component", "normal_var(m=0, v=1)"])
    assert rc == 1


_GAMMA_PAIR = ["--component", "gamma(a_breve=2, b_breve=1)",
               "--component", "gamma(a_breve=2, b_breve=1)"]


def test_verify_lone_grid_n_takes_effect(capsys):
    # below the 1001-point minimum, with the closed-form bounds on both sides
    rc = main(["verify", "--method", "grid", "--grid-n", "5", *_GAMMA_PAIR])
    assert rc == 2
    assert "1001" in capsys.readouterr().err


def test_verify_lone_grid_bound_pairs_with_the_closed_form_bound(capsys):
    # the product Gamma(3, 2) holds about 94% of its mass below x = 3
    rc = main(["verify", "--method", "grid", "--grid-lo", "3", *_GAMMA_PAIR])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "covers only" in err, err
    assert main(["verify", "--method", "grid", "--grid-n", "2001", *_GAMMA_PAIR]) == 0
    assert main(["verify", "--method", "grid", "--grid-hi", "100", *_GAMMA_PAIR]) == 0


def test_verify_machine_output_is_deterministic(model_paths, capsys):
    args = ["verify", "--method", "mc", "--model", model_paths["msiah2"], "--group", "phi1",
            "--n-draws", "200000", "--epsilon", "0.05", "--format", "machine", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["report"] == "coherence" and payload["passed"] is True


def test_stationarity_explicit_matrices_collapse(capsys):
    rc = main(["stationarity", "--p", "0.9,0.1;0.1,0.9", "--phi", "0.5,0.3;0.5,0.3",
               "--format", "machine"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    expected = ((0.5 + math.sqrt(1.45)) / 2.0) ** 2
    assert payload["stationary"] is True
    assert abs(payload["rho"] - expected) < 1e-8


def test_stationarity_from_model_prior_means(model_paths, capsys):
    rc = main(["stationarity", "--model", model_paths["msiah2"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho = 0.25" in out and "verdict: stationary" in out


def test_stationarity_defective_block_matrix_gives_the_collapse_radius(capsys):
    # both regimes have the double companion root 0.9, so rho = 0.81 exactly
    rc = main(["stationarity", "--p", "0.5,0.5;0.5,0.5", "--phi", "1.8,-0.81;1.8,-0.81",
               "--format", "machine"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["rho"] - 0.81) <= 1e-8
    assert payload["stationary"] is True and payload["boundary"] is False


def test_stationarity_of_four_identical_defective_regimes_exits_zero(capsys):
    # p = I4 repeats the defective 0.81 block four times; still rho = 0.81
    rc = main(["stationarity", "--p", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1",
               "--phi", ";".join(["1.8,-0.81"] * 4), "--format", "machine"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["rho"] - 0.81) <= 1e-4
    assert payload["stationary"] is True and payload["boundary"] is False


def test_stationarity_nonstationary_exits_one(capsys):
    rc = main(["stationarity", "--p", "1.0", "--phi", "1.1,0.0"])
    assert rc == 1
    assert "not stationary" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--p", "1", "--phi", "1e200,0"],
    ["--p", "1,0;0,1", "--phi", "1e200,0;1e200,0"],
], ids=["overflow", "overflow-times-zero"])
def test_stationarity_overflowing_entries_print_only_the_error_line(argv, tmp_path):
    child = _run_child("import sys, mixprior.cli as c\nsys.exit(c.main(sys.argv[1:]))\n",
                       ["stationarity", *argv], tmp_path)
    assert child.returncode == 2
    assert child.stderr == "error: matrix entries must be finite\n"


def test_sample_is_reproducible(model_paths, capsys):
    args = ["sample", "--model", model_paths["ar2"], "--n", "3", "--format", "machine",
            "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert first == capsys.readouterr().out
    payload = json.loads(first)
    assert len(payload["draws"]) == 3
    assert 0.0 < payload["acceptance_rate"] <= 1.0


def test_sample_writes_infinite_draws_as_strict_json_null(tmp_path, capsys):
    # about half the draws of inv_gamma(a=0.001) overflow 1 / gamma to infinity
    doc = tmp_path / "wide.model"
    doc.write_text("[model]\nname = wide\nkind = single\nk = 1\n\n"
                   "[group.sigma2]\ncomponent = inv_gamma(a=0.001, b=1)\n")
    assert main(["sample", "--model", str(doc), "--n", "20", "--format", "machine"]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    values = [v for row in payload["draws"] for v in row["sigma2"]]
    assert None in values and all(v is None or v > 0.0 for v in values)


def test_missing_file_is_input_error(capsys):
    rc = main(["check-plan", "--nested", "/nonexistent.model", "--general", "/also-missing"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["inf", "nan"])
def test_non_finite_k_documents_are_input_errors(k, tmp_path, model_paths, capsys):
    doc = tmp_path / "bad.model"
    doc.write_text(open(model_paths["msiah2"]).read().replace("k = 2", f"k = {k}"))
    for argv in (["stationarity", "--model", str(doc)],
                 ["sample", "--model", str(doc)],
                 ["family", "--model", str(doc), "--k-range", "2:3"],
                 ["check-plan", "--nested", model_paths["ar2"], "--general", str(doc)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "model.k" in err, (argv, err)


def test_huge_k_stationarity_is_input_error_before_allocating(tmp_path, capsys):
    # a valid document whose delta priors would be broadcast to k regimes;
    # numpy refuses a 7 TiB array without touching memory, so this is safe
    doc = tmp_path / "huge.model"
    doc.write_text("[model]\nname = huge\nkind = mixture\nk = 1e12\n\n[delta]\n"
                   "phi1 = normal_prec(m=0.5, vprec=4.0)\n"
                   "phi2 = normal_prec(m=0.0, vprec=4.0)\n")
    assert main(["stationarity", "--model", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model.k" in err, err


_ADDRESS_SPACE_CHILD = """\
import os
import resource
import sys
# an address-space cap makes any oversized allocation fail at once instead of
# touching memory; 2 GiB is ample for the interpreter and a one-thread numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import mixprior.cli as c
sys.exit(c.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["--method", "grid", "--grid-lo", "0.1", "--grid-hi", "5", "--grid-n", "100000000000"],
    ["--method", "mc", "--n-draws", "100000000000"],
], ids=["grid-n", "n-draws"])
def test_huge_verify_sizes_are_input_errors_before_allocating(argv, tmp_path):
    pair = ["--component", "gamma(a_breve=3, b_breve=1)",
            "--component", "gamma(a_breve=4, b_breve=1)"]
    child = _run_child(_ADDRESS_SPACE_CHILD, ["verify", *argv, *pair], tmp_path)
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("error:") and "Traceback" not in child.stderr, child.stderr


def test_wide_verify_group_is_input_error_before_allocating(tmp_path):
    # 100000 draws of 5000 identical components: the retained coordinates fit
    # the budget, but one streamed block of 65536 x 5000 draws would not
    many = ["--component", "gamma(a_breve=3, b_breve=1)"] * 5000
    child = _run_child(_ADDRESS_SPACE_CHILD,
                       ["verify", "--method", "mc", "--n-draws", "100000", *many], tmp_path)
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("error: --n-draws") and "Traceback" not in child.stderr, \
        child.stderr


class _BandCheckReached(Exception):
    pass


def test_verify_budget_counts_one_block_in_flight_per_worker(monkeypatch, capsys):
    # 2^21 draws of 20 components make 64 blocks of 32768 rows: one block in
    # flight fits the 2 GiB budget, 64 of them (2.5 GiB) do not
    from mixprior import verify

    def reached(*args, **kwargs):
        raise _BandCheckReached

    monkeypatch.setattr(verify, "mc_conditional_check", reached)
    argv = ["verify", "--method", "mc", "--n-draws", str(1 << 21),
            *["--component", "gamma(a_breve=3, b_breve=1)"] * 20]
    monkeypatch.setattr(verify, "_WORKERS", 1)
    with pytest.raises(_BandCheckReached):
        main(argv)
    monkeypatch.setattr(verify, "_WORKERS", 64)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --n-draws")


def test_verify_machine_output_does_not_depend_on_the_worker_count(monkeypatch, capsys):
    from mixprior import verify

    args = ["verify", "--method", "both", "--n-draws", "200000", "--epsilon", "0.05",
            "--format", "machine", "--component", "gamma(a_breve=3, b_breve=2)",
            "--component", "gamma(a_breve=4, b_breve=1)"]
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(verify, "_WORKERS", workers)
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_normal_prec_variance_overflow_is_input_error(capsys):
    # the product of two vprec = 1e-320 priors has variance 1 / 2e-320 = inf
    pair = ["--component", "normal_prec(m=0, vprec=1e-320)"] * 2
    assert main(["verify", *pair]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "variance" in err and "overflows" in err, err


def test_malformed_document_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("[model]\nname = x\nkind = wishful\nk = 1\n")
    rc = main(["stationarity", "--model", str(bad)])
    assert rc == 2
    assert "kind" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path, model_paths, capsys):
    target = tmp_path / "report.json"
    rc = main(["check-plan", "--nested", model_paths["ar2"], "--general",
               model_paths["msiah2"], "--format", "machine", "--out", str(target)])
    assert rc == 0
    payload = json.loads(target.read_text())
    assert payload["passed"] is True


@pytest.mark.parametrize("component", [
    "gamma(a_breve=1e308, b_breve=1)",
    "inv_gamma(a=1e308, b=1)",
    "gamma(a_breve=2, b_breve=1e308)",
    "normal_prec(m=0, vprec=1e308)",
])
def test_forward_overflow_is_input_error(component, capsys):
    assert main(["forward", "--component", component, "--component", component]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err, err


def test_check_plan_overflow_is_input_error(tmp_path, capsys):
    general = tmp_path / "huge_shapes.model"
    general.write_text(re.sub(r"a_breve=[0-9.]+", "a_breve=1e308",
                              (DEMO_MODELS / "msiah2_ar2.model").read_text()))
    assert main(["check-plan", "--nested", str(DEMO_MODELS / "ar2.model"),
                 "--general", str(general)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sum of the shapes a_i overflows" in err, err


# ---------------------------------------------------------------------------
# start-up: the array-free subcommands never import numpy

_NUMPY_FREE_CHILD = """\
import sys
import mixprior.cli as c
rc = c.main(sys.argv[1:])
loaded = sorted(m for m in ("numpy", "mixprior.constraints", "mixprior.verify",
                            "mixprior.special") if m in sys.modules)
assert rc == 0, rc
assert "numpy" not in sys.modules, loaded
assert not loaded, loaded
"""


def _run_child(code: str, argv: list[str], cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["forward", "--model", str(DEMO_MODELS / "msiah2_ar2.model"), "--group", "sigma_prec"],
    ["reverse", "--family", "gamma", "--a1", "3", "--b1", "2", "--k", "4"],
    ["family", "--model", str(DEMO_MODELS / "ar2.model"), "--k-range", "2:4",
     "--out-dir", "family_out"],
    ["check-plan", "--nested", str(DEMO_MODELS / "ar2.model"),
     "--general", str(DEMO_MODELS / "msiah2_ar2.model")],
], ids=lambda argv: argv[0])
def test_array_free_subcommand_does_not_import_numpy(argv, tmp_path):
    child = _run_child(_NUMPY_FREE_CHILD, argv, tmp_path)
    assert child.returncode == 0, child.stderr
    assert child.stdout


def test_bare_package_import_does_not_import_numpy(tmp_path):
    child = _run_child("import sys, mixprior\nassert 'numpy' not in sys.modules\n"
                       "assert sorted(m for m in sys.modules if m.startswith('mixprior')) "
                       "== ['mixprior']\n", [], tmp_path)
    assert child.returncode == 0, child.stderr
