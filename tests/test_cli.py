"""Command-line behavior: exit codes, file handling, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotabaxter
from rotabaxter.cli import _COMMANDS, build_parser, main, parse_algebra, parse_operator
from rotabaxter.algebras import make_componentwise, structure_constants_to_json
from rotabaxter.errors import FormatError, RotaBaxterError
from rotabaxter.operators import (
    compose_operator,
    make_identity_operator,
    make_integration,
    make_miller,
    make_rms,
    make_rms_opposite,
    make_shift_truncation,
    modified_of,
    nijenhuis_family,
    normalize_weight,
    operator_matrix_to_json,
    opposite_of,
    scale_operator,
    sum_operator,
)
from rotabaxter.rationals import format_rational


def run_cli(*args):
    return main(list(args))


def test_check_rbr_pass_exit_zero(capsys):
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "ms",
                   "--weight", "1", "--range", "-8", "8") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "tuples=289" in out


def test_check_rbr_fail_exit_one_with_witness(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = run_cli("check-rbr", "--algebra", "laurent", "--operator", "shift:1",
                   "--weight", "1", "--range", "-4", "4",
                   "--output", str(out_path))
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["status"] == "fail"
    assert payload["witness"]["inputs"] == ["z", "z"]
    assert payload["witness"]["diff"] == "z^2"


def test_check_rbr_wrong_weight_fails():
    assert run_cli("check-rbr", "--algebra", "miller:2,2", "--operator",
                   "miller", "--weight", "2") == 1


def test_exit_code_contract_matches_witness_presence(tmp_path):
    out_path = tmp_path / "r.json"
    code = run_cli("check-rbr", "--algebra", "laurent", "--operator", "ms",
                   "--weight", "1", "--output", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["witness"] is None
    code = run_cli("check-rbr", "--algebra", "laurent", "--operator", "shift:2",
                   "--weight", "1", "--output", str(out_path))
    assert code == 1
    assert json.loads(out_path.read_text())["witness"] is not None


def test_report_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check-rbr", "--algebra", "laurent", "--operator", "ms",
            "--weight", "1", "--samples", "40", "--seed", "7"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_the_seed_variable_is_not_read(tmp_path, monkeypatch):
    # the command line is a run's whole configuration: $ROTABAXTER_SEED
    # does not seed a draw
    monkeypatch.setenv("ROTABAXTER_SEED", "123")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check-rbr", "--algebra", "laurent", "--operator", "ms", "--weight", "1"]
    assert main(args + ["--samples", "20", "--output", str(a)]) == 0
    assert main(args + ["--samples", "20", "--seed", "0", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_the_seed_variable_alone_keeps_basis_mode(tmp_path, monkeypatch):
    monkeypatch.setenv("ROTABAXTER_SEED", "3")
    out = tmp_path / "r.json"
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "ms", "--weight", "1",
                   "--output", str(out)) == 0
    assert json.loads(out.read_text())["domain"] == {"mode": "basis", "lo": -4, "hi": 4}


@pytest.mark.parametrize("argv", [
    ["check-rbr", "--algebra", "laurent", "--operator", "ms", "--weight", "1"],
    ["suite"],
    ["acybe", "--tensor", "TENSOR"],
    ["check-image-closure", "--algebra", "miller:2,2", "--operator", "miller",
     "--weight", "1"],
    ["violate", "--algebra", "laurent", "--operator", "ms", "--weight", "1"],
], ids=lambda argv: argv[0])
def test_a_malformed_seed_variable_is_not_read(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("ROTABAXTER_SEED", "x")
    tensor = tmp_path / "sol.json"
    tensor.write_text(json.dumps({"algebra": "matrix:2",
                                  "terms": [{"i": 1, "j": 1, "coeff": "1"}]}))
    assert run_cli(*[str(tensor) if arg == "TENSOR" else arg for arg in argv]) == 0


def test_missing_weight_is_config_error():
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "ms") == 2


def test_unknown_selectors_exit_two():
    assert run_cli("check-rbr", "--algebra", "nope", "--operator", "ms",
                   "--weight", "1") == 2
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "nope",
                   "--weight", "1") == 2


@pytest.mark.parametrize("cutoff", ["abc", "1.5"])
def test_bad_shift_cutoff_is_config_error(cutoff, capsys):
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", f"shift:{cutoff}",
                   "--weight", "1") == 2
    assert f"error: bad shift cutoff '{cutoff}'" in capsys.readouterr().err


def test_structure_constants_file_flow(tmp_path):
    algebra = make_componentwise(2)
    path = tmp_path / "cw2.json"
    path.write_text(json.dumps(structure_constants_to_json(algebra.constants)))
    loaded, _ = parse_algebra(f"file:{path}")
    assert loaded == algebra
    assert run_cli("check-rbr", "--algebra", f"file:{path}", "--operator", "id",
                   "--weight", "1") == 0


def test_non_associative_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 2,
        "c": [[["0", "1"], ["1", "0"]], [["0", "0"], ["0", "0"]]],
    }))
    assert run_cli("check-rbr", "--algebra", f"file:{path}", "--operator", "id",
                   "--weight", "1") == 2


def test_zero_denominator_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "c": [[["1/0"]]]}))
    assert run_cli("check-rbr", "--algebra", f"file:{path}", "--operator", "id",
                   "--weight", "1") == 2


def test_operator_matrix_file_round_trip(tmp_path):
    miller = make_miller(2, 1)
    algebra = miller.algebra
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_matrix_to_json(algebra, miller)))
    loaded = parse_operator(f"file:{path}", algebra, {})
    for j in range(algebra.dimension):
        e = algebra.basis_element(j)
        assert loaded(e) == miller(e)
    assert run_cli("check-rbr", "--algebra", "miller:2,1", "--operator",
                   f"file:{path}", "--weight", "1") == 0


def test_operator_matrix_identity_behaves(tmp_path):
    a3 = make_componentwise(3)
    path = tmp_path / "id.json"
    rows = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"dim": 3, "matrix": rows}))
    loaded = parse_operator(f"file:{path}", a3, {})
    for j in range(3):
        assert loaded(a3.basis_element(j)) == a3.basis_element(j)


def test_operator_matrix_dimension_mismatch(tmp_path):
    path = tmp_path / "op2.json"
    path.write_text(json.dumps({"dim": 2, "matrix": [["1", "0"], ["0", "1"]]}))
    assert run_cli("check-rbr", "--algebra", "componentwise:3", "--operator",
                   f"file:{path}", "--weight", "1") == 2


# --- a malformed input file is refused, and the message names the field --------


@pytest.mark.parametrize("data, message", [
    ([1], "structure-constants file must be a JSON object"),
    ({"dim": "2", "c": []}, "field 'dim' must be a positive integer, got '2'"),
    ({"dim": True, "c": [[[1]]], "unit": ["1"]},
     "field 'dim' must be a positive integer, got True"),
    ({"dim": 2, "c": [[[0, 0], [0, 0]], [[0, 0]]]}, "field 'c'[1] must be a list of length dim"),
    ({"dim": 2, "c": [[[0, 0], [0]], [[0, 0], [0, 0]]]},
     "field 'c'[0][1] must be a list of length dim"),
    ({"dim": 1, "c": [[[1]]], "unit": [1, 0]}, "field 'unit' must be a list of length dim"),
], ids=["non-object", "dim", "dim-bool", "c[i]", "c[i][j]", "unit"])
def test_a_malformed_structure_constants_file_names_the_field(data, message, tmp_path,
                                                              capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    assert run_cli("check-rbr", "--algebra", f"file:{path}", "--operator", "id",
                   "--weight", "1") == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("algebra, data, message", [
    ("componentwise:2", [[1, 0], [0, 1]], "operator-matrix file must be a JSON object"),
    ("componentwise:2", {"dim": 0, "matrix": []},
     "field 'dim' must be a positive integer, got 0"),
    ("componentwise:1", {"dim": True, "matrix": [["1"]]},
     "field 'dim' must be a positive integer, got True"),
    ("componentwise:2", {"dim": 2, "matrix": [[1, 0], [0]]},
     "field 'matrix' must be a dim x dim array"),
    ("laurent", {"dim": 2, "matrix": [[1, 0], [0, 1]]},
     "operator-matrix files need a finite-dimensional algebra"),
], ids=["non-object", "dim", "dim-bool", "non-square", "laurent"])
def test_a_malformed_operator_matrix_file_names_the_field(algebra, data, message, tmp_path,
                                                          capsys):
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(data))
    assert run_cli("check-rbr", "--algebra", algebra, "--operator", f"file:{path}",
                   "--weight", "1") == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ([], "tensor file needs an 'algebra' field"),
    ({"algebra": "matrix:2", "terms": {}}, "field 'terms' must be a list"),
    ({"algebra": "matrix:2", "terms": [{"i": 0, "j": 0}]},
     "field 'terms'[0] needs keys i, j, coeff"),
    ({"algebra": "matrix:2", "terms": [{"i": 0, "j": 1.0, "coeff": "1"}]},
     "field 'terms'[0]: indices must be integers"),
    ({"algebra": "matrix:2", "terms": [{"i": True, "j": True, "coeff": "1"}]},
     "field 'terms'[0]: indices must be integers"),
    ({"algebra": "laurent", "terms": []},
     "field 'algebra' must name a finite-dimensional algebra, got 'laurent'"),
    ({"algebra": 5, "terms": []}, "field 'algebra' must be a string, got 5"),
], ids=["non-object", "terms", "keys", "indices", "indices-bool", "laurent", "algebra"])
def test_a_malformed_tensor_file_names_the_field(data, message, tmp_path, capsys):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(data))
    assert run_cli("acybe", "--tensor", str(path)) == 2
    assert message in capsys.readouterr().err


def test_operator_expressions():
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator",
                   "scale(-1,ms)", "--weight", "-1") == 0
    assert run_cli("check-modified", "--algebra", "laurent", "--operator",
                   "modified(ms)", "--weight", "1") == 0
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator",
                   "opposite(ms)", "--weight", "1") == 0
    assert run_cli("check-nijenhuis", "--algebra", "laurent", "--operator",
                   "nijenhuis(ms,5)", "--weight", "1") == 0
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator",
                   "normalize(scale(3,ms))", "--weight", "1") == 0
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator",
                   "sum(scale(1/2,ms),scale(1/2,ms))", "--weight", "1") == 0
    assert run_cli("check-idempotent", "--algebra", "laurent", "--operator",
                   "compose(ms,ms)") == 0


def test_operator_expression_errors():
    with pytest.raises(FormatError):
        parse_operator("scale(ms)", None, {})
    with pytest.raises(FormatError):
        parse_operator("scale(1,ms", None, {})
    with pytest.raises(FormatError):
        parse_operator("mystery(ms)", None, {})


# --- one grammar for operator selectors ---------------------------------------


def test_a_preset_with_parameters_parses_inside_an_expression(capsys):
    assert run_cli("check-rbr", "--algebra", "miller:2,2", "--operator",
                   "scale(1,miller:2,2)", "--weight", "1") == 0
    out = capsys.readouterr().out
    assert "| 1*miller:2,2 |" in out and "tuples=16" in out
    algebra, context = parse_algebra("miller:2,2")
    assert parse_operator("sum(miller,miller:2,2)", algebra, context).describe() \
        == "(miller:2,2 + miller:2,2)"


@pytest.mark.parametrize("selector, cutoff", [("scale(2,shift:abc)", "abc"),
                                              ("scale(1,shift:1.5)", "1.5")])
def test_a_bad_shift_cutoff_inside_an_expression_is_named(selector, cutoff, capsys):
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", selector,
                   "--weight", "1") == 2
    assert f"error: bad shift cutoff '{cutoff}'" in capsys.readouterr().err


def test_bad_miller_parameters_are_named(capsys):
    assert run_cli("check-rbr", "--algebra", "miller:2,2", "--operator", "miller:a,b",
                   "--weight", "1") == 2
    assert "error: bad miller parameters 'a,b'" in capsys.readouterr().err


@pytest.mark.parametrize("algebra, selector, name, params", [
    ("laurent", "ms:3", "ms", "3"),
    ("miller:2,2", "id:x", "id", "x"),
    ("laurent", "scale(2,ms-opp:1)", "ms-opp", "1"),
    ("polynomial", "integration:", "integration", "")])
def test_a_preset_without_parameters_refuses_one(algebra, selector, name, params, capsys):
    assert run_cli("check-rbr", "--algebra", algebra, "--operator", selector,
                   "--weight", "1") == 2
    assert f"error: operator '{name}' takes no parameters, got '{params}'" \
        in capsys.readouterr().err


def test_a_miller_token_keeps_a_comma_only_between_digits(capsys):
    assert run_cli("check-rbr", "--algebra", "miller:2,2", "--operator", "sum(miller:2,ms)",
                   "--weight", "1") == 2
    assert "error: bad miller parameters '2'" in capsys.readouterr().err


@pytest.mark.parametrize("selector, params", [("miller:2,2x", "2,2x"),
                                              ("miller:1,3miller", "1,3miller")])
def test_a_miller_token_keeps_a_comma_that_a_digit_follows(selector, params, capsys):
    assert run_cli("check-rbr", "--algebra", "miller:2,2", "--operator", selector,
                   "--weight", "1") == 2
    assert f"error: bad miller parameters '{params}'" in capsys.readouterr().err


def test_a_rational_after_a_miller_token_is_the_next_argument(capsys):
    """The 1/2 of nijenhuis(miller:2,1/2) is the second argument of
    nijenhuis, not a parameter of miller:2."""
    assert run_cli("check-rbr", "--algebra", "miller:2,2", "--operator",
                   "nijenhuis(miller:2,1/2)", "--weight", "1") == 2
    assert "error: bad miller parameters '2'" in capsys.readouterr().err


@pytest.mark.parametrize("selector, message", [
    ("shift", "operator 'shift' needs a cutoff, e.g. shift:1"),
    ("miller", "operator 'miller' needs block sizes (miller:s,t) or an algebra "
               "selector miller:s,t"),
    ("miller:2,2", "miller:2,2 acts on componentwise(4), not on laurent"),
    ("sum(ms,file:x)", "use the full form file:PATH as the operator selector"),
    ("ms$", "bad operator expression near '$'"),
    ("scale(2)", "expected ',', got ')'"),
    ("2", "expected an operator, got '2'"),
    ("sum(ms,id))", "trailing input in operator expression: ')'"),
])
def test_a_malformed_selector_is_refused_with_its_message(selector, message, capsys):
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", selector,
                   "--weight", "1") == 2
    assert f"error: {message}\n" == capsys.readouterr().err


# the library constructor of each selector function, independent of the parser's table
_CONSTRUCTORS = {"scale": scale_operator, "sum": sum_operator, "compose": compose_operator,
                 "modified": modified_of, "opposite": opposite_of,
                 "nijenhuis": nijenhuis_family, "normalize": normalize_weight}


def _call(name, sep, *args):
    """(text, build) of the selector function ``name`` applied to (text,
    build) operands and Fraction arguments; ``build`` makes the operator
    with the library constructors."""
    def build():
        return _CONSTRUCTORS[name](*(a if isinstance(a, Fraction) else a[1]() for a in args))

    texts = (format_rational(a) if isinstance(a, Fraction) else a[0] for a in args)
    return f"{name}({sep.join(texts)})", build


def _applied(operands):
    q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    sep = st.sampled_from([",", ", "])
    return st.one_of(
        st.builds(_call, st.just("scale"), sep, q, operands),
        st.builds(_call, st.sampled_from(["sum", "compose"]), sep, operands, operands),
        st.builds(_call, st.sampled_from(["modified", "opposite", "normalize"]), sep,
                  operands),
        st.builds(_call, st.just("nijenhuis"), sep, operands, q))


# algebra selector -> (text, build) of the presets on it
_PRESETS = {
    "laurent": st.one_of(
        st.sampled_from([("id", make_identity_operator), ("ms", make_rms),
                         ("ms-opp", make_rms_opposite), ("integration", make_integration)]),
        st.integers(-3, 3).map(lambda k: (f"shift:{k}", lambda: make_shift_truncation(k)))),
    "miller:2,2": st.sampled_from([
        ("id", lambda: make_identity_operator(make_componentwise(4))),
        ("miller", lambda: make_miller(2, 2)), ("miller:2,2", lambda: make_miller(2, 2))]),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_selector_texts_parse_to_the_operators_the_constructors_build(data):
    spec = data.draw(st.sampled_from(sorted(_PRESETS)), label="algebra")
    algebra, context = parse_algebra(spec)
    parsed = []
    for _ in range(2):
        text, build = data.draw(st.recursive(_PRESETS[spec], _applied, max_leaves=6))
        try:
            want = build()
        except RotaBaxterError as exc:  # e.g. normalize of an operator without a weight
            with pytest.raises(RotaBaxterError) as raised:
                parse_operator(text, algebra, context)
            assert type(raised.value) is type(exc)
            continue
        got = parse_operator(text, algebra, context)
        assert got.expr == want.expr and hash(got.expr) == hash(want.expr)
        assert got.describe() == want.describe() and got.weight == want.weight
        parsed.append(got)
    if len(parsed) == 2:
        # keying by structure: two operators are equal exactly when their descriptions are
        a, b = parsed
        assert (a.expr == b.expr) == (a.describe() == b.describe())


def test_dendriform_commands():
    assert run_cli("dendriform", "--algebra", "polynomial", "--operator",
                   "integration", "--construct", "weight0", "--axioms", "ddi",
                   "--range", "0", "4") == 0
    assert run_cli("dendriform", "--algebra", "laurent", "--operator", "ms",
                   "--weight", "1", "--construct", "tri", "--range", "-3", "3") == 0
    assert run_cli("dendriform", "--algebra", "laurent", "--operator", "ms",
                   "--weight", "1", "--construct", "modified", "--axioms", "ddi",
                   "--range", "-3", "3") == 0
    assert run_cli("dendriform", "--algebra", "laurent", "--operator",
                   "nijenhuis(ms,1)", "--construct", "nijenhuis", "--axioms",
                   "star", "--range", "-3", "3") == 0
    assert run_cli("dendriform", "--algebra", "laurent", "--operator", "ms",
                   "--weight", "1", "--construct", "tri", "--axioms",
                   "rbr-compositions", "--range", "-3", "3") == 0


def test_dendriform_builds_a_preset_operator_on_the_selected_algebra(capsys, tmp_path):
    out = tmp_path / "reports.json"
    assert run_cli("dendriform", "--algebra", "polynomial", "--operator", "ms",
                   "--weight", "1", "--range", "0", "1", "--output", str(out)) == 0
    assert {r["algebra"] for r in json.loads(out.read_text())} == {"polynomial"}
    # integration leaves the Laurent polynomials on a negative exponent, as check-rbr finds
    argv = ["--algebra", "laurent", "--operator", "integration", "--range", "-2", "2"]
    for command in (["check-rbr", "--weight", "0"], ["dendriform", "--construct", "weight0"]):
        assert run_cli(*command, *argv) == 2
        assert "integration undefined on exponent -2 < 0" in capsys.readouterr().err


@pytest.mark.parametrize("construct, operator, own, given", [
    ("weight0", "ms", "0", "3"), ("nijenhuis", "nijenhuis(ms,1)", "1", "1/2")])
def test_a_construction_refuses_a_weight_other_than_its_own(construct, operator, own,
                                                            given, capsys):
    argv = ["dendriform", "--algebra", "laurent", "--operator", operator,
            "--construct", construct, "--axioms", "star", "--range", "-1", "1"]
    assert run_cli(*argv, "--weight", given) == 2
    assert (f"error: --construct {construct} builds at weight {own}, not at --weight {given}"
            in capsys.readouterr().err)
    # no --weight, or the construction's own, sweeps as before
    assert run_cli(*argv) == run_cli(*argv, "--weight", own) == (1 if own == "0" else 0)


def test_dendriform_trialgebra_axioms_need_a_middle_product(capsys):
    assert run_cli("dendriform", "--algebra", "laurent", "--operator", "ms",
                   "--construct", "weight0", "--axioms", "tri",
                   "--range", "-1", "1") == 2
    assert "weight0(ms) has no middle product" in capsys.readouterr().err


def test_violate_command(capsys):
    assert run_cli("violate", "--algebra", "laurent", "--operator", "shift:1",
                   "--identity", "rbr", "--weight", "1") == 1
    assert run_cli("violate", "--algebra", "laurent", "--operator", "ms",
                   "--identity", "rbr", "--weight", "1") == 0


def test_violate_sweeps_the_windows_only(tmp_path):
    out = tmp_path / "violate.json"
    assert run_cli("violate", "--algebra", "laurent", "--operator", "ms",
                   "--weight", "1", "--output", str(out)) == 0
    report = json.loads(out.read_text())
    # windows [-k, k] for k = 0..4: 1 + 9 + 25 + 49 + 81 pairs
    assert report["tuples"] == 165
    assert report["domain"] == {"mode": "expanding-search", "max_range": 4,
                                "samples": 0, "seed": 0}


def test_acybe_and_induce_commands(tmp_path):
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({
        "algebra": "matrix:2",
        "terms": [{"i": 1, "j": 1, "coeff": "1"}],
    }))
    non_solution = tmp_path / "non.json"
    non_solution.write_text(json.dumps({
        "algebra": "matrix:2",
        "terms": [{"i": 0, "j": 0, "coeff": "1"}],
    }))
    assert run_cli("acybe", "--tensor", str(solution)) == 0
    assert run_cli("acybe", "--tensor", str(non_solution)) == 1
    assert run_cli("induce", "--tensor", str(solution), "--weight", "0") == 0
    assert run_cli("induce", "--tensor", str(non_solution), "--weight", "0") == 1


def test_tensor_file_errors(tmp_path):
    missing = tmp_path / "missing.json"
    assert run_cli("acybe", "--tensor", str(missing)) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("acybe", "--tensor", str(bad)) == 2
    no_alg = tmp_path / "noalg.json"
    no_alg.write_text(json.dumps({"terms": []}))
    assert run_cli("acybe", "--tensor", str(no_alg)) == 2


def test_suite_command(tmp_path):
    out = tmp_path / "suite.json"
    assert run_cli("suite", "paper-all", "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    expected_fail = [e for e in payload["entries"] if e["expected"] == "fail"]
    assert expected_fail and all(e["status"] == "fail" for e in expected_fail)
    assert any(e["expected"] == "report" for e in payload["entries"])


def test_suite_unknown_preset():
    assert run_cli("suite", "nonsense") == 2


PAPER_ALL_SHA256 = "7199ad735598acaff8806db86c9a0255c432db188a44d483a71efe8de972e50e"


def test_suite_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("suite", "paper-all", "--output", str(a)) == 0
    assert run_cli("suite", "paper-all", "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert hashlib.sha256(a.read_bytes()).hexdigest() == PAPER_ALL_SHA256


def test_suite_bytes_ignore_the_seed_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("ROTABAXTER_SEED", "5")
    out = tmp_path / "suite.json"
    assert run_cli("suite", "paper-all", "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_ALL_SHA256


def test_suite_verdicts_insensitive_to_seed():
    from rotabaxter.suite import run_suite

    verdicts = lambda seed: [(e["name"], e["status"])
                             for e in run_suite("paper-all", seed=seed)["entries"]]
    assert verdicts(0) == verdicts(90210)
    # the suite command takes no --seed: it would change only the report's "seed"
    with pytest.raises(SystemExit) as exc:
        run_cli("suite", "paper-all", "--seed", "5")
    assert exc.value.code == 2


# --- sweeps that would test no tuple are refused -----------------------------


def test_random_mode_without_samples_is_refused():
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "ms",
                   "--weight", "1", "--samples", "0") == 2


# a polynomial window below exponent 0 holds no basis key: every random draw
# there is zero, so 2·integration used to pass at weight 1, and image closure
# passed on 0 tuples
@pytest.mark.parametrize("argv", [
    ["check-rbr", "--operator", "scale(2,integration)", "--weight", "1"],
    ["check-rbr", "--operator", "scale(2,integration)", "--weight", "1",
     "--samples", "5"],
    ["check-image-closure", "--operator", "ms", "--weight", "1"],
], ids=["basis", "random", "image-closure"])
def test_a_window_with_no_basis_key_is_refused(argv, capsys):
    assert run_cli(*argv, "--algebra", "polynomial", "--range", "-3", "-1") == 2
    assert "empty basis window" in capsys.readouterr().err


def test_negative_coeff_bound_is_refused(capsys):
    """Bound -3 used to draw only zero elements, so shift:2 passed."""
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "shift:2",
                   "--weight", "1", "--samples", "50",
                   "--coeff-bound", "-3") == 2
    assert "coeff_bound >= 0" in capsys.readouterr().err


def test_negative_support_bound_is_refused(capsys):
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "shift:2",
                   "--weight", "1", "--samples", "50",
                   "--support-bound", "-1") == 2
    assert "support_bound >= 0" in capsys.readouterr().err


# every draw of these sweeps is zero, so each used to pass at exit 0
@pytest.mark.parametrize("argv, bound", [
    (["check-rbr", "--algebra", "laurent", "--operator", "shift:2", "--weight", "1",
      "--coeff-bound", "0"], "coeff_bound"),
    (["check-rbr", "--algebra", "laurent", "--operator", "shift:2", "--weight", "1",
      "--support-bound", "0"], "support_bound"),
    (["check-rbr", "--algebra", "miller:2,2", "--operator", "scale(2,miller)", "--weight", "1",
      "--coeff-bound", "0"], "coeff_bound"),
    (["dendriform", "--algebra", "laurent", "--operator", "shift:1", "--weight", "1",
      "--construct", "tri", "--coeff-bound", "0"], "coeff_bound"),
    (["induce", "--tensor", "TENSOR", "--weight", "1", "--coeff-bound", "0"], "coeff_bound"),
], ids=["laurent-coeff", "laurent-support", "miller-coeff", "dendriform", "induce"])
def test_a_random_sweep_with_a_zero_bound_is_refused(argv, bound, tmp_path, capsys):
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps({"algebra": "matrix:2",
                                  "terms": [{"i": 0, "j": 0, "coeff": "1"}]}))
    argv = [str(tensor) if arg == "TENSOR" else arg for arg in argv]
    assert run_cli(*argv, "--samples", "50") == 2
    assert f"error: random mode with {bound} 0 draws only zeros" in capsys.readouterr().err


def test_violate_negative_range_is_refused():
    assert run_cli("violate", "--algebra", "laurent", "--operator", "shift:1",
                   "--weight", "1", "--max-range", "-1") == 2


def test_image_closure_on_laurent_refuses_random_mode():
    with pytest.raises(SystemExit) as exc:
        run_cli("check-image-closure", "--algebra", "laurent", "--operator",
                "ms", "--weight", "1", "--samples", "3")
    assert exc.value.code == 2


def test_acybe_takes_only_tensor_and_output(tmp_path):
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({
        "algebra": "matrix:2",
        "terms": [{"i": 1, "j": 1, "coeff": "1"}],
    }))
    out = tmp_path / "report.json"
    assert run_cli("acybe", "--tensor", str(solution), "--output", str(out)) == 0
    assert json.loads(out.read_text())["algebra"] == "matrix(4)"
    with pytest.raises(SystemExit):
        run_cli("acybe", "--tensor", str(solution), "--weight", "1")


# --- a sampling option selects random mode -------------------------------------

# the domain a random check-rbr on laurent draws when no sampling option is given
RANDOM_DEFAULTS = {"mode": "random", "lo": -4, "hi": 4, "samples": 200, "coeff_bound": 5,
                   "support_bound": 3, "seed": 0}


@pytest.mark.parametrize("option, field, value", [
    ("--samples", "samples", 7), ("--coeff-bound", "coeff_bound", 2),
    ("--support-bound", "support_bound", 2), ("--seed", "seed", 3)])
def test_one_sampling_option_selects_random_mode(option, field, value, tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "ms", "--weight", "1",
                   option, str(value), "--output", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["domain"] == {**RANDOM_DEFAULTS, field: value}
    assert report["tuples"] == report["domain"]["samples"]


def test_a_random_verdict_line_names_its_seed(capsys):
    args = ["check-rbr", "--algebra", "laurent", "--operator", "shift:1", "--weight", "1"]
    assert run_cli(*args, "--samples", "20", "--seed", "4") == 0
    assert capsys.readouterr().out == (
        "[PASS] rbr | laurent | shift:1 | weight=1 | tuples=20 | random seed=4\n")
    # the basis sweep of the same window fails, and its line has no suffix
    assert run_cli(*args) == 1
    assert capsys.readouterr().out.startswith(
        "[FAIL] rbr | laurent | shift:1 | weight=1 | tuples=51\n")


@pytest.mark.parametrize("argv, domain", [
    (["check-idempotent", "--algebra", "laurent", "--operator", "ms"],
     {**RANDOM_DEFAULTS, "samples": 7}),
    (["dendriform", "--algebra", "laurent", "--operator", "ms", "--weight", "1"],
     {**RANDOM_DEFAULTS, "samples": 7}),
    (["induce", "--tensor", "TENSOR"],
     {"mode": "random", "samples": 7, "coeff_bound": 5, "seed": 0}),
], ids=["check-idempotent", "dendriform", "induce"])
def test_samples_alone_selects_random_mode(argv, domain, tmp_path):
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps({"algebra": "matrix:2",
                                  "terms": [{"i": 1, "j": 1, "coeff": "1"}]}))
    argv = [str(tensor) if arg == "TENSOR" else arg for arg in argv]
    out = tmp_path / "r.json"
    assert run_cli(*argv, "--samples", "7", "--output", str(out)) == 0
    reports = json.loads(out.read_text())
    for report in reports if isinstance(reports, list) else [reports]:
        assert report["domain"] == domain and report["tuples"] == 7


@pytest.mark.parametrize("argv", [
    ["check-rbr", "--algebra", "laurent", "--operator", "ms", "--weight", "1"],
    ["check-modified", "--algebra", "laurent", "--operator", "modified(ms)", "--weight", "1"],
    ["check-nijenhuis", "--algebra", "laurent", "--operator", "nijenhuis(ms,2)",
     "--weight", "1"],
    ["check-lie-modified", "--algebra", "laurent", "--operator", "modified(ms)",
     "--weight", "1"],
    ["check-idempotent", "--algebra", "laurent", "--operator", "ms"],
    ["dendriform", "--algebra", "laurent", "--operator", "ms", "--weight", "1"],
    ["induce", "--tensor", "TENSOR"],
], ids=lambda argv: argv[0])
def test_there_is_no_random_flag(argv, tmp_path, capsys):
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps({"algebra": "matrix:2",
                                  "terms": [{"i": 1, "j": 1, "coeff": "1"}]}))
    argv = [str(tensor) if arg == "TENSOR" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--random", "--samples", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --random" in capsys.readouterr().err


# --- violate takes neither a window nor sampling options -----------------------


@pytest.mark.parametrize("flag", [["--range", "-1", "1"], ["--random"],
                                  ["--coeff-bound", "9"], ["--support-bound", "1"],
                                  ["--samples", "5"], ["--seed", "1"]])
def test_violate_rejects_domain_options(flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("violate", "--algebra", "laurent", "--operator", "shift:1",
                "--weight", "1", *flag)
    assert exc.value.code == 2


# --- a finite algebra has no exponent window ----------------------------------


@pytest.mark.parametrize("command", [
    ["check-rbr", "--weight", "1"],
    ["check-idempotent"],
    ["check-image-closure", "--weight", "1"],
    ["dendriform", "--weight", "1"],
])
def test_explicit_range_on_finite_algebra_is_refused(command, capsys):
    assert run_cli(*command, "--algebra", "miller:2,2", "--operator", "miller",
                   "--range", "0", "0") == 2
    assert "--range" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["check-rbr", "--weight", "1"],
    ["check-idempotent"],
    ["dendriform", "--weight", "1"],
])
def test_support_bound_on_finite_algebra_is_refused(command, capsys):
    """A random element of a finite-dimensional algebra fills every
    coordinate, so a support bound would be ignored: it is refused."""
    assert run_cli(*command, "--algebra", "miller:2,2", "--operator", "miller",
                   "--samples", "3", "--support-bound", "1") == 2
    assert "--support-bound" in capsys.readouterr().err


def test_induce_takes_no_support_bound(tmp_path):
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({
        "algebra": "matrix:2",
        "terms": [{"i": 1, "j": 1, "coeff": "1"}],
    }))
    with pytest.raises(SystemExit) as exc:
        run_cli("induce", "--tensor", str(solution), "--support-bound", "1")
    assert exc.value.code == 2


def test_image_closure_on_finite_algebra_refuses_random_mode():
    with pytest.raises(SystemExit) as exc:
        run_cli("check-image-closure", "--algebra", "miller:2,2", "--operator",
                "miller", "--weight", "1", "--samples", "3")
    assert exc.value.code == 2


def test_finite_algebra_report_domain_unchanged_without_range(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("check-rbr", "--algebra", "miller:2,2", "--operator", "miller",
                   "--weight", "1", "--output", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["domain"] == {"mode": "basis", "lo": -4, "hi": 4}
    assert report["tuples"] == 16


def test_induce_has_no_window(tmp_path):
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({
        "algebra": "matrix:2",
        "terms": [{"i": 1, "j": 1, "coeff": "1"}],
    }))
    with pytest.raises(SystemExit):
        run_cli("induce", "--tensor", str(solution), "--range", "0", "3")


# --- each subcommand takes only the options it reads ---------------------------


@pytest.mark.parametrize("command, flag", [
    ("check-image-closure", ["--samples", "3"]),
    ("check-image-closure", ["--seed", "3"]),
    ("check-image-closure", ["--coeff-bound", "3"]),
    ("check-image-closure", ["--support-bound", "3"]),
    ("check-idempotent", ["--weight", "1"]),
])
def test_options_a_command_does_not_read_are_rejected(command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--algebra", "miller:2,2", "--operator", "miller", *flag)
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_malformed_weight_is_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("check-rbr", "--algebra", "laurent", "--operator", "ms",
                "--weight", value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "argument --weight" in err


# --- image closure uses the weight of the command line -------------------------


def test_image_closure_reports_command_line_weight(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("check-image-closure", "--algebra", "miller:2,2", "--operator",
                   "miller", "--weight", "7", "--output", str(out)) == 0
    assert json.loads(out.read_text())["weight"] == "7"


def test_image_closure_needs_weight():
    assert run_cli("check-image-closure", "--algebra", "miller:2,2",
                   "--operator", "miller") == 2


def test_image_closure_with_wrong_weight_is_refused(capsys):
    # 2·id − ms is not a projector, so its image is not swept
    assert run_cli("check-image-closure", "--algebra", "laurent", "--operator",
                   "ms", "--weight", "2", "--range", "-2", "2") == 2
    assert "projector" in capsys.readouterr().err


def test_negative_rational_weight_as_separate_argument(tmp_path, capsys):
    # build_parser widens this private argparse attribute to rationals
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher"), (
        "argparse has no _negative_number_matcher: build_parser cannot make "
        "'--weight -1/2' an option value this way")
    args = ["check-rbr", "--algebra", "componentwise:3", "--operator",
            "scale(-1/2,id)"]
    runs = []
    for weight in (["--weight", "-1/2"], ["--weight=-1/2"]):
        out = tmp_path / f"r{len(runs)}.json"
        code = run_cli(*args, *weight, "--output", str(out))
        runs.append((code, capsys.readouterr(), out.read_bytes()))
    assert runs[0] == runs[1]
    code, printed, report = runs[0]
    assert code == 0 and "weight=-1/2" in printed.out
    assert json.loads(report)["weight"] == "-1/2"


def test_finite_random_domain_records_only_what_the_draw_reads(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("check-rbr", "--algebra", "miller:2,2", "--operator", "miller",
                   "--weight", "1", "--samples", "5", "--coeff-bound", "4",
                   "--seed", "3", "--output", str(out)) == 0
    assert json.loads(out.read_text())["domain"] == {
        "mode": "random", "samples": 5, "coeff_bound": 4, "seed": 3}
    # a Laurent draw reads the window and the support bound, and records them
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "ms",
                   "--weight", "1", "--samples", "5", "--range", "-2", "2",
                   "--output", str(out)) == 0
    assert json.loads(out.read_text())["domain"] == {
        "mode": "random", "lo": -2, "hi": 2, "samples": 5, "coeff_bound": 5,
        "support_bound": 3, "seed": 0}
    assert run_cli("check-rbr", "--algebra", "laurent", "--operator", "ms",
                   "--weight", "1", "--samples", "5", "--support-bound", "2",
                   "--output", str(out)) == 0
    assert json.loads(out.read_text())["domain"]["support_bound"] == 2


# --- a command loads and parses only what it runs -------------------------------


def loaded_modules(argv, cwd):
    """Exit code and the ``rotabaxter`` modules that ``python -m rotabaxter
    ARGV`` imports, as its ``-X importtime`` trace names them."""
    env = dict(os.environ, PYTHONPATH=str(Path(rotabaxter.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "rotabaxter", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, {n for n in names if n.startswith("rotabaxter.")}


@pytest.mark.parametrize("argv, loads", [
    (["check-rbr", "--algebra", "laurent", "--operator", "ms", "--weight", "1"], set()),
    (["violate", "--algebra", "laurent", "--operator", "shift:1", "--weight", "1"], set()),
    (["dendriform", "--algebra", "laurent", "--operator", "ms", "--weight", "1",
      "--range", "-1", "1"], {"dendriform"}),
    (["acybe", "--tensor", "r.json"], {"tensor"}),
])
def test_command_loads_only_the_modules_it_runs(argv, loads, tmp_path):
    (tmp_path / "r.json").write_text(json.dumps(
        {"algebra": "matrix:2", "terms": [{"i": 1, "j": 1, "coeff": "1"}]}))
    code, modules = loaded_modules(argv, tmp_path)
    assert code in (0, 1)
    assert "rotabaxter.checks" in modules
    optional = {"dendriform", "suite", "tensor"}
    assert {m for m in optional if f"rotabaxter.{m}" in modules} == loads


# one value per option, for a command line that sets every option of a command
SAMPLE_VALUES = {
    "preset": ["paper-all"], "--tensor": ["r.json"], "--algebra": ["laurent"],
    "--operator": ["ms"], "--weight": ["-1/2"], "--samples": ["3"], "--seed": ["4"],
    "--output": ["o.json"], "--range": ["-2", "2"],
    "--coeff-bound": ["2"], "--support-bound": ["1"], "--construct": ["modified"],
    "--axioms": ["star"], "--identity": ["nijenhuis"], "--max-range": ["2"],
}


def help_text(parser, argv, capsys):
    with pytest.raises(SystemExit):
        parser.parse_args(argv)
    return capsys.readouterr().out


def test_induce_help_names_the_default_weight(tmp_path, capsys):
    """induce checks at weight 0 when --weight is absent, and says so."""
    text = " ".join(help_text(build_parser(["induce"]), ["induce", "--help"], capsys).split())
    assert "--weight WEIGHT weight λ used by the check (p/q; induce: default 0)" in text
    tensor, out = tmp_path / "tensor.json", tmp_path / "r.json"
    tensor.write_text(json.dumps({"algebra": "matrix:2",
                                  "terms": [{"i": 1, "j": 1, "coeff": "1"}]}))
    run_cli("induce", "--tensor", str(tensor), "--output", str(out))
    assert json.loads(out.read_text())["weight"] == "0"


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_one_command_parser_matches_the_full_parser(command, capsys):
    full, one = build_parser(), build_parser([command])
    for argv in (["--help"], [command, "--help"]):
        assert help_text(one, argv, capsys) == help_text(full, argv, capsys)
    argv = [command]
    for option in _COMMANDS[command].split():
        argv += ([option] if option.startswith("-") else []) + SAMPLE_VALUES[option]
    assert one.parse_args(argv) == full.parse_args(argv)


# --- a closed stdout changes neither the report nor the exit code --------------


def run_with_closed_stdout(argv, cwd, unbuffered=False):
    """``python -m rotabaxter *argv`` with stdout the write end of a pipe
    whose read end is closed."""
    env = dict(os.environ, PYTHONPATH=str(Path(rotabaxter.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "rotabaxter", *argv],
                              cwd=cwd, env=env, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_keeps_the_report_and_the_verdict(unbuffered, tmp_path, capsys):
    """With stdout's reader gone before the run starts, the listing is
    dropped: the --output file holds the bytes of a normal run, the exit
    code is the verdict's, and stderr stays empty."""
    argv = ["check-rbr", "--algebra", "laurent", "--operator", "shift:2", "--weight", "1",
            "--range", "-3", "3", "--output"]
    assert run_cli(*argv, str(tmp_path / "normal.json")) == 1
    proc = run_with_closed_stdout([*argv, "f.json"], tmp_path, unbuffered)
    assert proc.returncode == 1
    assert proc.stderr == b""
    assert (tmp_path / "f.json").read_bytes() == (tmp_path / "normal.json").read_bytes()


def test_help_with_a_closed_stdout_exits_0(tmp_path):
    """``--help`` leaves its text in a buffered stdout; with the reader
    gone, the top-level help and each command's help still exit 0, and
    stderr stays empty."""
    for argv in [[], *([command] for command in _COMMANDS)]:
        proc = run_with_closed_stdout([*argv, "--help"], tmp_path)
        assert (argv, proc.returncode, proc.stderr) == (argv, 0, b"")
