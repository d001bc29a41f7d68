"""End-to-end coverage of the command line interface.

Most tests call main() in-process and inspect captured stdout, stderr, and
the returned exit code.  Two subprocess tests run the package from the
checkout without installing it: `python -m polycal`, and a `polycal`
launcher built from the console script that pyproject.toml declares in
[project.scripts].  File fixtures are built per test in tmp_path from the
shared refutation corpora.
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, child_env

from polycal.bvp import (
    audit_report_from_obj,
    brute_force_refutation,
    trace_report_from_obj,
)
from polycal import bvp, cli, proofcore
from polycal.cli import canonical_json, main
from polycal.proofcore import (
    SQRT_BIT_LIMIT,
    SQRT_TERM_LIMIT,
    SQRT_WIDTH_LIMIT,
    AxiomSet,
    ProofBuilder,
    SystemKind,
    check_refutation,
    proof_chunks,
    proof_from_obj,
    proof_to_obj,
    report_from_obj,
)
from polycal.polyring import (
    EXPONENT_LIMIT,
    NUMERAL_DIGIT_LIMIT,
    int_from_str,
    int_to_str,
    poly_parse,
    xvar,
    yvar,
)
from polycal.reslin import (
    Disjunction,
    RlAxiom,
    RlBooleanAxiom,
    RlResolution,
    RlSimplification,
    reslin_from_obj,
    reslin_to_obj,
)
from polycal.xlate import simulate_reslin_b

from q_corpus import (
    Y3,
    free_variable,
    gapped_extensions,
    negative_root,
    nested_extensions,
)
from reslin_corpus import (
    bvp_splitting,
    clause_pair,
    eq,
    refutation_corpus,
    rests_of_one_degree,
    run as run_rules,
    zero_one,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture()
def oracle_doc(tmp_path):
    code = main(["oracle-refute", "--n", "1", "--out", str(tmp_path / "p.json")])
    assert code == 0
    return str(tmp_path / "p.json")


@pytest.fixture()
def reslin_doc(tmp_path):
    axioms, lines = zero_one()
    return write_json(tmp_path / "rl.json", reslin_to_obj(axioms, lines))


# -- primes and generation -------------------------------------------------------


def test_primes_frozen_output(capsys):
    code, out, err = run(capsys, "primes", "--below", "8")
    assert code == 0
    assert out == '{"primes":[2,3,5,7],"primorial_bits":8}\n'
    assert err == ""


def test_gen_bvp_writes_identical_file_and_stdout(tmp_path, capsys):
    out_file = tmp_path / "inst.json"
    code, out, _ = run(capsys, "gen-bvp", "--n", "2", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == out
    doc = json.loads(out)
    assert doc["n"] == 2
    assert len(doc["base"]) == 3


@pytest.mark.parametrize(
    "n, sha256",
    [
        (1, "70516da4e8c574995e48b4965e9817eff2e1fa76366d421fb0b514b5b8f425d5"),
        (3, "e976ac90ade1a557174a11b5171c8c908c4432b40fdc078fbe7b8a65888197a8"),
        (8, "d3e26e4f10f695ef6772bd78cd143ed98e5b80e978876ec81b72c67323720a13"),
        (64, "c22b6be588df3c10c8498a32805afd128e6b95e8957f7e8243d11700ae0d6eae"),
        (bvp.WIDTH_LIMIT,
         "fc5aaaeebcfa667e8e51009ecc8b67543d286403cd0debdc0db9fb74348a82b6"),
    ],
)
def test_gen_bvp_frozen_bytes(capsys, n, sha256):
    code, out, err = run(capsys, "gen-bvp", "--n", str(n))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_gen_bvp_rejects_nonpositive_width(capsys):
    code, out, err = run(capsys, "gen-bvp", "--n", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "n, code", [(bvp.WIDTH_LIMIT, 0), (bvp.WIDTH_LIMIT + 1, 2)]
)
def test_gen_bvp_width_limit(capsys, n, code):
    got, out, err = run(capsys, "gen-bvp", "--n", str(n))
    assert got == code, err
    if code == 0:
        assert len(json.loads(out)["base"]) == n + 1
        return
    assert out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": f"n = {n} exceeds the width limit {bvp.WIDTH_LIMIT}",
    }


# -- check -----------------------------------------------------------------------


def test_oracle_then_check_is_valid_with_final_two(oracle_doc, capsys):
    code, out, _ = run(capsys, "check", "--system", "pcsqrt-z", "--proof", oracle_doc)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["final_constant"] == "2"


def test_check_autodetects_system(oracle_doc, capsys):
    code, out, _ = run(capsys, "check", "--proof", oracle_doc)
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_check_system_mismatch_is_a_usage_error(oracle_doc, capsys):
    code, out, err = run(capsys, "check", "--system", "pc-q", "--proof", oracle_doc)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_check_corrupted_line_exits_one_with_code_and_index(
    oracle_doc, tmp_path, capsys
):
    doc = json.loads(Path(oracle_doc).read_text(encoding="utf-8"))
    doc["lines"][3]["poly"]["terms"][0]["coef"] = "7"
    bad = write_json(tmp_path / "bad.json", doc)
    code, out, _ = run(capsys, "check", "--proof", bad)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["error"]["code"] == "RuleMismatch"
    assert report["error"]["line"] == 3


def test_check_reads_clausal_numbers_past_the_int_digit_limit(tmp_path, capsys):
    # C x1 = 0 against C x1 = C, with C written out in 5000 digits.
    c = 77777
    axioms = [
        Disjunction.of(eq({xvar(1): c}, 0)),
        Disjunction.of(eq({xvar(1): c}, c)),
    ]
    rules = [
        RlAxiom(0),
        RlAxiom(1),
        RlResolution(0, 1, 0, 0, 1, -1),
        RlSimplification(2, 0),
    ]
    text = json.dumps(reslin_to_obj(axioms, run_rules(axioms, rules)))
    path = tmp_path / "big.json"
    path.write_text(text.replace(str(c), "9" * 5000), encoding="utf-8")
    code, out, err = run(capsys, "check", "--proof", str(path))
    assert code == 0, err
    assert json.loads(out)["valid"] is True


@pytest.mark.parametrize(
    "field, pattern, complaint",
    [
        ("coef", r'"coef":"[^"]*"', "scalar must be a string"),
        ("mono", r'"mono":\{[^}]*\}', "monomial must be an object"),
    ],
)
def test_check_names_the_field_of_a_bare_number_past_the_int_digit_limit(
    tmp_path, capsys, field, pattern, complaint
):
    # repr of such a number raises ValueError; the message describes it instead.
    path = tmp_path / "p.json"
    assert run(capsys, "oracle-refute", "--n", "2", "--out", str(path))[0] == 0
    text = path.read_text(encoding="utf-8")
    path.write_text(
        re.sub(pattern, f'"{field}":' + "7" * 5000, text, count=1), encoding="utf-8"
    )
    code, out, err = run(capsys, "check", "--proof", str(path))
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "FormatError"
    assert error["message"] == f"{complaint}, got an integer of 16610 bits"


def _clausal_with(path, numeral):
    """The axiom C x1 = 0, C written once as numeral, and one boolean line."""
    c = 77777
    axioms = [Disjunction.of(eq({xvar(1): c}, 0))]
    text = json.dumps(reslin_to_obj(axioms, run_rules(axioms, [RlBooleanAxiom(xvar(1))])))
    path.write_text(text.replace(str(c), numeral), encoding="utf-8")
    return str(path)


def _oracle_with(path, capsys, numeral):
    """The n=1 oracle proof with its first coefficient string replaced."""
    assert run(capsys, "oracle-refute", "--n", "1", "--out", str(path))[0] == 0
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(r'"coef":"[^"]*"', f'"coef":"{numeral}"', text, count=1),
                    encoding="utf-8")
    return str(path)


def test_numerals_at_the_digit_limit_are_read(tmp_path, capsys):
    # A raw JSON integer in a clausal document, its sign not counted as a
    # digit, and a coefficient string in an algebraic one.
    at_limit = "9" * NUMERAL_DIGIT_LIMIT
    clausal = _clausal_with(tmp_path / "c.json", "-" + at_limit)
    code, out, err = run(capsys, "check", "--proof", clausal)
    assert code == 0, err
    assert json.loads(out)["valid"] is True
    algebraic = _oracle_with(tmp_path / "z.json", capsys, at_limit)
    code, out, err = run(capsys, "measure", "--proof", algebraic)
    assert code == 0, err


def test_numerals_a_digit_past_the_limit_are_refused(tmp_path, capsys):
    past = "9" * (NUMERAL_DIGIT_LIMIT + 1)
    documents = [
        ("check", _clausal_with(tmp_path / "c.json", "-" + past)),
        ("measure", _oracle_with(tmp_path / "z.json", capsys, past)),
    ]
    for command, path in documents:
        code, out, err = run(capsys, command, "--proof", path)
        assert (code, out) == (2, ""), command
        assert json.loads(err) == {
            "error": "FormatError",
            "message": f"numeral of {NUMERAL_DIGIT_LIMIT + 1} digits exceeds the limit "
            f"{NUMERAL_DIGIT_LIMIT}",
        }


def test_a_truncated_document_past_the_int_digit_limit_is_a_decode_error(
    tmp_path, capsys
):
    # The C parser stops at the long numeral first; the re-parse with the
    # integer hook then meets the cut and raises what json.load with the
    # hook raises.
    path = tmp_path / "cut.json"
    text = Path(_clausal_with(path, "9" * 5000)).read_text(encoding="utf-8")[:-3]
    assert text.index("9" * 5000) < len(text) - 5000
    path.write_text(text, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text, parse_int=int_from_str)
    code, out, err = run(capsys, "check", "--proof", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "JSONDecodeError", "message": str(expected.value)}


@pytest.mark.parametrize(
    "numeral", ["9" * 4301, "-" + "1" * 5000, "123"], ids=["4301", "-5000", "3"]
)
def test_load_json_decodes_as_the_integer_hook_does(tmp_path, numeral):
    path = _clausal_with(tmp_path / "c.json", numeral)
    text = Path(path).read_text(encoding="utf-8")
    assert cli._load_json(path) == json.loads(text, parse_int=int_from_str)


def test_check_refuses_a_variable_name_with_a_trailing_newline(tmp_path, capsys):
    obj = reslin_to_obj(*zero_one())
    obj["axioms"][0] = [{"coeffs": {"x1": 1, "x1\n": 2}, "const": 0}]
    code, out, err = run(capsys, "check", "--proof", write_json(tmp_path / "nl.json", obj))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FormatError"


def _q_doc_after_warm_memo(second_term):
    """A Q document whose second line repeats its first term with one change."""
    warm = {"coef": "1", "mono": {"x1": 1}}
    return {
        "system": "pc-q",
        "axioms": {"base": [{"terms": [warm]}], "extensions": []},
        "lines": [
            {"poly": {"terms": [warm]}, "rule": {"type": "axiom", "index": 0}},
            {"poly": {"terms": [second_term]}, "rule": {"type": "axiom", "index": 0}},
        ],
    }


def _clausal_doc_after_warm_memo(second_eq):
    obj = reslin_to_obj(*zero_one())
    obj["axioms"] = [[{"coeffs": {"x1": 1}, "const": 0}], [second_eq]]
    return obj


@pytest.mark.parametrize(
    "doc",
    [
        _q_doc_after_warm_memo({"coef": "1", "mono": {"x1": True}}),
        _q_doc_after_warm_memo({"coef": "1", "mono": {"x1": 1.0}}),
        _q_doc_after_warm_memo({"coef": "01", "mono": {"x1": 1}}),
        _clausal_doc_after_warm_memo({"coeffs": {"x1": True}, "const": 0}),
        _clausal_doc_after_warm_memo({"coeffs": {"x1": 1}, "const": False}),
    ],
)
def test_a_warm_decoder_memo_still_refuses_lookalikes(tmp_path, capsys, doc):
    # True == 1.0 == 1, and "01" names the value of "1": none may reuse its entry.
    code, out, err = run(capsys, "check", "--proof", write_json(tmp_path / "d.json", doc))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FormatError"


def test_check_handles_clausal_documents(reslin_doc, capsys):
    code, out, _ = run(capsys, "check", "--proof", reslin_doc)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["final_constant"] is None


def test_system_flag_on_clausal_document_is_a_usage_error(reslin_doc, capsys):
    code, _, err = run(capsys, "check", "--system", "pc-q", "--proof", reslin_doc)
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


# -- translate -------------------------------------------------------------------


def test_translate_emits_line_map_and_valid_proof(reslin_doc, tmp_path, capsys):
    out_file = tmp_path / "sim.json"
    code, out, _ = run(capsys, "translate", "--reslin", reslin_doc, "--out", str(out_file))
    assert code == 0
    summary = json.loads(out)
    assert summary["line_map"] == [0, 1, 8, 9]
    assert summary["line_count"] == 10
    kind, axioms, lines = proof_from_obj(json.loads(out_file.read_text()))
    assert kind is SystemKind.EXTPCSQRT_Q
    assert check_refutation(axioms, lines, kind).valid


def test_translate_writes_null_for_a_hat_no_rule_cites(tmp_path, capsys):
    # clause_pair's line 3 resolves into a false constant that only a
    # simplification cites, which reuses the rests' product: no line holds
    # line 3's hat.
    doc = write_json(tmp_path / "rl.json", reslin_to_obj(*clause_pair()))
    code, out, _ = run(capsys, "translate", "--reslin", doc, "--out", str(tmp_path / "q.json"))
    assert code == 0
    assert '"line_map":[0,1,2,null,' in out
    summary = json.loads(out)
    assert summary["line_map"][-1] == summary["line_count"] - 1


def test_translate_split_files_match_bundled_document(reslin_doc, tmp_path, capsys):
    doc = json.loads(Path(reslin_doc).read_text(encoding="utf-8"))
    lines_file = write_json(tmp_path / "lines.json", {"lines": doc["lines"]})
    ax_file = write_json(tmp_path / "ax.json", {"axioms": doc["axioms"]})
    bundled = tmp_path / "out1.json"
    split = tmp_path / "out2.json"
    assert main(["translate", "--reslin", reslin_doc, "--out", str(bundled)]) == 0
    assert (
        main(
            [
                "translate",
                "--reslin",
                lines_file,
                "--axioms",
                ax_file,
                "--out",
                str(split),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert bundled.read_bytes() == split.read_bytes()


def test_translate_rejects_malformed_axioms_file(reslin_doc, tmp_path, capsys):
    ax_file = write_json(tmp_path / "ax.json", {"axioms": [], "extra": 1})
    code, _, err = run(
        capsys, "translate", "--reslin", reslin_doc, "--axioms", ax_file, "--out", "x"
    )
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


# -- rationalize -----------------------------------------------------------------


def make_rational_doc(tmp_path):
    axioms, proof = negative_root()
    obj = proof_to_obj(SystemKind.EXTPCSQRT_Q, axioms, proof)
    return write_json(tmp_path / "q.json", obj)


def test_rationalize_outputs_integral_proof_and_state(tmp_path, capsys):
    doc = make_rational_doc(tmp_path)
    out_file = tmp_path / "z.json"
    state_file = tmp_path / "state.json"
    code, out, _ = run(
        capsys,
        "rationalize",
        "--proof",
        doc,
        "--out",
        str(out_file),
        "--state",
        str(state_file),
    )
    assert code == 0
    assert state_file.read_text(encoding="utf-8") == out
    state = json.loads(out)
    assert state["F_final"] == "2"
    assert state["final_constant"] == "1"
    kind, axioms, lines = proof_from_obj(json.loads(out_file.read_text()))
    assert kind is SystemKind.EXTPCSQRT_Z
    assert check_refutation(axioms, lines, kind).valid


GAPPED_DOCUMENTS = {
    "y1, y3 and a y3 multiplication": lambda: gapped_extensions(Y3),
    "y1, y3 and no y multiplication": lambda: gapped_extensions(xvar(1)),
    "a free y5 multiplication": free_variable,
}


@pytest.mark.parametrize("name", sorted(GAPPED_DOCUMENTS))
def test_rationalize_takes_y_variables_numbered_with_gaps(tmp_path, capsys, name):
    obj = proof_to_obj(SystemKind.EXTPCSQRT_Q, *GAPPED_DOCUMENTS[name]())
    doc, z = write_json(tmp_path / "q.json", obj), str(tmp_path / "z.json")
    code, _, err = run(capsys, "rationalize", "--proof", doc, "--out", z)
    assert code == 0, err
    code, out, err = run(capsys, "check", "--proof", z)
    assert code == 0, err
    assert json.loads(out)["valid"] is True


def test_rationalize_state_past_the_int_digit_limit(tmp_path, capsys):
    # A resolution scale above 2^n stays in the Z constant, so at n = 3 a
    # 1501-digit scale carries F past 4300 decimal digits.  The clausal
    # document's own coefficients pass that limit too, so json.dumps writes
    # them only with the interpreter's limit lifted.
    obj = reslin_to_obj(*bvp_splitting(3, alpha=10**1500 + 1))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rl = write_json(tmp_path / "rl.json", obj)
    finally:
        sys.set_int_max_str_digits(limit)
    q, z, state = (str(tmp_path / name) for name in ("q.json", "z.json", "s.json"))
    assert main(["translate", "--reslin", rl, "--out", q]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "rationalize", "--proof", q, "--out", z, "--state", state)
    assert code == 0, err
    state_obj = json.loads(out)
    assert len(state_obj["F_final"]) > 4300
    # The Q proof ends in 1, so F is the whole Z constant.
    constant = state_obj["F_final"]
    assert state_obj["final_constant"] == constant
    code, out, err = run(capsys, "check", "--proof", z)
    assert code == 0, err
    assert json.loads(out)["final_constant"] == constant


def test_rationalize_prints_the_same_state_with_or_without_state_file(
    tmp_path, capsys
):
    # At n = 5, listing the line clearers L would print 80 MB.
    rl = write_json(tmp_path / "rl.json", reslin_to_obj(*bvp_splitting(5)))
    q, z, state = (str(tmp_path / name) for name in ("q.json", "z.json", "s.json"))
    code, out, err = run(capsys, "translate", "--reslin", rl, "--out", q)
    assert code == 0, err
    q_lines = json.loads(out)["line_count"]
    code, plain, err = run(capsys, "rationalize", "--proof", q, "--out", z)
    assert code == 0, err
    code, out, err = run(
        capsys, "rationalize", "--proof", q, "--out", z, "--state", state
    )
    assert code == 0, err
    assert out == plain == Path(state).read_text(encoding="utf-8")
    state_obj = json.loads(out)
    assert "L" not in state_obj
    assert state_obj["line_count"] == str(q_lines)


@pytest.mark.parametrize(
    "exponent, code", [(EXPONENT_LIMIT, 0), (EXPONENT_LIMIT + 1, 2)]
)
def test_exponent_limit_guards_rationalize_and_check(
    tmp_path, capsys, exponent, code
):
    axioms, proof = nested_extensions()
    obj = proof_to_obj(SystemKind.EXTPCSQRT_Q, axioms, proof)
    obj["axioms"]["extensions"][1]["def"]["terms"][0]["mono"] = {"y1": exponent}
    doc = write_json(tmp_path / "q.json", obj)
    z = str(tmp_path / "z.json")
    commands = (["rationalize", "--proof", doc, "--out", z], ["check", "--proof", doc])
    for argv in commands:
        got, out, err = run(capsys, *argv)
        assert got == code, (argv[0], err)
        if code == 2:
            assert out == ""
            error = json.loads(err)
            assert error["error"] == "FormatError"
            assert "exponent of y1" in error["message"]


@pytest.mark.parametrize(
    "terms, code", [(SQRT_TERM_LIMIT, 0), (SQRT_TERM_LIMIT + 1, 2)]
)
def test_sqrt_term_limit_guards_check(tmp_path, capsys, terms, code):
    axioms, proof = negative_root()
    obj = proof_to_obj(SystemKind.EXTPCSQRT_Q, axioms, proof)
    index = next(
        i for i, line in enumerate(obj["lines"]) if line["rule"]["type"] == "sqrt"
    )
    obj["lines"][index]["poly"]["terms"] = [
        {"coef": "1", "mono": {f"x{t + 1}": 1}} for t in range(terms)
    ]
    if code == 0:
        # Decoding accepts the root; checking it would square it, which
        # takes most of a second at the limit.
        assert len(proof_from_obj(obj)[2][index].poly) == terms
        return
    doc = write_json(tmp_path / "q.json", obj)
    got, out, err = run(capsys, "check", "--proof", doc)
    assert got == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "FormatError"
    assert error["message"] == (
        f"square root at line {index} of {terms} terms exceeds the limit "
        f"{SQRT_TERM_LIMIT}"
    )


@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("quantity", ["coefficient bits", "variable occurrences"])
def test_sqrt_work_limits_guard_check(tmp_path, capsys, quantity, past):
    # A root of SQRT_TERM_LIMIT terms, each one coefficient and one monomial
    # over variables of its own, exactly at a limit or one bit or one
    # variable occurrence past it.
    terms = SQRT_TERM_LIMIT
    limit = SQRT_BIT_LIMIT if quantity == "coefficient bits" else SQRT_WIDTH_LIMIT
    each = limit // terms**2
    assert each * terms**2 == limit
    bits, width = (each, 1) if quantity == "coefficient bits" else (0, each)
    root = [
        {"coef": str(2**bits), "mono": {f"x{t * width + v + 1}": 1 for v in range(width)}}
        for t in range(terms)
    ]
    if past and quantity == "coefficient bits":
        root[0]["coef"] = str(2**bits + 1)  # ceil_log2 of 2^b is b, of 2^b + 1 is b + 1
    elif past:
        root[0]["mono"][f"x{terms * width + 1}"] = 1
    axioms, proof = negative_root()
    obj = proof_to_obj(SystemKind.EXTPCSQRT_Q, axioms, proof)
    index = next(
        i for i, line in enumerate(obj["lines"]) if line["rule"]["type"] == "sqrt"
    )
    obj["lines"][index]["poly"]["terms"] = root
    if not past:
        assert len(proof_from_obj(obj)[2][index].poly) == terms
        return
    doc = write_json(tmp_path / "q.json", obj)
    got, out, err = run(capsys, "check", "--proof", doc)
    assert (got, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "FormatError"
    assert error["message"] == (
        f"square root at line {index} of {terms} terms and {terms * each + 1} "
        f"{quantity} exceeds the limit {limit} on their product"
    )


def test_rationalize_refuses_a_halving_root_before_writing(tmp_path, capsys, monkeypatch):
    # 1/2^40 + (2^40 - 1)/2^40 = 1 is held at g = 2^40, so the lift halves
    # it through the constant root 2^20, whose 20 bits pass a lowered limit.
    # The root cites Z line 3, which holds 2^40, with no copy between.
    # The Q document has no root, so only the lift can refuse.
    g = 2**40
    base = (poly_parse("x1"), poly_parse("x1 - 1"))
    builder = ProofBuilder(AxiomSet(base), SystemKind.EXTPCSQRT_Q)
    fraction = builder.lincomb(
        builder.axiom_line(0), builder.axiom_line(1), Fraction(1, g), Fraction(-1, g)
    )
    builder.lincomb(fraction, fraction, 1, g - 1)
    obj = proof_to_obj(SystemKind.EXTPCSQRT_Q, AxiomSet(base), builder.lines)
    doc = write_json(tmp_path / "q.json", obj)
    z, state = tmp_path / "z.json", tmp_path / "s.json"
    argv = ["rationalize", "--proof", doc, "--out", str(z), "--state", str(state)]
    monkeypatch.setattr(proofcore, "SQRT_BIT_LIMIT", 19)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "FormatError",
        "message": "square root at line 4 of 1 terms and 20 coefficient bits "
        "exceeds the limit 19 on their product",
    }
    assert not z.exists() and not state.exists()
    monkeypatch.setattr(proofcore, "SQRT_BIT_LIMIT", 20)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["final_constant"] == "2"


def test_rationalize_invalid_input_proof_exits_one(tmp_path, capsys):
    axioms, proof = negative_root()
    obj = proof_to_obj(SystemKind.EXTPCSQRT_Q, axioms, proof)
    obj["lines"][2]["rule"]["alpha"] = "3"
    doc = write_json(tmp_path / "broken.json", obj)
    code, out, err = run(
        capsys, "rationalize", "--proof", doc, "--out", str(tmp_path / "z.json")
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "InvalidInputProof"


def test_rationalize_without_state_prints_no_line_clearers(tmp_path, capsys):
    # At n = 6 the clearers L alone hold about 1.3 * 10^9 digits.
    rl = write_json(tmp_path / "rl.json", reslin_to_obj(*bvp_splitting(6)))
    q, z = str(tmp_path / "q.json"), str(tmp_path / "z.json")
    assert main(["translate", "--reslin", rl, "--out", q]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "rationalize", "--proof", q, "--out", z)
    assert code == 0, err
    assert len(out.encode()) < 10**6
    state = json.loads(out)
    assert "L" not in state
    primorial = math.prod(bvp.primes_below(65))
    assert state["F_final"] == state["final_constant"] == str(primorial)


def test_an_unwritable_state_leaves_out_as_it_was(tmp_path, capsys):
    z = tmp_path / "z.json"
    z.write_text("OLD CONTENT", encoding="utf-8")
    state = str(tmp_path / "missing" / "s.json")
    code, out, err = run(
        capsys, "rationalize", "--proof", make_rational_doc(tmp_path),
        "--out", str(z), "--state", state,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert z.read_text(encoding="utf-8") == "OLD CONTENT"


@pytest.mark.parametrize("alias", ["same path", "hard link", "new file"])
def test_out_and_state_naming_one_file_is_a_usage_error(tmp_path, capsys, alias):
    target = tmp_path / "z.json"
    if alias != "new file":
        target.write_text("OLD CONTENT", encoding="utf-8")
    other = target
    if alias == "hard link":
        other = tmp_path / "link.json"
        os.link(target, other)
    code, out, err = run(
        capsys, "rationalize", "--proof", make_rational_doc(tmp_path),
        "--out", str(target), "--state", str(other),
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"
    if alias == "new file":
        assert not target.exists()
    else:
        assert target.read_text(encoding="utf-8") == "OLD CONTENT"


def test_out_and_state_naming_one_file_is_refused_before_rationalize(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("rationalize ran")

    monkeypatch.setattr(cli, "rationalize", refuse)
    target = str(tmp_path / "z.json")
    code, out, err = run(
        capsys, "rationalize", "--proof", make_rational_doc(tmp_path),
        "--out", target, "--state", target,
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "UsageError"


def test_out_and_state_may_both_be_dev_null(tmp_path, capsys):
    code, out, err = run(
        capsys, "rationalize", "--proof", make_rational_doc(tmp_path),
        "--out", os.devnull, "--state", os.devnull,
    )
    assert code == 0, err
    assert json.loads(out)["F_final"] == "2"


# -- output files ----------------------------------------------------------------


def _writer_argv(work, flag, path):
    """argv that writes its flag's output to path; the other output goes to work."""
    clausal = write_json(work / "clausal.json", reslin_to_obj(*bvp_splitting(2)))
    q, z, state = (str(work / name) for name in ("q.json", "z.json", "s.json"))
    assert main(["translate", "--reslin", clausal, "--out", q]) == 0
    return {
        "gen-bvp --out": ["gen-bvp", "--n", "2", "--out", path],
        "oracle-refute --out": ["oracle-refute", "--n", "2", "--out", path],
        "translate --out": ["translate", "--reslin", clausal, "--out", path],
        "rationalize --out": ["rationalize", "--proof", q, "--out", path, "--state", state],
        "rationalize --state": ["rationalize", "--proof", q, "--out", z, "--state", path],
    }[flag]


@pytest.mark.parametrize("old_size", ["longer", "shorter"])
@pytest.mark.parametrize(
    "flag",
    ["gen-bvp --out", "oracle-refute --out", "translate --out",
     "rationalize --out", "rationalize --state"],
)
def test_rewriting_an_output_gives_the_bytes_of_a_fresh_write(
    tmp_path, capsys, flag, old_size
):
    fresh, rewritten = tmp_path / "fresh.json", tmp_path / "rewritten.json"
    code, fresh_out, err = run(capsys, *_writer_argv(tmp_path, flag, str(fresh)))
    assert code == 0, err
    expected = fresh.read_bytes()
    old_length = len(expected) * 3 if old_size == "longer" else len(expected) // 3
    rewritten.write_bytes(b"#" * old_length)
    code, out, err = run(capsys, *_writer_argv(tmp_path, flag, str(rewritten)))
    assert code == 0, err
    assert out == fresh_out
    assert rewritten.read_bytes() == expected


def test_out_to_dev_null_prints_the_whole_document(tmp_path, capsys):
    fresh = tmp_path / "p.json"
    assert main(["oracle-refute", "--n", "2", "--out", str(fresh)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "oracle-refute", "--n", "2", "--out", os.devnull)
    assert code == 0, err
    assert out == fresh.read_text(encoding="utf-8")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_to_a_named_pipe_is_not_trimmed(tmp_path, capsys):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    code, out, err = run(capsys, "oracle-refute", "--n", "2", "--out", str(pipe))
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert code == 0, err
    assert received == [out.encode()]


def test_a_directory_as_out_is_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "gen-bvp", "--n", "2", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "IsADirectoryError"


def test_a_write_cut_short_leaves_only_the_pieces_written(tmp_path, monkeypatch, capsys):
    whole_chunks = cli.proof_chunks
    written = []

    def three_pieces_then_fail(*args):
        for piece in whole_chunks(*args):
            if len(written) == 3:
                raise RuntimeError("write cut short")
            written.append(piece)
            yield piece

    out_file = tmp_path / "p.json"
    out_file.write_text("#" * 100_000, encoding="utf-8")
    monkeypatch.setattr(cli, "proof_chunks", three_pieces_then_fail)
    with pytest.raises(RuntimeError):
        main(["oracle-refute", "--n", "2", "--out", str(out_file)])
    assert len(written) == 3
    assert out_file.read_text(encoding="utf-8") == "".join(written)
    assert capsys.readouterr().out == "".join(written)


# -- audit and trace -------------------------------------------------------------


def test_audit_passes_on_the_oracle_constant(oracle_doc, capsys):
    code, out, _ = run(capsys, "audit", "--proof", oracle_doc, "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["all_divide"] is True
    assert report["constant"] == "2"


def test_audit_failing_divisibility_exits_one(oracle_doc, capsys):
    code, out, _ = run(capsys, "audit", "--proof", oracle_doc, "--n", "2")
    assert code == 1
    report = json.loads(out)
    assert report["all_divide"] is False


@pytest.mark.parametrize("n", [24, 10**8])
def test_audit_past_the_sieve_limit_is_a_sieve_guard(oracle_doc, n):
    # Refused before 2^n is computed or formatted.
    code, out, err = _run_quietly(["audit", "--proof", oracle_doc, "--n", str(n)])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "SieveGuard"
    assert f"n = {n} " in error["message"]


def test_audit_checks_the_proof_before_auditing(oracle_doc, tmp_path, capsys):
    doc = json.loads(Path(oracle_doc).read_text(encoding="utf-8"))
    doc["lines"][3]["poly"]["terms"][0]["coef"] = "7"
    bad = write_json(tmp_path / "bad.json", doc)
    code, out, _ = run(capsys, "audit", "--proof", bad, "--n", "1")
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_audit_of_a_fractional_constant_is_a_usage_error(tmp_path, capsys):
    # A valid Q proof may end in any nonzero constant; audit needs an integer.
    doc = write_json(
        tmp_path / "q.json", proof_to_obj(SystemKind.EXTPCSQRT_Q, *negative_root())
    )
    code, out, err = run(capsys, "audit", "--proof", doc, "--n", "1")
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "UsageError"
    assert error["message"] == "final constant 1/2 is not an integer"


def test_trace_all_zero_residues(oracle_doc, capsys):
    code, out, _ = run(capsys, "trace", "--proof", oracle_doc, "--n", "1", "--k", "1")
    assert code == 0
    report = json.loads(out)
    assert report["all_zero"] is True
    assert report["modulus"] == "2"


def _audit_and_trace(proof):
    return (["audit", "--proof", proof, "--n", "1"],
            ["trace", "--proof", proof, "--n", "1", "--k", "1"])


def test_accepted_audit_and_trace_never_measure(oracle_doc, monkeypatch, capsys):
    # Nothing reads the size of an accepted proof.
    expected = [run(capsys, *argv) for argv in _audit_and_trace(oracle_doc)]
    assert [code for code, _, _ in expected] == [0, 0]

    def never(*args):
        raise AssertionError("an accepted proof was measured")

    monkeypatch.setattr(proofcore, "measure", never)
    monkeypatch.setattr(cli, "measure", never)
    assert [run(capsys, *argv) for argv in _audit_and_trace(oracle_doc)] == expected


def test_rejected_audit_and_trace_print_the_check_report(oracle_doc, tmp_path, capsys):
    doc = json.loads(Path(oracle_doc).read_text(encoding="utf-8"))
    doc["lines"][3]["poly"]["terms"][0]["coef"] = "7"
    bad = write_json(tmp_path / "bad.json", doc)
    checked = run(capsys, "check", "--proof", bad)
    assert checked[0] == 1
    for argv in _audit_and_trace(bad):
        assert run(capsys, *argv) == checked


def test_trace_composite_modulus_is_a_precondition_failure(oracle_doc, capsys):
    code, _, err = run(capsys, "trace", "--proof", oracle_doc, "--n", "1", "--k", "0")
    assert code == 2
    assert json.loads(err)["error"] == "KPlusOneNotPrime"


def _never_called(*args):
    raise AssertionError("called before the base axioms were compared")


@pytest.mark.parametrize("n, k", [(40000, 1), (64, (1 << 61) - 2)])
def test_trace_compares_bases_before_work_in_n(oracle_doc, monkeypatch, n, k):
    # The document is the 1-bit instance; neither gen_bvp(n) nor trial
    # division of k + 1 (here up to the prime 2^61 - 1) may run first.
    monkeypatch.setattr(bvp, "is_prime", _never_called)
    monkeypatch.setattr(bvp, "gen_bvp", _never_called)
    argv = ["trace", "--proof", oracle_doc, "--n", str(n), "--k", str(k)]
    code, out, err = _run_quietly(argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "the base axioms are not the generated instance",
    }


def _with_unassigned_x9(axioms, lines, where):
    """The document with x9 in one line before the last, or in a new y1."""
    x9 = xvar(9)
    if where == "line":
        extra = proofcore.ProofLine(lines[0].poly.mul_var(x9), proofcore.MulVar(0, x9))
        return axioms, [*lines[:-1], extra, lines[-1]]
    extension = proofcore.ExtensionAxiom(yvar(1), poly_parse("x9"))
    return AxiomSet(axioms.base, (*axioms.extensions, extension)), lines


@pytest.mark.parametrize("where, named", [("line", "line 14"), ("extension", "extension y1")])
def test_trace_refuses_a_variable_the_point_does_not_assign(tmp_path, capsys, where, named):
    # check accepts both documents; trace has no value for x9 at the point.
    path = tmp_path / "o2.json"
    assert main(["oracle-refute", "--n", "2", "--out", str(path)]) == 0
    kind, axioms, lines = proof_from_obj(json.loads(path.read_text(encoding="utf-8")))
    edited = proof_to_obj(kind, *_with_unassigned_x9(axioms, lines, where))
    doc = write_json(tmp_path / "x9.json", edited)
    assert run(capsys, "check", "--proof", doc)[0] == 0
    code, out, err = run(capsys, "trace", "--proof", doc, "--n", "2", "--k", "1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "UnassignedVariable",
        "message": f"{named} mentions x9, which the trace point does not assign",
    }


def test_trace_shows_a_long_non_integral_extension_value_by_its_bits(tmp_path, capsys):
    # check accepts y1 := ((10^5000 + 1)/3) x1 over Q; at k = 1 (x1 = 1) its
    # value's numerator is past the int-str digit limit.
    path = tmp_path / "o2.json"
    assert main(["oracle-refute", "--n", "2", "--out", str(path)]) == 0
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["system"] = "extpcsqrt-q"
    numerator = 10**5000 + 1
    obj["axioms"]["extensions"] = [{
        "var": "y1",
        "def": {"terms": [{"coef": f"{int_to_str(numerator)}/3", "mono": {"x1": 1}}]},
    }]
    doc = write_json(tmp_path / "long.json", obj)
    assert run(capsys, "check", "--proof", doc)[0] == 0
    code, out, err = run(capsys, "trace", "--proof", doc, "--n", "2", "--k", "1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "NonIntegralExtensionValue",
        "message": "extension y1 evaluates to the non-integer "
        f"an integer of {numerator.bit_length()} bits/3",
    }


def test_check_refuses_a_variable_index_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "o2.json"
    assert run(capsys, "oracle-refute", "--n", "2", "--out", str(path))[0] == 0
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["lines"][1]["rule"]["var"] = "x" + "1" * 5000
    doc = write_json(tmp_path / "long.json", obj)
    code, out, err = run(capsys, "check", "--proof", doc)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "FormatError",
        "message": "variable name x followed by 5000 digits is too long",
    }


# -- measure ---------------------------------------------------------------------


def test_measure_algebraic_document(oracle_doc, capsys):
    code, out, _ = run(capsys, "measure", "--proof", oracle_doc)
    assert code == 0
    assert json.loads(out) == {"degree": 2, "line_count": 5, "total_size": 2}


def test_measure_clausal_document(reslin_doc, capsys):
    code, out, _ = run(capsys, "measure", "--proof", reslin_doc)
    assert code == 0
    assert json.loads(out) == {"line_count": 4, "size_binary": 0, "size_unary": 2}


def test_measure_writes_sizes_past_the_int_digit_limit(tmp_path, capsys):
    # One axiom line C x1 = 0 with C written out in 5000 digits.
    c = 77777
    axioms = [Disjunction.of(eq({xvar(1): c}, 0))]
    text = json.dumps(reslin_to_obj(axioms, run_rules(axioms, [RlAxiom(0)])))
    path = tmp_path / "big.json"
    path.write_text(text.replace(str(c), "9" * 5000), encoding="utf-8")
    code, out, err = run(capsys, "measure", "--proof", str(path))
    assert code == 0, err
    c = 10**5000 - 1
    size_binary = (c - 1).bit_length()  # ceil(log2 c)
    assert out == (
        f'{{"line_count":1,"size_binary":{size_binary},'
        f'"size_unary":{"9" * 5000}}}\n'
    )
    assert json.loads(out, parse_int=int_from_str)["size_unary"] == c


def test_clausal_chain_past_the_int_digit_limit(tmp_path, capsys):
    # C x1 = 1 with C = 10^5000 + 1, refuted through the boolean axiom with
    # beta = -C twice; every report the chain prints must still be JSON.
    c = 7777
    axioms = [Disjunction.of(eq({xvar(1): c}, 1))]
    rules = [
        RlAxiom(0),
        RlBooleanAxiom(xvar(1)),
        RlResolution(0, 1, 0, 0, 1, -c),
        RlResolution(0, 2, 0, 0, 1, -c),
        RlSimplification(3, 0),
        RlSimplification(4, 0),
    ]
    text = json.dumps(reslin_to_obj(axioms, run_rules(axioms, rules)))
    big = 10**5000
    text = text.replace(str(c), int_to_str(big + 1))
    text = text.replace(str(c - 1), int_to_str(big))  # the constant 1 - C
    rl = tmp_path / "rl.json"
    rl.write_text(text, encoding="utf-8")
    q, z = str(tmp_path / "q.json"), str(tmp_path / "z.json")
    commands = [
        ["check", "--proof", str(rl)],
        ["measure", "--proof", str(rl)],
        ["translate", "--reslin", str(rl), "--out", q],
        ["check", "--proof", q],
        ["rationalize", "--proof", q, "--out", z],
        ["check", "--proof", z],
        ["measure", "--proof", z],
    ]
    outs = []
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        outs.append(json.loads(out, parse_int=int_from_str))
    assert outs[1]["size_unary"] == big + 4  # C, then 1 + 1 + 1 after it
    assert outs[5]["valid"] is True


CHAIN_INPUTS = [("rests_of_one_degree", *rests_of_one_degree())] + refutation_corpus()


@pytest.mark.parametrize(
    "axioms, lines", [item[1:] for item in CHAIN_INPUTS],
    ids=[item[0] for item in CHAIN_INPUTS],
)
def test_clausal_refutations_pass_the_whole_chain(axioms, lines, tmp_path, capsys):
    rl = write_json(tmp_path / "rl.json", reslin_to_obj(axioms, lines))
    q, z = str(tmp_path / "q.json"), str(tmp_path / "z.json")
    commands = [
        ["translate", "--reslin", rl, "--out", q],
        ["check", "--proof", q],
        ["rationalize", "--proof", q, "--out", z],
        ["check", "--proof", z],
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if argv[0] == "check":
            assert json.loads(out)["valid"] is True, argv


# -- failure plumbing ------------------------------------------------------------


def test_missing_file_is_exit_two(capsys):
    code, out, err = run(capsys, "check", "--proof", "/nonexistent/nope.json")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_malformed_json_is_exit_two(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", "--proof", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "JSONDecodeError"


def test_unknown_flag_is_exit_two(capsys):
    code, _, err = run(capsys, "primes", "--bogus", "1")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_missing_command_is_exit_two(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_out_of_memory_is_exit_two(monkeypatch, capsys):
    def exhausted(below):
        raise MemoryError

    monkeypatch.setattr(cli, "primes_below", exhausted)
    code, out, err = run(capsys, "primes", "--below", "16")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "MemoryError"


@pytest.mark.parametrize("fixture", ["oracle_doc", "reslin_doc"])
def test_index_past_the_int_digit_limit_is_bad_index(fixture, request, capsys):
    path = Path(request.getfixturevalue(fixture))
    capsys.readouterr()
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["lines"][0]["rule"]["index"] = 777777
    path.write_text(json.dumps(obj).replace("777777", "9" * 5000), encoding="utf-8")
    code, out, err = run(capsys, "check", "--proof", str(path))
    assert code == 1, err
    error = json.loads(out)["error"]
    assert (error["code"], error["line"]) == ("BadIndex", 0)
    assert error["message"] == f"axiom index {'9' * 5000} out of range"


def test_cost_guard_stops_oversized_oracle_runs(capsys):
    code, _, err = run(capsys, "oracle-refute", "--n", str(bvp.COST_LIMIT + 1))
    assert code == 2
    assert json.loads(err)["error"] == "CostGuard"


# -- hostile documents ----------------------------------------------------------

# What one edit may write: numerals, variable names, rule types, indices and
# values of the wrong JSON type.
HOSTILE_VALUES = [
    "0", "2", "-1", "1/2", "-3/4", "01", "1/0", "", " 1", "9" * 5000,
    "x1", "x2", "x9", "y1", "y9", "z1", "x1\n",
    "axiom", "mulvar", "lincomb", "sqrt", "resolution", "boolean", "weakening",
    0, 1, 2, -1, 3, 10**6, True, 1.5, None, [], {},
]


def _edit_sites(obj, path=()):
    """(path, key) of every dict entry and list item in a JSON tree."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _edit_sites(value, path + (key,))


@pytest.fixture(scope="module")
def valid_n2_docs(tmp_path_factory):
    chain = simulate_reslin_b(*bvp_splitting(2))
    docs = {
        "oracle": proof_to_obj(SystemKind.PCSQRT_Z, *brute_force_refutation(2)),
        "q": proof_to_obj(SystemKind.EXTPCSQRT_Q, chain.axioms, chain.proof),
        "clausal": reslin_to_obj(*bvp_splitting(2)),
    }
    return docs, tmp_path_factory.mktemp("hostile")


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", ["oracle", "q", "clausal"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_edit_to_a_valid_document_never_raises(valid_n2_docs, kind, data):
    docs, work = valid_n2_docs
    doc = json.loads(json.dumps(docs[kind]))
    path, key = data.draw(st.sampled_from(list(_edit_sites(doc))), label="site")
    container = doc
    for step in path:
        container = container[step]
    value = data.draw(st.sampled_from(HOSTILE_VALUES), label="value")
    edit = data.draw(st.sampled_from(["replace", "rename", "drop"]), label="edit")
    if edit == "rename" and isinstance(container, dict) and isinstance(value, str):
        container[value] = container.pop(key)
    elif edit == "drop":
        del container[key]
    else:
        container[key] = value
    proof = write_json(work / f"{kind}.json", doc)
    commands = (
        ["check"],
        ["measure"],
        ["audit", "--n", "2"],
        ["trace", "--n", "2", "--k", "2"],
        ["rationalize", "--out", str(work / "z.json")],
    )
    for command in commands:
        code, out, err = _run_quietly(command + ["--proof", proof])
        if err:
            # exit 1 with an error is rationalize refusing an invalid input.
            assert code in (1, 2) and out == "", (command, code)
            assert set(json.loads(err)) == {"error", "message"}, command
        else:
            assert code in (0, 1), (command, code)
            json.loads(out, parse_int=int_from_str)


# -- the paused collector --------------------------------------------------------


def _pipeline(work):
    """(argv, exit code) of every subcommand and of the exit-1 and exit-2 paths."""
    clausal = write_json(work / "clausal.json", reslin_to_obj(*bvp_splitting(2)))
    oracle, q, z = (str(work / name) for name in ("oracle.json", "q.json", "z.json"))
    malformed = write_json(work / "malformed.json", {"system": "pcsqrt-z"})
    return [
        (["gen-bvp", "--n", "2", "--out", str(work / "instance.json")], 0),
        (["oracle-refute", "--n", "2", "--out", oracle], 0),
        (["check", "--proof", oracle], 0),
        (["check", "--proof", clausal], 0),
        (["translate", "--reslin", clausal, "--out", q], 0),
        (["check", "--proof", q], 0),
        (["rationalize", "--proof", q, "--out", z, "--state", str(work / "s.json")], 0),
        (["check", "--proof", z], 0),
        (["audit", "--proof", z, "--n", "2"], 0),
        (["trace", "--proof", oracle, "--n", "2", "--k", "2"], 0),
        (["measure", "--proof", q], 0),
        (["measure", "--proof", clausal], 0),
        (["primes", "--below", "30"], 0),
        (["audit", "--proof", oracle, "--n", "3"], 1),
        (["check", "--proof", malformed], 2),
        (["trace", "--proof", oracle, "--n", "2"], 2),
        (["rationalize", "--proof", q, "--out", str(work / "zf.json"),
          "--faithful-constants"], 2),
    ]


def test_commands_leave_no_cyclic_garbage(tmp_path):
    # main pauses the collector, which is sound only while commands leave
    # nothing in reference cycles: reference counting must free it all.
    _run_quietly(["primes", "--below", "8"])  # first use builds the parser
    steps = _pipeline(tmp_path)
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        for argv, expected in steps:
            code, _, err = _run_quietly(argv)
            assert code == expected, (argv, err)
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                found = gc.collect()
                leaked = Counter(type(obj).__name__ for obj in gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.collect()
            assert found == 0, (argv, leaked.most_common(10))
    finally:
        if was_enabled:
            gc.enable()


def _raise_inside_handler(args):
    raise RuntimeError("handler failed")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(oracle_doc, monkeypatch, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, expected in [
            (["primes", "--below", "8"], 0),
            (["audit", "--proof", oracle_doc, "--n", "2"], 1),
            (["check", "--proof", "/nonexistent/nope.json"], 2),
            (["primes", "--bogus", "1"], 2),
        ]:
            assert _run_quietly(argv)[0] == expected
            assert gc.isenabled() is enabled, argv
        monkeypatch.setattr(cli, "_cmd_primes", _raise_inside_handler)
        with pytest.raises(RuntimeError):
            _run_quietly(["primes", "--below", "8"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "command", ["check", "measure", "audit", "trace", "rationalize", "translate"]
)
def test_deeply_nested_json_is_a_format_error(tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    deep, out = str(deep), str(tmp_path / "out.json")
    flags = {
        "check": ["--proof", deep],
        "measure": ["--proof", deep],
        "audit": ["--proof", deep, "--n", "2"],
        "trace": ["--proof", deep, "--n", "2", "--k", "2"],
        "rationalize": ["--proof", deep, "--out", out],
        "translate": ["--reslin", deep, "--out", out],
    }[command]
    code, out, err = _run_quietly([command, *flags])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "FormatError"


# -- decoding consumes the document -----------------------------------------------


def _q_document(path, n):
    """Write the Q proof translated from the n-bit splitting refutation.

    Nothing of the translation stays alive, so no monomial of the document
    is interned before a command decodes it.
    """
    output = simulate_reslin_b(*bvp_splitting(n))
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(
            proof_chunks(SystemKind.EXTPCSQRT_Q, output.axioms, output.proof)
        )
    return str(path)


def test_decoding_releases_each_line(tmp_path):
    q_text = Path(_q_document(tmp_path / "q.json", 3)).read_text(encoding="utf-8")
    q_doc = json.loads(q_text, parse_int=int_from_str)
    kind, axioms, lines = proof_from_obj(q_doc)
    assert q_doc["lines"] == [None] * len(lines)
    assert "".join(proof_chunks(kind, axioms, lines)) == q_text

    clausal = reslin_to_obj(*bvp_splitting(3))
    clausal_doc = json.loads(json.dumps(clausal))
    rl_axioms, rl_lines = reslin_from_obj(clausal_doc)
    assert clausal_doc["lines"] == [None] * len(rl_lines)
    assert reslin_to_obj(rl_axioms, rl_lines) == clausal


def _traced_peak(call):
    """(peak bytes traced while call() runs, its result)."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "argv, expected",
    [(["check"], 0), (["measure"], 0), (["audit", "--n", "3"], 1)],
    ids=["check", "measure", "audit"],
)
def test_commands_never_hold_the_tree_and_the_proof(tmp_path, argv, expected):
    # Each line's JSON is freed as it is decoded, so a command peaks where
    # json.load does.  Holding the whole tree beside the decoded proof
    # peaked at 1.49-1.57 times that.
    q = _q_document(tmp_path / "q.json", 5)
    argv = [*argv, "--proof", q]
    assert _run_quietly(argv)[0] == expected  # first use builds the parser
    load_peak, _ = _traced_peak(lambda: cli._load_json(q))
    command_peak, (code, _, _) = _traced_peak(lambda: _run_quietly(argv))
    assert code == expected
    assert command_peak <= 1.25 * load_peak, command_peak / load_peak


# -- canonical round-trips -------------------------------------------------------


def test_emitted_artifacts_reserialize_byte_identically(oracle_doc, capsys):
    proof_text = Path(oracle_doc).read_text(encoding="utf-8")
    kind, axioms, lines = proof_from_obj(json.loads(proof_text))
    assert canonical_json(proof_to_obj(kind, axioms, lines)) == proof_text

    _, out, _ = run(capsys, "check", "--proof", oracle_doc)
    from polycal.proofcore import report_to_obj

    assert canonical_json(report_to_obj(report_from_obj(json.loads(out)))) == out

    _, out, _ = run(capsys, "audit", "--proof", oracle_doc, "--n", "1")
    from polycal.bvp import audit_report_to_obj

    assert canonical_json(audit_report_to_obj(audit_report_from_obj(json.loads(out)))) == out

    _, out, _ = run(capsys, "trace", "--proof", oracle_doc, "--n", "1", "--k", "1")
    from polycal.bvp import trace_report_to_obj

    assert canonical_json(trace_report_to_obj(trace_report_from_obj(json.loads(out)))) == out


# -- entry points in a child process ---------------------------------------------


def write_console_script(directory, name):
    """Write the launcher pip would install for [project.scripts] `name`."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, function = pyproject["project"]["scripts"][name].split(":")
    launcher = directory / name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {function}\n"
        f"sys.exit({function}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)


def test_console_script_runs(tmp_path):
    write_console_script(tmp_path, "polycal")
    env = child_env()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    result = subprocess.run(
        ["polycal", "primes", "--below", "8"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == '{"primes":[2,3,5,7],"primorial_bits":8}\n'


def test_module_invocation_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "polycal", "primes", "--below", "8"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout == '{"primes":[2,3,5,7],"primorial_bits":8}\n'


# Each command's exit code and stdout, as one JSON list; run in one child.
SEED_RUN = """
import contextlib, io, json, sys
from polycal.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
print(json.dumps(runs))
"""
SEED_COMMANDS = [
    ["translate", "--reslin", "rl.json", "--out", "q.json"],
    ["check", "--proof", "q.json"],
    ["rationalize", "--proof", "q.json", "--out", "z.json", "--state", "state.json"],
    ["check", "--proof", "z.json"],
    ["audit", "--proof", "z.json", "--n", "3"],
    ["oracle-refute", "--n", "3", "--out", "o.json"],
    ["trace", "--proof", "o.json", "--n", "3", "--k", "2"],
    ["check", "--proof", "bad.json"],
]


def test_cli_bytes_do_not_depend_on_the_hash_seed(oracle_doc, tmp_path):
    # Strings and variables hash by PYTHONHASHSEED, and monomials by their
    # address, so set order changes from run to run; no stdout or written
    # byte may.  The mutated line differs from its rule's result at several
    # monomials, so the report names the first of a set.
    bad = json.loads(Path(oracle_doc).read_text(encoding="utf-8"))
    terms = bad["lines"][3]["poly"]["terms"]
    terms[0]["coef"] = "7"
    del terms[-1]
    inputs = {
        "rl.json": json.dumps(reslin_to_obj(*bvp_splitting(3))),
        "bad.json": json.dumps(bad),
    }
    seen = []
    for seed in ("0", "1"):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        for name, text in inputs.items():
            (work / name).write_text(text, encoding="utf-8")
        env = child_env()
        env["PYTHONHASHSEED"] = seed
        result = subprocess.run(
            [sys.executable, "-c", SEED_RUN, json.dumps(SEED_COMMANDS)],
            capture_output=True, text=True, cwd=work, env=env,
        )
        assert result.returncode == 0, result.stderr
        files = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
        seen.append((result.stdout, files))
    runs = json.loads(seen[0][0])
    assert [code for code, _ in runs] == [0, 0, 0, 0, 0, 0, 0, 1]
    assert "first differing monomial" in json.loads(runs[-1][1])["error"]["message"]
    assert seen[0] == seen[1]


# Translates rl.json to q.json after allocating sys.argv[1] objects, which
# moves the addresses every later object gets.
TRANSLATE_RUN = """
import sys
from polycal.cli import main
padding = [object() for _ in range(int(sys.argv[1]))]
sys.exit(main(["translate", "--reslin", "rl.json", "--out", "q.json"]))
"""


def test_translate_bytes_do_not_depend_on_hashes(tmp_path):
    # Monomials hash by identity, so a set of them iterates in an order set
    # by addresses; the graded order alone must decide every byte written.
    text = json.dumps(reslin_to_obj(*bvp_splitting(5)))
    seen = []
    for seed, padding in (("0", "0"), ("1", "1001")):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        (work / "rl.json").write_text(text, encoding="utf-8")
        env = child_env()
        env["PYTHONHASHSEED"] = seed
        result = subprocess.run(
            [sys.executable, "-c", TRANSLATE_RUN, padding],
            capture_output=True, text=True, cwd=work, env=env,
        )
        assert result.returncode == 0, result.stderr
        seen.append((result.stdout, (work / "q.json").read_bytes()))
    assert seen[0] == seen[1]
