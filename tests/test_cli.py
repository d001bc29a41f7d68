"""End-to-end coverage of the command line interface.

Most tests call main() in-process and inspect captured stdout, stderr, and
the returned exit code.  Two subprocess tests run the package from the
checkout without installing it: `python -m polycal`, and a `polycal`
launcher built from the console script that pyproject.toml declares in
[project.scripts].  File fixtures are built per test in tmp_path from the
shared refutation corpora.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from conftest import ROOT, child_env

from polycal.bvp import audit_report_from_obj, trace_report_from_obj
from polycal.cli import canonical_json, main
from polycal.proofcore import (
    SystemKind,
    check_refutation,
    proof_from_obj,
    proof_to_obj,
    report_from_obj,
)
from polycal.polyring import EXPONENT_LIMIT, int_from_str, xvar
from polycal.reslin import (
    Disjunction,
    RlAxiom,
    RlResolution,
    RlSimplification,
    reslin_to_obj,
)

from q_corpus import negative_root, nested_extensions
from reslin_corpus import bvp_splitting, eq, run as run_rules, zero_one


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


def test_gen_bvp_rejects_nonpositive_width(capsys):
    code, out, err = run(capsys, "gen-bvp", "--n", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


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
    doc = json.loads(open(oracle_doc, encoding="utf-8").read())
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


def test_check_refuses_a_variable_name_with_a_trailing_newline(tmp_path, capsys):
    obj = reslin_to_obj(*zero_one())
    obj["axioms"][0] = [{"coeffs": {"x1": 1, "x1\n": 2}, "const": 0}]
    code, out, err = run(capsys, "check", "--proof", write_json(tmp_path / "nl.json", obj))
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
    assert summary["line_map"] == [0, 1, 8, 10]
    assert summary["line_count"] == 11
    kind, axioms, lines = proof_from_obj(json.loads(out_file.read_text()))
    assert kind is SystemKind.EXTPCSQRT_Q
    assert check_refutation(axioms, lines, kind).valid


def test_translate_split_files_match_bundled_document(reslin_doc, tmp_path, capsys):
    doc = json.loads(open(reslin_doc, encoding="utf-8").read())
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


def test_rationalize_faithful_flag_changes_the_factor(tmp_path, capsys):
    doc = make_rational_doc(tmp_path)
    code, out, _ = run(
        capsys,
        "rationalize",
        "--proof",
        doc,
        "--out",
        str(tmp_path / "z.json"),
        "--faithful-constants",
    )
    assert code == 0
    assert json.loads(out)["F_final"] == "32"


def test_rationalize_state_past_the_int_digit_limit(tmp_path, capsys):
    # At n = 4 some line clearers L run past 4300 decimal digits.
    rl = write_json(tmp_path / "rl.json", reslin_to_obj(*bvp_splitting(4)))
    q, z, state = (str(tmp_path / name) for name in ("q.json", "z.json", "s.json"))
    assert main(["translate", "--reslin", rl, "--out", q]) == 0
    capsys.readouterr()
    code, out, err = run(
        capsys, "rationalize", "--proof", q, "--out", z, "--state", state
    )
    assert code == 0, err
    state_obj = json.loads(out)
    assert max(len(clearer) for clearer in state_obj["L"]) > 4300
    # The Q proof ends in 1, so F is the whole Z constant: (2^4)!.
    constant = str(math.factorial(16))
    assert state_obj["F_final"] == state_obj["final_constant"] == constant
    code, out, err = run(capsys, "check", "--proof", z)
    assert code == 0, err
    assert json.loads(out)["final_constant"] == constant


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


def test_audit_checks_the_proof_before_auditing(oracle_doc, tmp_path, capsys):
    doc = json.loads(open(oracle_doc, encoding="utf-8").read())
    doc["lines"][3]["poly"]["terms"][0]["coef"] = "7"
    bad = write_json(tmp_path / "bad.json", doc)
    code, out, _ = run(capsys, "audit", "--proof", bad, "--n", "1")
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_trace_all_zero_residues(oracle_doc, capsys):
    code, out, _ = run(capsys, "trace", "--proof", oracle_doc, "--n", "1", "--k", "1")
    assert code == 0
    report = json.loads(out)
    assert report["all_zero"] is True
    assert report["modulus"] == "2"


def test_trace_composite_modulus_is_a_precondition_failure(oracle_doc, capsys):
    code, _, err = run(capsys, "trace", "--proof", oracle_doc, "--n", "1", "--k", "0")
    assert code == 2
    assert json.loads(err)["error"] == "KPlusOneNotPrime"


# -- measure ---------------------------------------------------------------------


def test_measure_algebraic_document(oracle_doc, capsys):
    code, out, _ = run(capsys, "measure", "--proof", oracle_doc)
    assert code == 0
    assert json.loads(out) == {"degree": 2, "line_count": 6, "total_size": 3}


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


def test_cost_guard_stops_oversized_oracle_runs(capsys):
    code, _, err = run(capsys, "oracle-refute", "--n", "9")
    assert code == 2
    assert json.loads(err)["error"] == "CostGuard"


# -- canonical round-trips -------------------------------------------------------


def test_emitted_artifacts_reserialize_byte_identically(oracle_doc, capsys):
    proof_text = open(oracle_doc, encoding="utf-8").read()
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
