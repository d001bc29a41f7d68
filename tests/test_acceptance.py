"""Acceptance gate: eight criteria, one verdict line each.

Every test prints and records a single line naming its criterion, the
measured quantities against their pinned budgets, and pass or FAIL.  The
budgets are part of the contract: exact integer equality for constants and
counts, wall-clock ceilings where stated, and zero tolerated failures in
the randomized suite.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import child_env, record_criterion

from polycal.bvp import (
    audit_divisibility,
    audit_report_from_obj,
    audit_report_to_obj,
    brute_force_refutation,
    instance_from_obj,
    instance_to_obj,
    is_prime,
    factorial_bits,
    primorial_bits,
    trace_mod_check,
    trace_report_from_obj,
    trace_report_to_obj,
)
from polycal.cli import canonical_json
from polycal.polyring import Polynomial, poly_parse, xvar, yvar
from polycal.proofcore import (
    Axiom,
    AxiomSet,
    ExtensionAxiom,
    LinComb,
    MulVar,
    ProofBuilder,
    ProofLine,
    Sqrt,
    SystemKind,
    check_refutation,
    check_step,
    proof_from_obj,
    proof_to_obj,
    report_from_obj,
    report_to_obj,
)
from polycal.reslin import (
    Disjunction,
    LinEq,
    RlAxiom,
    RlContraction,
    RlResolution,
    RlSimplification,
    RlLine,
    check_reslin,
    size_binary,
)
from polycal.xlate import rationalize, simulate_reslin_b, verify_lift

from q_corpus import rational_corpus
from reslin_corpus import refutation_corpus


@contextmanager
def criterion(label):
    info = {"detail": ""}
    try:
        yield info
    except BaseException as exc:
        line = f"{label}: FAIL -- {exc}"
        print(line)
        record_criterion(line)
        raise
    line = f"{label}: pass -- {info['detail']}"
    print(line)
    record_criterion(line)


_ORACLES: dict[int, tuple[AxiomSet, list[ProofLine]]] = {}


def oracle(n):
    if n not in _ORACLES:
        _ORACLES[n] = brute_force_refutation(n)
    return _ORACLES[n]


def test_a1_oracle_refutations_constants_and_audits():
    expected = {1: 2, 2: 24, 3: 40320, 4: 20922789888000}
    with criterion("A1 oracle refutations, exact constants, audits") as c:
        start = time.monotonic()
        for n, constant in expected.items():
            axioms, proof = oracle(n)
            report = check_refutation(axioms, proof, SystemKind.PCSQRT_Z)
            assert report.valid, f"n={n}: {report.error}"
            assert report.final_constant == constant, f"n={n}"
            assert audit_divisibility(constant, n).all_divide, f"n={n}"
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"{elapsed:.2f}s over the 10s budget"
        c["detail"] = (
            f"n in 1..4 valid with finals (2, 24, 40320, 20922789888000), "
            f"every prime <= 2^n divides, {elapsed:.2f}s < 10s"
        )


def test_a2_residue_traces_vanish_at_prime_points():
    with criterion("A2 residue traces vanish at every prime point") as c:
        start = time.monotonic()
        points = 0
        for n in (1, 2, 3):
            axioms, proof = oracle(n)
            for k in range(1 << n):
                if is_prime(k + 1):
                    trace = trace_mod_check(axioms, proof, n, k)
                    assert trace.all_zero, f"n={n}, k={k}"
                    points += 1
        elapsed = time.monotonic() - start
        assert points == 7
        assert elapsed < 5.0, f"{elapsed:.2f}s over the 5s budget"
        c["detail"] = f"all 7 prime points across n in 1..3 vanish, {elapsed:.2f}s < 5s"


def test_a3_bit_length_growth():
    with criterion("A3 constant and primorial bit-length growth") as c:
        start = time.monotonic()
        for n in (2, 3, 4):
            bits = factorial_bits(1 << n)
            assert bits >= 1 << n, f"factorial bits at n={n}: {bits}"
        for n in range(3, 17):
            bits = primorial_bits(1 << n)
            assert bits >= 1 << (n - 1), f"primorial bits at n={n}: {bits}"
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"{elapsed:.2f}s over the 2s budget"
        c["detail"] = (
            f"factorial bits clear 2^n for n in 2..4 and primorial bits "
            f"clear 2^(n-1) for n in 3..16, {elapsed:.2f}s < 2s"
        )


def test_a4_clausal_simulation():
    with criterion("A4 clausal refutations simulate into checked proofs") as c:
        start = time.monotonic()
        corpus = refutation_corpus()
        assert len(corpus) >= 5
        for name, axioms, lines in corpus:
            assert check_reslin(axioms, lines).valid, name
            out = simulate_reslin_b(axioms, lines)
            report = check_refutation(
                out.axioms, list(out.proof), SystemKind.EXTPCSQRT_Q
            )
            assert report.valid, f"{name}: {report.error}"
            sqrt_lines = {
                i for i, pl in enumerate(out.proof) if isinstance(pl.rule, Sqrt)
            }
            contraction_targets = {
                out.line_map[j]
                for j, rl in enumerate(lines)
                if isinstance(rl.rule, RlContraction)
            }
            assert sqrt_lines == contraction_targets, name
            budget = (
                50
                * (size_binary(lines) + len(lines) + len(out.axioms.extensions)) ** 3
            )
            assert report.total_size <= budget, name
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"{elapsed:.2f}s over the 5s budget"
        c["detail"] = (
            f"{len(corpus)} refutations check, square roots come exactly "
            f"from contractions, sizes within 50(B+l+t)^3, {elapsed:.2f}s < 5s"
        )


def test_a5_rationalization():
    with criterion("A5 rational refutations lift to the integers") as c:
        start = time.monotonic()
        corpus = rational_corpus()
        fully_featured = 0
        for name, axioms, proof in corpus:
            q_report = check_refutation(axioms, proof, SystemKind.EXTPCSQRT_Q)
            assert q_report.valid, name
            has_sqrt = any(isinstance(pl.rule, Sqrt) for pl in proof)
            has_rational_defs = bool(axioms.extensions) and any(
                not ext.definition.is_integral() for ext in axioms.extensions
            )
            if has_sqrt and has_rational_defs:
                fully_featured += 1
            result = rationalize(axioms, proof)
            z_report = check_refutation(
                result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z
            )
            assert z_report.valid, f"{name}: {z_report.error}"
            verify_lift(axioms, proof, result)
            ratio = Fraction(z_report.final_constant) / Fraction(
                q_report.final_constant
            )
            assert ratio.denominator == 1 and ratio > 0, name
            t = len(proof)
            assert len(result.proof) <= 2 * t**2 + t, name
        elapsed = time.monotonic() - start
        assert fully_featured >= 5, f"only {fully_featured} members carry all features"
        assert elapsed < 10.0, f"{elapsed:.2f}s over the 10s budget"
        c["detail"] = (
            f"{len(corpus)} refutations lift ({fully_featured} with rational "
            f"definitions and a square root), integral ratios, integer proofs "
            f"within 2t^2+t, {elapsed:.2f}s < 10s"
        )


def _random_monomial_sum(rng, variables, terms):
    poly = Polynomial.constant(0)
    for _ in range(terms):
        term = Polynomial.constant(rng.randint(-4, 4))
        for _ in range(rng.randint(0, 2)):
            term = term.mul_var(rng.choice(variables))
        poly = poly.add(term)
    return poly


def test_a6_random_derivations_vanish_mod_p():
    with criterion("A6 randomized derivations vanish at modular points") as c:
        rng = random.Random(20260816)
        lines_checked = 0
        for trial in range(100):
            p = rng.choice((2, 3, 5, 7))
            variables = [xvar(i + 1) for i in range(rng.randint(1, 3))]
            point = {v: rng.randrange(p) for v in variables}

            def vanishing_axiom():
                q = _random_monomial_sum(rng, variables, rng.randint(1, 3))
                q = q.sub(Polynomial.constant(q.evaluate(point)))
                return q.add(Polynomial.constant(p * rng.randint(-2, 2)))

            root = _random_monomial_sum(rng, variables, 2)
            root = root.sub(Polynomial.constant(root.evaluate(point) % p))
            base = (vanishing_axiom(), vanishing_axiom(), root.square())
            axioms = AxiomSet(base=base)
            builder = ProofBuilder(axioms, SystemKind.PCSQRT_Z)
            builder.axiom_line(0)
            builder.axiom_line(1)
            builder.sqrt_of(builder.axiom_line(2), root)
            for _ in range(8):
                if rng.random() < 0.5:
                    j = rng.randrange(len(builder.lines))
                    k = rng.randrange(len(builder.lines))
                    builder.lincomb(j, k, rng.randint(-3, 3), rng.randint(-3, 3))
                else:
                    k = rng.randrange(len(builder.lines))
                    builder.mul_var(k, rng.choice(variables))
            proof = builder.lines
            for i, line in enumerate(proof):
                assert (
                    check_step(proof[:i], line, axioms, SystemKind.PCSQRT_Z) is None
                ), f"trial {trial} line {i}"
                assert line.poly.evaluate(point) % p == 0, f"trial {trial} line {i}"
                lines_checked += 1
        c["detail"] = (
            f"100 derivations, {lines_checked} lines all vanish mod their "
            f"prime, zero failures"
        )


def _algebraic_negative_cases():
    x1 = xvar(1)
    px = poly_parse
    boolean = px("x1^2 - x1")
    zero = boolean.sub(boolean)
    return [
        (
            "BadIndex",
            SystemKind.PCSQRT_Z,
            AxiomSet(base=(boolean,)),
            [ProofLine(px("x1"), Axiom(5))],
            0,
        ),
        (
            "AxiomNotInSet",
            SystemKind.PCSQRT_Z,
            AxiomSet(base=(boolean,)),
            [ProofLine(px("x1"), Axiom(0))],
            0,
        ),
        (
            "RuleMismatch",
            SystemKind.PCSQRT_Z,
            AxiomSet(base=(boolean,)),
            [
                ProofLine(boolean, Axiom(0)),
                ProofLine(px("x1"), LinComb(0, 0, 1, 0)),
            ],
            1,
        ),
        (
            "SqrtMismatch",
            SystemKind.PCSQRT_Q,
            AxiomSet(base=(boolean,)),
            [ProofLine(boolean, Axiom(0)), ProofLine(px("x1"), Sqrt(0))],
            1,
        ),
        (
            "SqrtForbidden",
            SystemKind.PC_Q,
            AxiomSet(base=(boolean,)),
            [ProofLine(boolean, Axiom(0)), ProofLine(px("x1"), Sqrt(0))],
            1,
        ),
        (
            "NonIntegerScalar",
            SystemKind.PCSQRT_Z,
            AxiomSet(base=(px("2*x1 - 4"),)),
            [
                ProofLine(px("2*x1 - 4"), Axiom(0)),
                ProofLine(px("x1 - 2"), LinComb(0, 0, Fraction(1, 2), 0)),
            ],
            1,
        ),
        (
            "NonIntegerCoefficient",
            SystemKind.PCSQRT_Z,
            AxiomSet(base=(boolean,)),
            [
                ProofLine(boolean, Axiom(0)),
                ProofLine(px("1/2*x1"), MulVar(0, x1)),
            ],
            1,
        ),
        (
            "ExtensionOrderViolation",
            SystemKind.EXTPCSQRT_Q,
            AxiomSet(
                base=(boolean,),
                extensions=(
                    ExtensionAxiom(yvar(2), px("x1")),
                    ExtensionAxiom(yvar(1), px("x1")),
                ),
            ),
            [ProofLine(boolean, Axiom(0))],
            -1,
        ),
        (
            "ExtensionNotAffine",
            SystemKind.SPS_PC_Q,
            AxiomSet(
                base=(boolean,),
                extensions=(ExtensionAxiom(yvar(1), px("x1^2")),),
            ),
            [ProofLine(boolean, Axiom(0))],
            -1,
        ),
        (
            "ExtensionForbidden",
            SystemKind.PC_Q,
            AxiomSet(
                base=(boolean,),
                extensions=(ExtensionAxiom(yvar(1), px("x1")),),
            ),
            [ProofLine(boolean, Axiom(0))],
            -1,
        ),
        (
            "FinalNotConstant",
            SystemKind.PCSQRT_Z,
            AxiomSet(base=(boolean,)),
            [ProofLine(boolean, Axiom(0))],
            0,
        ),
        (
            "FinalZero",
            SystemKind.PCSQRT_Z,
            AxiomSet(base=(boolean,)),
            [
                ProofLine(boolean, Axiom(0)),
                ProofLine(zero, LinComb(0, 0, 1, -1)),
            ],
            1,
        ),
        (
            "FinalNotOne",
            SystemKind.PC_Q,
            AxiomSet(base=(px("2"),)),
            [ProofLine(px("2"), Axiom(0))],
            0,
        ),
    ]


def _clausal_negative_cases():
    x1 = xvar(1)
    zero_eq = LinEq.of({x1: 1}, 0)
    one_eq = LinEq.of({x1: 1}, 1)
    ax_zero = Disjunction.of(zero_eq)
    ax_one = Disjunction.of(one_eq)
    ax_trivial = Disjunction.of(LinEq.of({}, 0))
    ax_pair = Disjunction.of(zero_eq, one_eq)
    axioms = [ax_zero, ax_one, ax_trivial, ax_pair]
    return axioms, [
        ("BadIndex", [RlLine(ax_zero, RlAxiom(7))], 0),
        ("RuleMismatch", [RlLine(ax_one, RlAxiom(0))], 0),
        (
            "BadPosition",
            [
                RlLine(ax_zero, RlAxiom(0)),
                RlLine(Disjunction.empty(), RlSimplification(0, 5)),
            ],
            1,
        ),
        (
            "SimplificationOnZero",
            [
                RlLine(ax_trivial, RlAxiom(2)),
                RlLine(Disjunction.empty(), RlSimplification(0, 0)),
            ],
            1,
        ),
        (
            "ContractionUnequal",
            [
                RlLine(ax_pair, RlAxiom(3)),
                RlLine(ax_zero, RlContraction(0, 0, 1)),
            ],
            1,
        ),
        (
            "NonIntegerScalar",
            [
                RlLine(ax_zero, RlAxiom(0)),
                RlLine(ax_one, RlAxiom(1)),
                RlLine(
                    Disjunction.of(LinEq.of({x1: 1}, 0)),
                    RlResolution(0, 1, 0, 0, Fraction(1, 2), 1),
                ),
            ],
            2,
        ),
    ]


def test_a7_every_error_code_fires_at_its_line():
    with criterion("A7 every checker error code fires at its line") as c:
        algebraic = _algebraic_negative_cases()
        for code, kind, axioms, lines, at_line in algebraic:
            report = check_refutation(axioms, lines, kind)
            assert not report.valid, code
            assert report.error.code == code, f"{code}: got {report.error.code}"
            assert report.error.line == at_line, f"{code}: line {report.error.line}"

        clausal_axioms, clausal = _clausal_negative_cases()
        for code, lines, at_line in clausal:
            report = check_reslin(clausal_axioms, lines)
            assert not report.valid, code
            assert report.error.code == code, f"{code}: got {report.error.code}"
            assert report.error.line == at_line, f"{code}: line {report.error.line}"

        square = poly_parse("x1^2")
        sqrt_axioms = AxiomSet(base=(square,))
        prefix = [ProofLine(square, Axiom(0))]
        for signed in (poly_parse("x1"), poly_parse("-x1")):
            err = check_step(
                prefix, ProofLine(signed, Sqrt(0)), sqrt_axioms, SystemKind.PCSQRT_Z
            )
            assert err is None, f"rejected root {signed}"
        c["detail"] = (
            f"{len(algebraic)} algebraic and {len(clausal)} clausal codes "
            f"each at the pinned line, both signs of a root accepted, "
            f"quadratic definition rejected under the product system"
        )


def test_a8_cli_pipeline_round_trips(tmp_path):
    with criterion("A8 command pipeline and byte-stable artifacts") as c:
        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "polycal", *argv],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=child_env(),
            )

        inst, proof = tmp_path / "instance.json", tmp_path / "proof.json"
        assert cli("gen-bvp", "--n", "3", "--out", str(inst)).returncode == 0
        assert cli("oracle-refute", "--n", "3", "--out", str(proof)).returncode == 0
        artifacts = {"instance": inst.read_text(), "proof": proof.read_text()}
        for name, *argv in (
            ("check", "check", "--proof", str(proof)),
            ("audit", "audit", "--proof", str(proof), "--n", "3"),
            ("trace", "trace", "--proof", str(proof), "--n", "3", "--k", "1"),
        ):
            result = cli(*argv)
            assert result.returncode == 0, f"{name}: {result.stderr}"
            artifacts[name] = result.stdout

        round_trips = {
            "instance": lambda obj: instance_to_obj(instance_from_obj(obj)),
            "proof": lambda obj: proof_to_obj(*proof_from_obj(obj)),
            "check": lambda obj: report_to_obj(report_from_obj(obj)),
            "audit": lambda obj: audit_report_to_obj(audit_report_from_obj(obj)),
            "trace": lambda obj: trace_report_to_obj(trace_report_from_obj(obj)),
        }
        for name, text in artifacts.items():
            rebuilt = canonical_json(round_trips[name](json.loads(text)))
            assert rebuilt == text, f"{name} artifact drifted on round-trip"
        c["detail"] = (
            "generate, refute, check, audit, trace all exit 0 at n=3; "
            "all five artifacts reserialize byte-identically"
        )
