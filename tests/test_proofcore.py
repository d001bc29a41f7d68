"""Unit tests for the refutation checker."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycal import polyring, proofcore
from polycal.bvp import brute_force_refutation
from polycal.cli import canonical_json
from polycal.polyring import (
    Decoder,
    FormatError,
    Monomial,
    Polynomial,
    ceil_log2,
    int_from_str,
    json_parse,
    poly_parse,
    scalar_from_str,
    xvar,
    yvar,
)
from polycal.proofcore import (
    Axiom,
    AxiomSet,
    CheckError,
    ExtensionAxiom,
    LinComb,
    MulVar,
    ProofBuilder,
    ProofBuildError,
    ProofLine,
    Sqrt,
    SystemKind,
    check_refutation,
    check_step,
    measure,
    proof_chunks,
    proof_from_obj,
    proof_to_obj,
    report_from_obj,
    report_to_obj,
    rule_from_obj,
    validate_axiom_set,
)
from polycal.reslin import (
    Disjunction,
    LinEq,
    RlAxiom,
    RlLine,
    RlWeakening,
    size_binary,
    size_unary,
)
from polycal.xlate import rationalize, simulate_reslin_b

from q_corpus import rational_corpus
from reslin_corpus import bvp_splitting, refutation_corpus

P = poly_parse
x1, x2 = xvar(1), xvar(2)
y1, y2 = yvar(1), yvar(2)

Z = SystemKind.PCSQRT_Z
Q = SystemKind.PCSQRT_Q
EXT_Q = SystemKind.EXTPCSQRT_Q


def five_line_refutation():
    """Hand refutation of {2x-1, x^2-x} over the integers, final constant 2."""
    axioms = AxiomSet((P("2*x1 - 1"), P("x1^2 - x1")))
    lines = [
        ProofLine(P("2*x1 - 1"), Axiom(0)),
        ProofLine(P("2*x1^2 - x1"), MulVar(0, x1)),
        ProofLine(P("x1^2 - x1"), Axiom(1)),
        ProofLine(P("x1"), LinComb(1, 2, 1, -2)),
        ProofLine(P("2"), LinComb(3, 0, 4, -2)),
    ]
    return axioms, lines


def test_five_line_refutation_passes_over_z():
    axioms, lines = five_line_refutation()
    report = check_refutation(axioms, lines, Z)
    assert report.valid and report.error is None
    assert report.final_constant == 2
    assert report.line_count == 5


def test_measure_frozen_example():
    assert measure([ProofLine(P("1"), Axiom(0))]) == (0, 0, 1)
    axioms, lines = five_line_refutation()
    total, degree, count = measure(lines)
    assert degree == 2 and count == 5
    # 2x-1:1, 2x^2-x:1, x^2-x:0, x:0, 2:1
    assert total == 3


def _repeated_values():
    """A proof and a Res-Lin proof that repeat a Fraction coefficient and one
    of 4,401 digits, each with both signs (equal bits, distinct values)."""
    big, third = 10**4400 + 7, Fraction(-5, 3)
    terms = [(Monomial.of(x1), third), (Monomial.of(x2), big), (Monomial.one(), -big)]
    lines = [
        ProofLine(Polynomial(terms[: k + 1]).mul_var(x2), Axiom(0)) for k in range(3)
    ]
    lines += [ProofLine(Polynomial.constant(-third), Axiom(0)), ProofLine(Polynomial.zero(), Axiom(0))]
    wide, narrow = LinEq.of({x1: big, x2: -big}, 1), LinEq.of({x1: 3}, big)
    rl = [
        RlLine(Disjunction.of(wide, narrow, wide), RlAxiom(0)),
        RlLine(Disjunction.of(narrow), RlWeakening(0, wide)),
        RlLine(Disjunction.empty(), RlAxiom(1)),
    ]
    return [lines], [rl]


def _occurrence_case(name):
    """(algebraic proofs, Res-Lin proofs) of one named case."""
    if name == "clausal corpus":
        corpus = refutation_corpus()
        return [list(simulate_reslin_b(a, ls).proof) for _, a, ls in corpus], [
            ls for _, _, ls in corpus
        ]
    if name == "Q corpus":
        return [proof for _, _, proof in rational_corpus()], []
    if name.startswith("splitting"):
        axioms, rl = bvp_splitting(int(name.split()[1]))
        out = simulate_reslin_b(axioms, rl)
        return [list(out.proof), list(rationalize(out.axioms, list(out.proof)).proof)], [rl]
    if name.startswith("oracle"):
        return [brute_force_refutation(int(name.split()[1]))[1]], []
    return _repeated_values()


@pytest.mark.parametrize(
    "name",
    ["clausal corpus", "Q corpus", "repeated values"]
    + [f"splitting {n}" for n in range(1, 6)]
    + [f"oracle {n}" for n in range(1, 5)],
)
def test_measures_count_every_occurrence(name):
    # measure and the Res-Lin sizes take each distinct value once, weighed
    # by its occurrences; the sums must equal the sums over every term.
    proofs, rl_proofs = _occurrence_case(name)
    assert proofs
    for proof in proofs:
        assert measure(proof) == (
            sum(line.poly.bit_size() for line in proof),
            max(line.poly.degree for line in proof),
            len(proof),
        )
    for rl in rl_proofs:
        coefficients = [c for line in rl for eq in line.disjunction.disjuncts for _, c in eq.coeffs]
        assert size_unary(rl) == sum(abs(c) for c in coefficients)
        assert size_binary(rl) == sum(ceil_log2(abs(c)) for c in coefficients)


def test_zero_line_degree_sentinel():
    axioms = AxiomSet((P("x1"),))
    lines = [
        ProofLine(P("x1"), Axiom(0)),
        ProofLine(Polynomial.zero(), LinComb(0, 0, 1, -1)),
    ]
    _, degree, _ = measure([lines[1]])
    assert degree == -1
    # zero lines are legal derivation steps
    assert check_step(lines[:1], lines[1], axioms, Z) is None


def test_monotone_prefix_property():
    axioms, lines = five_line_refutation()
    for i in range(len(lines)):
        assert check_step(lines[:i], lines[i], axioms, Z) is None


def test_check_is_deterministic():
    axioms, lines = five_line_refutation()
    a = report_to_obj(check_refutation(axioms, lines, Z))
    b = report_to_obj(check_refutation(axioms, lines, Z))
    assert a == b


# -- error codes ---------------------------------------------------------------


def expect_error(axioms, lines, kind, code, line_index):
    report = check_refutation(axioms, lines, kind)
    assert not report.valid
    assert report.error is not None
    assert report.error.code == code, report.error
    assert report.error.line == line_index
    assert report.final_constant is None
    return report


def test_bad_index():
    axioms = AxiomSet((P("x1"),))
    expect_error(
        axioms,
        [ProofLine(P("x1"), Axiom(3)), ProofLine(P("1"), Axiom(0))],
        Z,
        "BadIndex",
        0,
    )
    expect_error(
        axioms,
        [ProofLine(P("x1"), Axiom(0)), ProofLine(P("2"), LinComb(0, 1, 1, 1))],
        Z,
        "BadIndex",
        1,
    )
    expect_error(
        axioms,
        [ProofLine(P("x1"), Axiom(0)), ProofLine(P("x1^2"), MulVar(1, x1))],
        Z,
        "BadIndex",
        1,
    )
    for k in (1, 2):  # a square root citing itself or a later line
        lines = [ProofLine(P("x1"), Axiom(0)), ProofLine(P("1"), Sqrt(k))]
        error = expect_error(axioms, lines, Z, "BadIndex", 1).error
        assert error.message == f"square root cites line {k}"


def test_axiom_not_in_set():
    axioms = AxiomSet((P("x1"),))
    expect_error(
        axioms, [ProofLine(P("x1 + 1"), Axiom(0))], Z, "AxiomNotInSet", 0
    )


def test_rule_mismatch():
    axioms = AxiomSet((P("x1"),))
    expect_error(
        axioms,
        [ProofLine(P("x1"), Axiom(0)), ProofLine(P("x1^2 + 1"), MulVar(0, x1))],
        Z,
        "RuleMismatch",
        1,
    )
    expect_error(
        axioms,
        [ProofLine(P("x1"), Axiom(0)), ProofLine(P("3*x1 + 1"), LinComb(0, 0, 1, 2))],
        Z,
        "RuleMismatch",
        1,
    )


def test_sqrt_mismatch_and_sign_agnosticism():
    axioms = AxiomSet((P("x1^2"),))
    base = [ProofLine(P("x1^2"), Axiom(0))]
    assert check_step(base, ProofLine(P("x1"), Sqrt(0)), axioms, Z) is None
    assert check_step(base, ProofLine(P("-x1"), Sqrt(0)), axioms, Z) is None
    err = check_step(base, ProofLine(P("x1 + 1"), Sqrt(0)), axioms, Z)
    assert err is not None and err.code == "SqrtMismatch" and err.line == 1


def _rejection(axioms, lines, kind=Z):
    report = check_refutation(axioms, lines, kind)
    assert not report.valid
    return report.error


def test_lincomb_mismatch_names_the_first_differing_monomial():
    # 3*x1 is expected; x2^2 leads 1 and x1 in graded order.
    error = _rejection(
        AxiomSet((P("x1"),)),
        [ProofLine(P("x1"), Axiom(0)), ProofLine(P("3*x1 + x2^2 + 1"), LinComb(0, 0, 1, 2))],
    )
    assert (error.line, error.code) == (1, "RuleMismatch")
    assert error.message == (
        "line 1 is not the claimed linear combination; "
        "first differing monomial x2^2: claimed 1, expected 0"
    )


def test_mulvar_mismatch_names_the_first_differing_monomial():
    error = _rejection(
        AxiomSet((P("x1*x2 - 1"),)),
        [ProofLine(P("x1*x2 - 1"), Axiom(0)), ProofLine(P("x1^2*x2 - 1/2*x1"), MulVar(0, x1))],
        Q,
    )
    assert (error.line, error.code) == (1, "RuleMismatch")
    assert error.message == (
        "line 1 is not line 0 times x1; "
        "first differing monomial x1: claimed -1/2, expected -1"
    )


@pytest.mark.parametrize(
    "claimed, differs",
    [
        # A coefficient changed: as many terms as the premise.
        ("3*x1^2 - x1", "x1^2: claimed 3, expected 2"),
        # A monomial changed: as many terms as the premise.
        ("2*x1^2 - x1*x2", "x1*x2: claimed -1, expected 0"),
        # A term added: one more term than the premise.
        ("2*x1^2 - x1 + 1", "1: claimed 1, expected 0"),
    ],
)
def test_a_mulvar_mutant_keeps_its_rejection_message(claimed, differs):
    # Line 1 of the five-line refutation is line 0 times x1; one edit to it
    # is rejected there, with the message of the expected-polynomial path.
    axioms, lines = five_line_refutation()
    lines[1] = ProofLine(P(claimed), lines[1].rule)
    error = _rejection(axioms, lines)
    assert (error.line, error.code) == (1, "RuleMismatch")
    assert error.message == "line 1 is not line 0 times x1; first differing monomial " + differs


MULVAR_VARS = (xvar(1), xvar(2), yvar(1))
mulvar_monomials = st.lists(st.sampled_from(MULVAR_VARS), max_size=3).map(Monomial.product)
mulvar_coefs = st.integers(-3, 3).filter(bool)
mulvar_premises = st.lists(
    st.tuples(mulvar_monomials, mulvar_coefs), max_size=4
).map(Polynomial)


@given(
    mulvar_premises,
    st.sampled_from(MULVAR_VARS),
    st.sampled_from(["product", "drop", "add", "change", "other variable"]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_a_mulvar_line_is_accepted_exactly_when_it_is_the_product(premise, var, edit, data):
    product = premise.mul_var(var)
    terms = product.terms()
    claimed = product
    if edit == "drop" and terms:
        gone = data.draw(st.sampled_from(terms))
        claimed = Polynomial(term for term in terms if term is not gone)
    elif edit == "change" and terms:
        mono = data.draw(st.sampled_from(terms))[0]
        claimed = product.add(Polynomial([(mono, data.draw(mulvar_coefs))]))
    elif edit == "add":
        term = (data.draw(mulvar_monomials), data.draw(mulvar_coefs))
        claimed = product.add(Polynomial([term]))
    elif edit == "other variable":
        claimed = premise.mul_var(data.draw(st.sampled_from(MULVAR_VARS).filter(var.__ne__)))
    line = ProofLine(claimed, MulVar(0, var))
    error = check_step([ProofLine(premise, Axiom(0))], line, AxiomSet((premise,)), Q)
    if claimed == product:
        assert error is None
        return
    assert (error.line, error.code) == (1, "RuleMismatch")
    differing = [
        m for m in claimed.term_map.keys() | product.term_map.keys()
        if claimed.coefficient(m) != product.coefficient(m)
    ]
    assert any(f"first differing monomial {m!r}: " in error.message for m in differing)


def test_sqrt_mismatch_names_the_first_differing_monomial():
    # (x1 + 1)^2 = x1^2 + 2*x1 + 1 first leaves x1^2 at x1.
    error = _rejection(
        AxiomSet((P("x1^2"),)),
        [ProofLine(P("x1^2"), Axiom(0)), ProofLine(P("x1 + 1"), Sqrt(0))],
    )
    assert (error.line, error.code) == (1, "SqrtMismatch")
    assert error.message == (
        "line 1 squared does not equal line 0; "
        "first differing monomial x1: claimed 2, expected 0"
    )


def test_a_mismatch_writes_a_coefficient_past_the_digit_limit():
    # Its 5,001 digits are past the int-str digit limit, so the message
    # gives its bit length instead of taking the quadratic decimal path.
    lines = [ProofLine(P("x1"), Axiom(0)), ProofLine(P("x1"), LinComb(0, 0, 10**5000, 0))]
    report = check_refutation(AxiomSet((P("x1"),)), lines, Z)
    assert (report.error.line, report.error.code) == (1, "RuleMismatch")
    assert report.error.message == (
        "line 1 is not the claimed linear combination; "
        "first differing monomial x1: claimed 1, expected an integer of 16610 bits"
    )
    written = json.loads(canonical_json(report_to_obj(report)))
    assert written["error"]["message"] == report.error.message


def test_scalar_rejections_give_a_long_part_by_its_bit_length():
    big = 10**5000
    axioms = AxiomSet((P("x1"),))
    lines = [ProofLine(P("x1"), Axiom(0)), ProofLine(P("x1"), LinComb(0, 0, Fraction(1, big), 0))]
    error = check_refutation(axioms, lines, Z).error
    assert (error.code, error.message) == (
        "NonIntegerScalar",
        "pcsqrt-z requires integer scalars, got 1/an integer of 16610 bits, 0",
    )
    axioms = AxiomSet((Polynomial.constant(big),))
    lines = [ProofLine(Polynomial.constant(big), Axiom(0))]
    error = check_refutation(axioms, lines, SystemKind.PC_Q).error
    assert (error.code, error.message) == (
        "FinalNotOne", "pc-q must end in 1, got an integer of 16610 bits"
    )


def test_sqrt_forbidden():
    axioms = AxiomSet((P("x1^2"),))
    lines = [ProofLine(P("x1^2"), Axiom(0)), ProofLine(P("x1"), Sqrt(0))]
    expect_error(axioms, lines, SystemKind.PC_Q, "SqrtForbidden", 1)
    expect_error(axioms, lines, SystemKind.SPS_PC_Q, "SqrtForbidden", 1)
    # the same sqrt step is accepted where roots are admitted
    assert check_step(lines[:1], lines[1], axioms, Q) is None


def test_non_integer_scalar():
    axioms = AxiomSet((P("2*x1"),))
    lines = [
        ProofLine(P("2*x1"), Axiom(0)),
        ProofLine(P("x1"), LinComb(0, 0, Fraction(1, 2), 0)),
    ]
    expect_error(axioms, lines, Z, "NonIntegerScalar", 1)
    # same proof is fine over the rationals
    assert check_step(lines[:1], lines[1], axioms, Q) is None


def test_non_integer_coefficient():
    axioms = AxiomSet((P("2*x1"),))
    lines = [
        ProofLine(P("2*x1"), Axiom(0)),
        ProofLine(P("1/2*x1"), LinComb(0, 0, Fraction(1, 4), 0)),
    ]
    # the line coefficient check fires before the scalar check
    expect_error(axioms, lines, Z, "NonIntegerCoefficient", 1)


def test_axiom_set_errors_report_line_minus_one():
    quadratic = AxiomSet((P("x1"),), (ExtensionAxiom(y1, P("x1^2")),))
    lines = [ProofLine(P("x1"), Axiom(0))]
    expect_error(quadratic, lines, SystemKind.SPS_PC_Q, "ExtensionNotAffine", -1)

    out_of_order = AxiomSet(
        (P("x1"),),
        (ExtensionAxiom(y2, P("x1")), ExtensionAxiom(y1, P("x1"))),
    )
    expect_error(out_of_order, lines, EXT_Q, "ExtensionOrderViolation", -1)

    forward_ref = AxiomSet((P("x1"),), (ExtensionAxiom(y1, P("y2 + x1")),))
    expect_error(forward_ref, lines, EXT_Q, "ExtensionOrderViolation", -1)

    duplicate = AxiomSet(
        (P("x1"),),
        (ExtensionAxiom(y1, P("x1")), ExtensionAxiom(y1, P("x1"))),
    )
    expect_error(duplicate, lines, EXT_Q, "ExtensionOrderViolation", -1)

    rational_def = AxiomSet((P("x1"),), (ExtensionAxiom(y1, P("1/2*x1")),))
    expect_error(
        rational_def, lines, SystemKind.EXTPCSQRT_Z, "NonIntegerCoefficient", -1
    )

    with_exts = AxiomSet((P("x1"),), (ExtensionAxiom(y1, P("x1")),))
    expect_error(with_exts, lines, SystemKind.PC_Q, "ExtensionForbidden", -1)

    rational_base = AxiomSet((P("x1"), P("1/2*x1")))
    error = expect_error(rational_base, lines, Z, "NonIntegerCoefficient", -1).error
    assert error.message == "base axiom 1 has a non-integer coefficient"

    # The decoder refuses an x-variable extension; the library reaches the check.
    x_defined = AxiomSet((P("x1"),), (ExtensionAxiom(x2, P("x1")),))
    error = expect_error(x_defined, lines, EXT_Q, "ExtensionOrderViolation", -1).error
    assert error.message == "extension 0 must define a y-variable, got x2"


def test_extension_axiom_usable_after_validation():
    axioms = AxiomSet(
        (P("x1"),),
        (ExtensionAxiom(y1, P("x1")), ExtensionAxiom(y2, P("y1^2 + 1"))),
    )
    assert validate_axiom_set(axioms, EXT_Q) is None
    line = ProofLine(P("y2 - y1^2 - 1"), Axiom(2))
    assert check_step([], line, axioms, EXT_Q) is None


def test_final_line_conditions():
    axioms = AxiomSet((P("x1"),))
    expect_error(
        axioms, [ProofLine(P("x1"), Axiom(0))], Z, "FinalNotConstant", 0
    )
    zero_end = [
        ProofLine(P("x1"), Axiom(0)),
        ProofLine(Polynomial.zero(), LinComb(0, 0, 0, 0)),
    ]
    expect_error(axioms, zero_end, Z, "FinalZero", 1)

    two_end = AxiomSet((P("2"),))
    lines = [ProofLine(P("2"), Axiom(0))]
    assert check_refutation(two_end, lines, Z).valid  # ring: any nonzero constant
    expect_error(two_end, lines, SystemKind.PC_Q, "FinalNotOne", 0)


def test_empty_proof_rejected():
    with pytest.raises(ValueError):
        check_refutation(AxiomSet((P("x1"),)), [], Z)


def test_check_builds_the_axiom_pool_once():
    """One Axiom line per extension axiom checks in linear time."""
    count = 2000
    extensions = tuple(ExtensionAxiom(yvar(i), P("x1")) for i in range(1, count + 1))
    axioms = AxiomSet((), extensions)
    lines = [ProofLine(ext.polynomial, Axiom(i)) for i, ext in enumerate(extensions)]
    start = time.perf_counter()
    report = check_refutation(axioms, lines, EXT_Q)
    elapsed = time.perf_counter() - start
    assert report.error == CheckError(
        count - 1, "FinalNotConstant", "final line is not a constant"
    )
    assert elapsed < 2.0, f"{elapsed:.2f}s over the 2s budget"


# -- builder and monomial multiples ---------------------------------------------


def test_emit_monomial_multiple_line_count_and_value():
    axioms = AxiomSet((P("x1 + 1"),))
    builder = ProofBuilder(axioms, Z)
    src = builder.axiom_line(0)
    before = len(builder)
    mono = Monomial.of(x1, 2)
    out = builder.monomial_multiple(src, mono)
    assert len(builder) - before == mono.degree == 2
    assert builder.poly_at(out) == P("x1^3 + x1^2")
    scaled = builder.scale_line(out, 3)
    assert builder.poly_at(scaled) == P("3*x1^3 + 3*x1^2")
    # identity monomial: the source line itself, no new line
    assert builder.monomial_multiple(src, Monomial.one()) == src
    # every emitted line passes check_step replay
    for i, line in enumerate(builder.lines):
        assert check_step(builder.lines[:i], line, axioms, Z) is None


def test_emit_propagates_scalar_restrictions():
    builder = ProofBuilder(AxiomSet((P("x1"),)), Z)
    src = builder.axiom_line(0)
    with pytest.raises(ProofBuildError):
        builder.scale_line(src, Fraction(1, 2))


def test_monomial_multiple_memoizes_prefixes():
    x3 = xvar(3)
    axioms = AxiomSet((P("x1 + 1"),))
    builder = ProofBuilder(axioms, Z)
    src = builder.axiom_line(0)
    assert builder.monomial_multiple(src, Monomial.one()) == src
    assert len(builder) == 1

    pair = Monomial(((x1, 1), (x2, 1)))
    out = builder.monomial_multiple(src, pair)
    assert len(builder) == 3
    assert builder.poly_at(out) == P("x1^2*x2 + x1*x2")
    # a repeated request appends nothing
    assert builder.monomial_multiple(src, pair) == out
    assert len(builder) == 3
    # x1*x2*x3 extends the x1*x2 line by one MulVar
    triple = pair.times(Monomial.of(x3))
    longer = builder.monomial_multiple(src, triple)
    assert len(builder) == 4
    assert builder.lines[longer].rule == MulVar(out, x3)
    assert builder.poly_at(longer) == P("x1^2*x2*x3 + x1*x2*x3")

    for i, line in enumerate(builder.lines):
        assert check_step(builder.lines[:i], line, axioms, Z) is None


def test_monomial_multiple_reaches_any_degree_without_recursion():
    # One MulVar per variable of a degree-1,200 monomial, deeper than the
    # interpreter's recursion limit; the prefix one variable shorter is
    # memoized, so extending it appends a single line.
    variables = [xvar(i) for i in range(1, 1201)]
    builder = ProofBuilder(AxiomSet((P("1"),)), Z)
    src = builder.axiom_line(0)
    wide = Monomial((v, 1) for v in variables)
    out = builder.monomial_multiple(src, wide)
    assert len(builder) == 1201 and out == 1200
    assert [line.rule for line in builder.lines[1:]] == [
        MulVar(i, v) for i, v in enumerate(variables)
    ]
    assert builder.poly_at(out) == Polynomial(((wide, 1),))
    wider = wide.times(Monomial.of(xvar(1201)))
    assert builder.monomial_multiple(src, wider) == 1201
    assert builder.lines[1201].rule == MulVar(1200, xvar(1201))


def test_a_repeated_step_returns_its_line_and_appends_nothing():
    axioms = AxiomSet((P("x1 + 1"), P("x2")))
    builder = ProofBuilder(axioms, Z)
    a, b = builder.axiom_line(0), builder.axiom_line(1)
    c = builder.lincomb(a, b, 2, -3)
    d = builder.mul_var(c, x1)
    e = builder.scale_line(d, 5)
    count = len(builder)
    again = [
        builder.axiom_line(0),
        builder.axiom_line(1),
        builder.lincomb(a, b, Fraction(2), -3),
        builder.mul_var(c, x1),
        builder.lincomb(d, d, 5, 0),
    ]
    assert again == [a, b, c, d, e]
    assert len(builder) == count
    # Another step is a new line, even one with an equal polynomial.
    assert builder.lincomb(b, a, -3, 2) == count
    assert builder.mul_var(builder.axiom_line(1), x1) == count + 1
    for i, line in enumerate(builder.lines):
        assert check_step(builder.lines[:i], line, axioms, Z) is None


def test_known_multiple_is_none_until_the_multiple_is_built():
    builder = ProofBuilder(AxiomSet((P("x1 + 1"),)), Z)
    src = builder.axiom_line(0)
    mono = Monomial(((x1, 2), (x2, 1)))
    assert builder.known_multiple(src, Monomial.one()) == src
    assert builder.known_multiple(src, mono) is None
    # A mul_var is the first step of the multiple's walk.
    first = builder.mul_var(src, x1)
    assert builder.known_multiple(src, Monomial.of(x1)) == first
    assert builder.known_multiple(src, mono) is None
    out = builder.monomial_multiple(src, mono)
    assert len(builder) == 4
    assert [line.rule for line in builder.lines[1:]] == [
        MulVar(0, x1), MulVar(1, x1), MulVar(2, x2)
    ]
    assert builder.known_multiple(src, mono) == out
    assert builder.known_multiple(src, Monomial.of(x2)) is None


def test_builder_sum_lines():
    axioms = AxiomSet((P("x1"), P("x2"), P("x1*x2")))
    builder = ProofBuilder(axioms, Z)
    idxs = [builder.axiom_line(i) for i in range(3)]
    total = builder.sum_lines([(i, 1) for i in idxs])
    assert builder.poly_at(total) == P("x1 + x2 + x1*x2")
    report = check_refutation(
        AxiomSet((P("x1"), P("x2"), P("x1*x2"))),
        builder.lines + [ProofLine(Polynomial.zero(), LinComb(total, total, 1, -1))],
        Z,
    )
    # derivation steps are all fine; only the final-constant rule fails
    assert report.error.code == "FinalZero"


@pytest.mark.parametrize("k", range(1, 8))
def test_builder_sum_lines_puts_each_weight_in_a_combination(k):
    # k >= 2 weighted lines take k - 1 LinComb lines and no scaling line; a
    # lone line is refused, since no combination could carry its weight.
    axioms = AxiomSet(tuple(P(f"x{i}") for i in range(1, k + 1)))
    builder = ProofBuilder(axioms, Z)
    terms = [(builder.axiom_line(i), (-1) ** i * (i + 2)) for i in range(k)]
    before = len(builder)
    if k == 1:
        for short in ([], terms):
            with pytest.raises(ProofBuildError, match="at least two terms"):
                builder.sum_lines(short)
        assert len(builder) == before
        return
    total = builder.sum_lines(terms)
    added = builder.lines[before:]
    assert len(added) == k - 1
    assert all(isinstance(line.rule, LinComb) and line.rule.j != line.rule.k for line in added)
    expected = Polynomial.zero()
    for i, c in terms:
        expected = expected.add(builder.poly_at(i).scale(c))
    assert builder.poly_at(total) == expected
    lines = builder.lines
    assert all(check_step(lines[:i], lines[i], axioms, Z) is None for i in range(len(lines)))


def test_builder_rejects_invalid_append():
    builder = ProofBuilder(AxiomSet((P("x1"),)), Z)
    builder.axiom_line(0)
    with pytest.raises(ProofBuildError):
        builder.append(P("x1 + 1"), MulVar(0, x1))


# -- mod-p soundness (small sample; the acceptance suite runs the full one) ------


def test_mod_p_soundness_sample():
    import random

    rng = random.Random(7)
    for trial in range(10):
        point = {x1: rng.randrange(-9, 10), x2: rng.randrange(-9, 10)}
        q = P("x1^2 + 3*x1*x2 - 2*x2 + 1")
        axiom = q - Polynomial.constant(q.evaluate(point))
        axioms = AxiomSet((axiom,))
        builder = ProofBuilder(axioms, Z)
        a = builder.axiom_line(0)
        b = builder.mul_var(a, x2)
        c = builder.lincomb(a, b, 3, -2)
        d = builder.scale_line(builder.monomial_multiple(c, Monomial.of(x1)), 5)
        for p in (2, 3, 5, 7):
            for line in builder.lines:
                assert line.poly.evaluate(point) % p == 0


# -- serialization ----------------------------------------------------------------


def rule_obj(rule):
    """The rule's object in the document of a one-line proof."""
    doc = proof_to_obj(Z, AxiomSet(()), [ProofLine(P("x1"), rule)])
    return doc["lines"][0]["rule"]


def test_rule_json_round_trip():
    rules = [
        Axiom(0),
        LinComb(0, 1, 1, -2),
        LinComb(2, 2, Fraction(1, 2), 0),
        MulVar(2, x1),
        Sqrt(3),
    ]
    for rule in rules:
        assert rule_from_obj(rule_obj(rule), Decoder()) == rule
    assert rule_obj(LinComb(0, 1, 1, -2)) == {
        "type": "lincomb",
        "j": 0,
        "k": 1,
        "alpha": "1",
        "beta": "-2",
    }


def test_proof_document_round_trip():
    axioms, lines = five_line_refutation()
    doc = proof_to_obj(Z, axioms, lines)
    kind2, axioms2, lines2 = proof_from_obj(doc)
    assert kind2 is Z and axioms2 == axioms and lines2 == lines
    assert doc["system"] == "pcsqrt-z"


def test_a_document_decodes_through_one_decoder(monkeypatch):
    # The n=3 splitting chain's Q document: its LinComb scalars repeat.
    out = simulate_reslin_b(*bvp_splitting(3))
    doc = json.loads(canonical_json(proof_to_obj(EXT_Q, out.axioms, out.proof)))
    rule_scalars = [
        line["rule"][key]
        for line in doc["lines"]
        if line["rule"]["type"] == "lincomb"
        for key in ("alpha", "beta")
    ]
    assert len(set(rule_scalars)) < len(rule_scalars)

    decoders = []
    parsed = []

    class CountingDecoder(Decoder):
        def __init__(self):
            super().__init__()
            decoders.append(self)

    def counting_scalar_from_str(text):
        parsed.append(text)
        return scalar_from_str(text)

    monkeypatch.setattr(proofcore, "Decoder", CountingDecoder)
    monkeypatch.setattr(proofcore, "scalar_from_str", counting_scalar_from_str)
    monkeypatch.setattr(polyring, "scalar_from_str", counting_scalar_from_str)
    kind, axioms, lines = proof_from_obj(doc)
    assert (kind, axioms, lines) == (EXT_Q, out.axioms, list(out.proof))
    assert len(decoders) == 1
    assert set(rule_scalars) <= set(parsed)
    assert len(parsed) == len(set(parsed))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc["axioms"].update(base={}),
         "'base' and 'extensions' must be arrays"),
        (lambda doc: doc["axioms"].update(extensions=None),
         "'base' and 'extensions' must be arrays"),
        (lambda doc: doc["axioms"]["extensions"].append(
            {"var": "x1", "def": {"terms": []}}),
         "extension variable must be y<k>, got x1"),
        (lambda doc: doc.update(lines={}), "'lines' must be an array"),
    ],
)
def test_proof_document_shape_errors(mutate, message):
    axioms, lines = five_line_refutation()
    doc = proof_to_obj(Z, axioms, lines)
    mutate(doc)
    with pytest.raises(FormatError) as info:
        proof_from_obj(doc)
    assert str(info.value) == message


def test_proof_document_rejects_unknown_system():
    axioms, lines = five_line_refutation()
    doc = proof_to_obj(Z, axioms, lines)
    doc["system"] = "resolution"
    with pytest.raises(Exception):
        proof_from_obj(doc)


def test_report_round_trip():
    axioms, lines = five_line_refutation()
    report = check_refutation(axioms, lines, Z)
    assert report_from_obj(report_to_obj(report)) == report
    bad = check_refutation(axioms, [ProofLine(P("x1"), Axiom(0))], Z)
    assert report_from_obj(report_to_obj(bad)) == bad


@pytest.mark.parametrize(
    "field, value",
    [("valid", 1), ("total_size", -1), ("degree", True), ("line_count", "3")],
)
def test_report_from_obj_names_the_bad_field(field, value):
    axioms, lines = five_line_refutation()
    obj = report_to_obj(check_refutation(axioms, lines, Z))
    obj[field] = value
    with pytest.raises(FormatError, match=field):
        report_from_obj(obj)


# Indices past 9 sort differently as JSON keys ("x10" < "x2") than as variables.
CHUNK_VARS = (xvar(1), xvar(2), xvar(10), xvar(11), xvar(123), yvar(1), yvar(2), yvar(10))
HUGE = 10**4400 + 7  # past Python's 4300-digit int-to-str limit
chunk_scalars = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.sampled_from([HUGE, -HUGE, Fraction(1, HUGE)]),
)


@st.composite
def chunk_polys(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        chosen = draw(st.sets(st.sampled_from(CHUNK_VARS), max_size=4))
        mono = Monomial([(v, draw(st.integers(1, 3))) for v in chosen])
        pairs.append((mono, draw(chunk_scalars)))
    return Polynomial(pairs)


chunk_rules = st.one_of(
    st.builds(Axiom, st.integers(0, 20)),
    st.builds(LinComb, st.integers(0, 20), st.integers(0, 20), chunk_scalars, chunk_scalars),
    st.builds(MulVar, st.integers(0, 20), st.sampled_from(CHUNK_VARS)),
    st.builds(Sqrt, st.integers(0, 20)),
)
chunk_extensions = st.lists(chunk_polys(), max_size=3).map(
    lambda defs: tuple(ExtensionAxiom(yvar(i + 1), d) for i, d in enumerate(defs))
)
EVERY_CASE_LINES = [
    ProofLine(Polynomial.constant(HUGE), Axiom(0)),
    ProofLine(P("x10*x2 + 1/3*x2^2*y10 - 1"), LinComb(0, 0, Fraction(1, 3), -HUGE)),
    ProofLine(P("x10*x2*x11"), MulVar(1, xvar(11))),
    ProofLine(P("x10 - x2"), Sqrt(2)),
]


@given(
    st.sampled_from(list(SystemKind)),
    st.lists(chunk_polys(), max_size=3),
    chunk_extensions,
    st.lists(st.builds(ProofLine, chunk_polys(), chunk_rules), max_size=6),
)
@example(SystemKind.EXTPCSQRT_Z, [], (), EVERY_CASE_LINES)
@example(
    SystemKind.PCSQRT_Q,
    [P("x10*x2 - 1/2"), P("x2")],
    (ExtensionAxiom(yvar(1), P("x11*x10^2 + 2")),),
    EVERY_CASE_LINES,
)
@settings(max_examples=80, deadline=None)
def test_proof_chunks_match_the_object_form(kind, base, extensions, lines):
    # The text defines the document, so it is judged by three laws of its
    # own: it is canonical, it decodes to the proof, and every polynomial
    # lists its terms in terms() order (the decoder takes any order).
    axioms = AxiomSet(tuple(base), extensions)
    text = "".join(proof_chunks(kind, axioms, lines))
    doc = json_parse(text)
    assert canonical_json(doc) == text
    written = (
        doc["axioms"]["base"]
        + [entry["def"] for entry in doc["axioms"]["extensions"]]
        + [line["poly"] for line in doc["lines"]]
    )
    polys = list(base) + [ext.definition for ext in extensions] + [line.poly for line in lines]
    assert len(written) == len(polys)
    decoder = Decoder()
    for obj, poly in zip(written, polys):
        assert [decoder.mono(term["mono"]) for term in obj["terms"]] == [
            mono for mono, _ in poly.terms()
        ]
    assert proof_from_obj(doc) == (kind, axioms, lines)


def test_a_document_past_the_int_digit_limit_round_trips():
    # A 5,000-digit axiom index: json.loads alone refuses it, and the
    # document's one parse rule reads it back.
    text = (
        '{"axioms":{"base":[{"terms":[{"coef":"1","mono":{}}]}],"extensions":[]},'
        '"lines":[{"poly":{"terms":[{"coef":"1","mono":{}}]},'
        '"rule":{"index":' + "9" * 5000 + ',"type":"axiom"}}],"system":"pcsqrt-z"}\n'
    )
    with pytest.raises(ValueError):
        json.loads(text)
    kind, axioms, lines = proof_from_obj(json.loads(text, parse_int=int_from_str))
    assert lines[0].rule == Axiom(10**5000 - 1)
    assert "".join(proof_chunks(kind, axioms, lines)) == text
    assert proof_to_obj(kind, axioms, lines) == json.loads(text, parse_int=int_from_str)
