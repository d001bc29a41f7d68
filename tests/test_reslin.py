"""Tests for resolution over linear equations: checker, sizes, registry, hat."""

import copy
import gc
import json
import pickle
import weakref

import pytest

from polycal import reslin
from polycal.polyring import Monomial, Polynomial, xvar, yvar, FormatError, poly_parse
from polycal.reslin import (
    Disjunction,
    EquationDecoder,
    LinEq,
    Registry,
    RlAxiom,
    RlBooleanAxiom,
    RlContraction,
    RlLine,
    RlResolution,
    RlSimplification,
    RlWeakening,
    UnregisteredForm,
    boolean_disjunction,
    build_registry,
    check_reslin,
    check_rl_step,
    is_refutation,
    lineq_from_obj,
    lineq_to_obj,
    product_monomial,
    reslin_from_obj,
    reslin_to_obj,
    rl_rule_from_obj,
    rl_rule_to_obj,
    size_binary,
    size_unary,
)
from reslin_corpus import all_rules, bvp_splitting, refutation_corpus, zero_one

X1, X2 = xvar(1), xvar(2)


def expect_error(axioms, lines, code, at_line):
    report = check_reslin(axioms, lines)
    assert not report.valid
    assert report.error.code == code, report.error
    assert report.error.line == at_line
    return report


# -- equations and disjunctions ------------------------------------------------


def test_lineq_normalizes():
    a = LinEq.of([(X1, 2), (X2, 0), (X1, -1)], 5)
    assert a == LinEq.of({X1: 1}, 5)
    assert a.coeffs == ((X1, 1),)


def test_lineq_rejects_bad_input():
    with pytest.raises(ValueError):
        LinEq.of({yvar(1): 1}, 0)
    with pytest.raises(ValueError):
        LinEq.of({X1: True}, 0)
    with pytest.raises(ValueError):
        LinEq.of({X1: 1}, True)


def test_lineq_combine():
    a = LinEq.of({X1: 1, X2: 1}, 3)
    b = LinEq.of({X1: 1}, 0)
    assert a.combine(b, 1, -1) == LinEq.of({X2: 1}, 3)
    assert a.combine(b, 2, 3) == LinEq.of({X1: 5, X2: 2}, 6)


def test_equations_are_interned():
    built = LinEq.of({X1: 2, X2: -1}, 3)
    assert LinEq.of([(X2, -1), (X1, 1), (X1, 1)], 3) is built
    assert LinEq(((X1, 2), (X2, -1)), 3) is built
    assert LinEq.of({X1: 1}, 0).combine(LinEq.of({X1: 1, X2: -1}, 3), 1, 1) is built
    decoder = EquationDecoder()
    assert decoder.lineq({"coeffs": {"x2": -1, "x1": 2}, "const": 3}) is built
    assert decoder.lineq(lineq_to_obj(built)) is built
    assert copy.copy(built) is built
    assert copy.deepcopy(built) is built
    assert copy.deepcopy([built, built]) == [built, built]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(built, protocol)) is built
    assert built != LinEq.of({X1: 2, X2: -1}, 4)
    with pytest.raises(AttributeError):
        built.constant = 4
    assert built.constant == 3


def test_equations_are_held_weakly():
    eq = LinEq.of({xvar(9101): 1}, 0)
    ref = weakref.ref(eq)
    gc.disable()  # reference counting alone must free it
    try:
        del eq
        alive = ref()
    finally:
        gc.enable()
    assert alive is None
    assert (((xvar(9101), 1),), 0) not in reslin._EQUATIONS


def test_an_equation_built_again_has_one_live_entry():
    key = (((xvar(9102), 1),), 0)
    gone = weakref.ref(LinEq.of({xvar(9102): 1}, 0))
    assert gone() is None and key not in reslin._EQUATIONS
    again = LinEq.of({xvar(9102): 1}, 0)
    assert reslin._EQUATIONS[key]() is again
    assert LinEq.of([(xvar(9102), 2), (xvar(9102), -1)], 0) is again
    assert LinEq.of({xvar(9102): 2}, 0).combine(again, 1, -1) is again

    # A callback that runs after the equation dies, but before its entry's
    # own callback, builds it again: that live entry must stay.
    key = (((xvar(9103), 1),), 0)
    rebuilt = []
    doomed = LinEq.of({xvar(9103): 1}, 0)
    watch = weakref.ref(doomed, lambda ref: rebuilt.append(LinEq.of({xvar(9103): 1}, 0)))
    del doomed
    assert watch() is None and len(rebuilt) == 1
    assert reslin._EQUATIONS[key]() is rebuilt[0]
    assert LinEq.of({xvar(9103): 1}, 0) is rebuilt[0]


def test_registry_keys_are_exact():
    # No gcd or sign normalization: each form gets its own variable.
    eqs = [LinEq.of({X1: 1}, 0), LinEq.of({X1: 2}, 0), LinEq.of({X1: -1}, 0),
           LinEq.of({X1: 1}, 1)]
    registry = Registry()
    assert [registry.intern(eq) for eq in eqs] == [yvar(i) for i in range(1, 5)]
    assert registry.lookup(LinEq.of({X1: 2}, 0)) == yvar(2)
    with pytest.raises(UnregisteredForm) as info:
        registry.lookup(LinEq.of({X1: 3}, 1))
    assert info.value.args[0] == "form (((x1, 3),), -1) is not registered"


def test_affine_polynomial():
    assert LinEq.of({X1: 1}, 1).affine_polynomial() == poly_parse("x1 - 1")
    assert LinEq.of({}, -1).affine_polynomial() == Polynomial.constant(1)
    assert LinEq.of({X1: 2, X2: -3}, 0).affine_polynomial() == poly_parse(
        "2*x1 - 3*x2"
    )


def test_holds():
    d = Disjunction.of(LinEq.of({X1: 1}, 1), LinEq.of({X2: 1}, 0))
    assert d.holds({X1: 1, X2: 1})
    assert d.holds({X1: 0, X2: 0})
    assert not d.holds({X1: 0, X2: 1})
    assert not Disjunction.empty().holds({X1: 0, X2: 0})


# -- the checker on valid proofs -----------------------------------------------


def test_frozen_zero_one_refutation():
    axioms, lines = zero_one()
    report = check_reslin(axioms, lines)
    assert report.valid
    assert report.final_constant is None
    assert report.degree == -1
    assert report.line_count == 4
    assert report.total_size == 0
    assert size_unary(lines) == 2
    assert is_refutation(lines)
    assert lines[2].disjunction == Disjunction.of(LinEq.of({}, -1))


def test_corpus_all_valid():
    for name, axioms, lines in refutation_corpus():
        report = check_reslin(axioms, lines)
        assert report.valid, (name, report.error)
        assert is_refutation(lines), name


def test_all_rules_covers_every_rule():
    _, rules, _ = all_rules()
    kinds = {type(rule) for rule in rules}
    assert kinds == {
        RlAxiom,
        RlBooleanAxiom,
        RlResolution,
        RlWeakening,
        RlSimplification,
        RlContraction,
    }


def test_conclusion_order_is_irrelevant():
    """Each line's claimed disjunction may be stated in any order.

    Positions cited by later rules refer to lines as written, so only the
    line under test is permuted; the prefix it builds on stays intact.
    """
    for name, axioms, lines in refutation_corpus():
        for i, line in enumerate(lines):
            flipped = RlLine(
                Disjunction(tuple(reversed(line.disjunction.disjuncts))), line.rule
            )
            assert check_rl_step(axioms, lines[:i], flipped) is None, (name, i)


def test_disjunct_order_is_free_but_each_disjunct_counts():
    axioms, lines = bvp_splitting(3)
    for i, line in enumerate(lines):
        ds = line.disjunction.disjuncts
        for shift in range(len(ds)):
            rotated = RlLine(Disjunction(ds[shift:] + ds[:shift]), line.rule)
            assert check_rl_step(axioms, lines[:i], rotated) is None, (i, shift)
        changed = [ds[:k] + (LinEq.of(d.coeffs, d.constant + 1),) + ds[k + 1 :]
                   for k, d in enumerate(ds)]
        if len(ds) > 1 and ds[0] is not ds[1]:
            changed.append((ds[1],) + ds[1:])  # the same set, other counts
        for disjuncts in changed:
            error = check_rl_step(axioms, lines[:i], RlLine(Disjunction(disjuncts), line.rule))
            assert error is not None and error.code == "RuleMismatch", (i, disjuncts)


def test_size_measures_skip_constants():
    line = RlLine(
        Disjunction.of(LinEq.of({}, 9), LinEq.of({X1: -3}, 7)), RlAxiom(0)
    )
    assert size_unary([line]) == 3
    assert size_binary([line]) == 2


def test_frozen_corpus_sizes():
    by_name = {name: lines for name, _, lines in refutation_corpus()}
    assert size_unary(by_name["thirds"]) == 7
    assert size_binary(by_name["thirds"]) == 2
    assert size_binary(by_name["half_half"]) == 1


def test_accepted_lines_are_sound():
    axioms = [Disjunction.of(LinEq.of({X1: 1, X2: 1}, 1))]
    lines = [
        RlLine(axioms[0], RlAxiom(0)),
        RlLine(boolean_disjunction(X1), RlBooleanAxiom(X1)),
        RlLine(
            Disjunction.of(LinEq.of({X2: 1}, 1), LinEq.of({X1: 1}, 1)),
            RlResolution(0, 1, 0, 0, 1, -1),
        ),
    ]
    assert check_reslin(axioms, lines).valid
    for witness in ({X1: 0, X2: 1}, {X1: 1, X2: 0}):
        assert all(line.disjunction.holds(witness) for line in lines)


def test_empty_proof_rejected():
    with pytest.raises(ValueError):
        check_reslin([], [])


# -- error codes ---------------------------------------------------------------


def base_lines():
    axioms, lines = zero_one()
    return axioms, lines


def test_axiom_bad_index():
    axioms, lines = base_lines()
    bad = [RlLine(axioms[0], RlAxiom(2))]
    expect_error(axioms, bad, "BadIndex", 0)
    expect_error(axioms, [RlLine(axioms[0], RlAxiom(-1))], "BadIndex", 0)


def test_axiom_copy_mismatch():
    axioms, _ = base_lines()
    expect_error(axioms, [RlLine(axioms[1], RlAxiom(0))], "RuleMismatch", 0)


def test_boolean_axiom_mismatch():
    axioms, _ = base_lines()
    wrong = RlLine(boolean_disjunction(X1), RlBooleanAxiom(X2))
    expect_error(axioms, [wrong], "RuleMismatch", 0)


def test_resolution_forward_reference():
    axioms, lines = base_lines()
    bad = lines[:2] + [
        RlLine(lines[2].disjunction, RlResolution(0, 2, 0, 0, 1, -1))
    ]
    expect_error(axioms, bad, "BadIndex", 2)


def test_resolution_bad_position():
    axioms, lines = base_lines()
    bad = lines[:2] + [RlLine(lines[2].disjunction, RlResolution(0, 1, 0, 1, 1, -1))]
    expect_error(axioms, bad, "BadPosition", 2)


def test_resolution_non_integer_scalar():
    from fractions import Fraction

    axioms, lines = base_lines()
    bad = lines[:2] + [
        RlLine(lines[2].disjunction, RlResolution(0, 1, 0, 0, Fraction(1, 2), -1))
    ]
    expect_error(axioms, bad, "NonIntegerScalar", 2)


def test_resolution_wrong_resolvent():
    axioms, lines = base_lines()
    bad = lines[:2] + [
        RlLine(Disjunction.of(LinEq.of({}, 1)), RlResolution(0, 1, 0, 0, 1, -1))
    ]
    expect_error(axioms, bad, "RuleMismatch", 2)


def test_weakening():
    axioms, lines = base_lines()
    extra = LinEq.of({X2: 1}, 4)
    good = lines[:1] + [
        RlLine(lines[0].disjunction.appended(extra), RlWeakening(0, extra))
    ]
    assert check_reslin(axioms, good).valid
    bad = lines[:1] + [RlLine(lines[0].disjunction, RlWeakening(0, extra))]
    expect_error(axioms, bad, "RuleMismatch", 1)
    expect_error(
        axioms, [RlLine(lines[0].disjunction, RlWeakening(0, extra))], "BadIndex", 0
    )


def test_simplification_on_zero():
    axioms = [Disjunction.of(LinEq.of({}, 0))]
    lines = [
        RlLine(axioms[0], RlAxiom(0)),
        RlLine(Disjunction.empty(), RlSimplification(0, 0)),
    ]
    expect_error(axioms, lines, "SimplificationOnZero", 1)


def test_simplification_non_constant_target():
    axioms, lines = base_lines()
    bad = lines[:1] + [RlLine(Disjunction.empty(), RlSimplification(0, 0))]
    expect_error(axioms, bad, "RuleMismatch", 1)


@pytest.mark.parametrize(
    "rule, message",
    [
        (RlSimplification(4, 0), "simplification cites line 4"),
        (RlSimplification(5, 0), "simplification cites line 5"),
        (RlContraction(4, 0, 1), "contraction cites line 4"),
        (RlContraction(5, 0, 1), "contraction cites line 5"),
    ],
)
def test_simplification_and_contraction_forward_reference(rule, message):
    axioms, lines = base_lines()
    report = expect_error(axioms, lines + [RlLine(Disjunction.empty(), rule)], "BadIndex", 4)
    assert report.error.message == message


def test_simplification_bad_position():
    axioms, lines = base_lines()
    bad = lines + [RlLine(Disjunction.empty(), RlSimplification(3, 1))]
    expect_error(axioms, bad, "BadPosition", 4)


def test_contraction():
    twice = Disjunction.of(LinEq.of({X1: 1}, 0), LinEq.of({X1: 1}, 0))
    axioms = [twice]
    once = twice.without(1)
    good = [RlLine(twice, RlAxiom(0)), RlLine(once, RlContraction(0, 0, 1))]
    assert check_reslin(axioms, good).valid

    same_slot = [RlLine(twice, RlAxiom(0)), RlLine(once, RlContraction(0, 1, 1))]
    expect_error(axioms, same_slot, "BadPosition", 1)

    unequal = Disjunction.of(LinEq.of({X1: 1}, 0), LinEq.of({X1: 1}, 1))
    bad = [
        RlLine(unequal, RlWeakening(0, LinEq.of({X1: 1}, 1))),
        RlLine(unequal.without(1), RlContraction(0, 0, 1)),
    ]
    bad[0] = RlLine(unequal, RlAxiom(0))
    expect_error([unequal], bad, "ContractionUnequal", 1)


# -- registry and hat ----------------------------------------------------------


def test_registry_frozen_example():
    axioms, lines = zero_one()
    registry = build_registry(axioms, lines)
    assert len(registry) == 3
    assert registry.lookup(LinEq.of({X1: 1}, 0)) == yvar(1)
    assert registry.lookup(LinEq.of({X1: 1}, 1)) == yvar(2)
    assert registry.lookup(LinEq.of({}, -1)) == yvar(3)
    defs = registry.definitions()
    assert [d.var for d in defs] == [yvar(1), yvar(2), yvar(3)]
    assert defs[0].definition == poly_parse("x1")
    assert defs[1].definition == poly_parse("x1 - 1")
    assert defs[2].definition == Polynomial.constant(1)


def test_registry_axioms_scanned_first():
    registry = Registry()
    assert registry.intern(LinEq.of({X2: 1}, 0)) == yvar(1)
    assert registry.intern(LinEq.of({X1: 1}, 0)) == yvar(2)
    assert registry.intern(LinEq.of({X2: 1}, 0)) == yvar(1)
    assert len(registry) == 2


def test_registry_answers_equal_equations_built_separately():
    registry = Registry()
    first = registry.intern(LinEq.of({X1: 2, X2: -1}, 3))
    decoded = reslin_from_obj(
        {"axioms": [[{"coeffs": {"x2": -1, "x1": 2}, "const": 3}]], "lines": []}
    )[0][0].disjuncts[0]
    for eq in (
        LinEq.of([(X2, -1), (X1, 2)], 3),
        LinEq.of({X1: 1}, 0).combine(LinEq.of({X1: 1, X2: -1}, 3), 1, 1),
        decoded,
    ):
        assert registry.lookup(eq) == registry.intern(eq) == first
    assert len(registry) == 1
    # Keys are exact: a multiple of a registered form is another form.
    with pytest.raises(UnregisteredForm, match=r"form \(\(\(x1, 4\), \(x2, -2\)\), -6\)"):
        registry.lookup(LinEq.of({X1: 4, X2: -2}, 6))


def test_registry_lookup_unseen():
    registry = Registry()
    with pytest.raises(UnregisteredForm):
        registry.lookup(LinEq.of({X1: 7}, 0))


def test_hat_products():
    axioms, lines = zero_one()
    registry = build_registry(axioms, lines)
    d = Disjunction.of(LinEq.of({X1: 1}, 0), LinEq.of({X1: 1}, 1))
    assert product_monomial(d, registry) == Monomial([(yvar(1), 1), (yvar(2), 1)])
    assert product_monomial(Disjunction.empty(), registry) == Monomial.one()


def test_hat_repeated_disjunct_squares():
    registry = Registry()
    e = LinEq.of({X1: 1}, 0)
    registry.intern(e)
    mono = product_monomial(Disjunction.of(e, e), registry)
    assert mono == Monomial.of(yvar(1), 2)


def test_hat_unregistered():
    registry = Registry()
    with pytest.raises(UnregisteredForm):
        product_monomial(Disjunction.of(LinEq.of({X1: 1}, 0)), registry)


# -- serialization -------------------------------------------------------------


def test_lineq_json_roundtrip():
    e = LinEq.of({X1: -2, X2: 1}, 7)
    obj = lineq_to_obj(e)
    assert obj == {"coeffs": {"x1": -2, "x2": 1}, "const": 7}
    assert lineq_from_obj(obj) == e


def test_numeric_fields_are_json_numbers():
    axioms, lines = zero_one()
    doc = reslin_to_obj(axioms, lines)
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    rule = doc["lines"][2]["rule"]
    assert rule["alpha"] == 1 and isinstance(rule["alpha"], int)
    assert '"alpha":1' in text and '"beta":-1' in text


def test_full_document_roundtrip():
    for name, axioms, lines in refutation_corpus():
        doc = reslin_to_obj(axioms, lines)
        text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
        axioms2, lines2 = reslin_from_obj(json.loads(text))
        assert axioms2 == axioms and lines2 == lines, name
        assert (
            json.dumps(reslin_to_obj(axioms2, lines2), separators=(",", ":"), sort_keys=True)
            == text
        )


@pytest.mark.parametrize(
    "obj",
    [
        {"coeffs": {"x1": 0}, "const": 0},
        {"coeffs": {"y1": 1}, "const": 0},
        {"coeffs": {"x01": 1}, "const": 0},
        {"coeffs": {"x1": 1.0}, "const": 0},
        {"coeffs": {"x1": True}, "const": 0},
        {"coeffs": {"x1": 1}, "const": "3"},
        {"coeffs": {"x1": 1}},
        {"coeffs": {"x1": 1}, "const": 0, "extra": 1},
    ],
)
def test_lineq_rejections(obj):
    with pytest.raises(FormatError):
        lineq_from_obj(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"type": "axiom"},
        {"type": "axiom", "index": "0"},
        {"type": "boolean", "var": "y1"},
        {"type": "resolution", "j": 0, "k": 1, "dj": 0, "dk": 0, "alpha": 1},
        {"type": "resolution", "j": 0, "k": 1, "dj": 0, "dk": 0, "alpha": "1", "beta": 1},
        {"type": "contraction", "j": 0, "d1": 0, "d2": 1, "d3": 2},
        {"type": "mystery"},
        [],
    ],
)
def test_rule_rejections(obj):
    with pytest.raises(FormatError):
        rl_rule_from_obj(obj, EquationDecoder())


def test_rule_roundtrip_every_kind():
    _, rules, _ = all_rules()
    for rule in rules:
        obj = json.loads(json.dumps(rl_rule_to_obj(rule)))
        assert rl_rule_from_obj(obj, EquationDecoder()) == rule


def test_document_shape_rejections():
    with pytest.raises(FormatError):
        reslin_from_obj({"axioms": []})
    with pytest.raises(FormatError):
        reslin_from_obj({"axioms": [], "lines": [{"disjunction": []}]})
    with pytest.raises(FormatError):
        EquationDecoder().disjunction({"not": "a list"})
