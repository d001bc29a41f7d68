"""Unit and property tests for the polynomial layer."""

import copy
import gc
import pickle
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycal import polyring
from polycal.cli import canonical_json
from polycal.proofcore import proof_from_obj
from polycal.xlate import simulate_reslin_b
from polycal.polyring import (
    EXPONENT_LIMIT,
    NUMERAL_DIGIT_LIMIT,
    FormatError,
    Monomial,
    Polynomial,
    UnboundVariable,
    as_scalar,
    boolean_axiom,
    ceil_log2,
    int_from_str,
    multilinear_reduce,
    parse_var,
    poly_from_obj,
    require_bool,
    require_fields,
    require_index,
    require_int,
    require_int_str,
    poly_parse,
    poly_to_obj,
    scalar_bits,
    scalar_from_str,
    scalar_to_str,
    shown,
    xvar,
    yvar,
)
from reslin_corpus import bvp_splitting

x1, x2, x3 = xvar(1), xvar(2), xvar(3)
y1, y2 = yvar(1), yvar(2)
P = poly_parse


# -- scalars -----------------------------------------------------------------


def test_scalar_normalization():
    assert as_scalar(Fraction(4, 2)) == 2
    assert isinstance(as_scalar(Fraction(4, 2)), int)
    assert as_scalar(Fraction(1, 2)) == Fraction(1, 2)


def test_ceil_log2_frozen():
    # independently derived: smallest k with 2**k >= n
    def slow(n):
        k = 0
        while 2**k < n:
            k += 1
        return k

    for n in range(1, 300):
        assert ceil_log2(n) == slow(n)
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_scalar_bits_values():
    assert scalar_bits(1) == 0
    assert scalar_bits(-1) == 0
    assert scalar_bits(0) == 0
    assert scalar_bits(3) == 2
    assert scalar_bits(5) == 3
    assert scalar_bits(Fraction(1, 2)) == 1
    assert scalar_bits(Fraction(-3, 7)) == 2 + 3


def test_scalar_string_round_trip():
    for s in (0, 1, -7, Fraction(1, 2), Fraction(-22, 7)):
        assert scalar_from_str(scalar_to_str(s)) == s


@pytest.mark.parametrize(
    "bad", ["", "1/0", "2/4", "1/1", "-0", "007", "1/01", "+3", "1.5", "a", "12\n"]
)
def test_scalar_string_rejects_non_canonical(bad):
    with pytest.raises(FormatError):
        scalar_from_str(bad)


def test_scalar_strings_past_the_int_digit_limit():
    # Python refuses int <-> str conversions past 4300 digits by default.
    digits = "1" * 5000
    value = (10**5000 - 1) // 9
    cases = [
        (digits, value),
        ("-" + digits, -value),
        (digits + "/3", Fraction(value, 3)),
        ("1/" + digits, Fraction(1, value)),
    ]
    for text, scalar in cases:
        assert scalar_from_str(text) == scalar
        assert scalar_to_str(scalar) == text
    with pytest.raises(FormatError):
        scalar_from_str("0" + digits)


def test_numerals_past_the_digit_limit_are_refused_before_conversion():
    # Each would take seconds to convert; the length check refuses it at once.
    past = "9" * (NUMERAL_DIGIT_LIMIT + 1)
    message = f"numeral of {NUMERAL_DIGIT_LIMIT + 1} digits exceeds the limit"
    for text in (past, "-" + past):
        with pytest.raises(FormatError, match=message):
            int_from_str(text)
    for text in (past, "-" + past, "1/" + past, past + "/2"):
        with pytest.raises(FormatError, match=message):
            scalar_from_str(text)


def test_shown_is_repr_unless_repr_hits_the_int_digit_limit():
    for value in ["x1", 5, None, {"x1": 2}, [1, "a"]]:
        assert shown(value) == repr(value)
    big = 10**5000
    assert shown(big) == f"an integer of {big.bit_length()} bits"
    assert shown([1, big]) == "a list holding an integer too long to print"
    with pytest.raises(FormatError, match="got an integer of 16610 bits"):
        scalar_from_str(big)


# -- variables and monomials ---------------------------------------------------


def test_var_order_x_before_y():
    assert xvar(5) < yvar(1)
    assert xvar(1) < xvar(2)
    assert parse_var("y12") == yvar(12)
    with pytest.raises(FormatError):
        parse_var("x0")
    with pytest.raises(FormatError):
        parse_var("x01")
    with pytest.raises(FormatError):
        parse_var("z1")


@pytest.mark.parametrize("name", ["x1\n", "x1 ", " x1", "y2\n\n"])
def test_parse_var_matches_the_whole_name(name):
    with pytest.raises(FormatError):
        parse_var(name)
    parse_var(name.strip())  # the memo now holds the canonical name
    with pytest.raises(FormatError):
        parse_var(name)


def test_monomial_basics():
    m = Monomial(((x1, 2), (x2, 1)))
    assert m.degree == 3
    assert m.exponent(x1) == 2 and m.exponent(x3) == 0
    assert m.times(Monomial.of(x1)).exponent(x1) == 3
    assert m.without(x1).exponent(x1) == 1
    assert m.without(x1, 2).exponent(x1) == 0
    with pytest.raises(ValueError):
        m.without(x3)


def test_grlex_order():
    one = Monomial.one()
    assert one < Monomial.of(x1)
    assert Monomial.of(x2) < Monomial.of(x1)  # earlier variable wins ties
    assert Monomial.of(x1) < Monomial.of(x1, 2)
    assert Monomial(((x2, 2),)) < Monomial(((x1, 1), (x2, 1)))
    assert Monomial.of(y1) < Monomial.of(x1)
    ordering = sorted(
        [one, Monomial.of(x1), Monomial.of(x2), Monomial(((x1, 1), (x2, 1)))]
    )
    assert ordering == [
        one,
        Monomial.of(x2),
        Monomial.of(x1),
        Monomial(((x1, 1), (x2, 1))),
    ]


# -- the interned kernel -------------------------------------------------------

KERNEL_VARS = (xvar(1), xvar(2), xvar(4), yvar(1), yvar(3))
pair_lists = st.lists(
    st.tuples(st.sampled_from(KERNEL_VARS), st.integers(0, 3)), max_size=6
)
monomials = pair_lists.map(Monomial)


def reference_pairs(pairs):
    """Sort, then merge equal neighbours, then drop zero exponents."""
    merged = []
    for var, exp in sorted(pairs):
        if merged and merged[-1][0] == var:
            merged[-1] = (var, merged[-1][1] + exp)
        else:
            merged.append((var, exp))
    return tuple((var, exp) for var, exp in merged if exp)


def reference_key(pairs):
    """Graded lex as a sort key: degree, then the exponent vector in variable order."""
    exps = dict(pairs)
    return (sum(exps.values()), tuple(exps.get(v, 0) for v in KERNEL_VARS))


@given(pair_lists, pair_lists)
@settings(max_examples=200, deadline=None)
def test_interned_monomials_match_a_sort_and_merge(a, b):
    ma, mb = Monomial(a), Monomial(b)
    ref_a, ref_b = reference_pairs(a), reference_pairs(b)
    assert ma.pairs == ref_a
    assert ma.degree == sum(e for _, e in ref_a)
    built = (Monomial(list(reversed(a))), Monomial(ref_a), Monomial.one().times(ma),
             copy.copy(ma), pickle.loads(pickle.dumps(ma)),
             polyring.Decoder().mono(polyring.mono_to_obj(ma)))
    assert {hash(m) for m in built} == {hash(ma)}
    assert {ma: 1}[Monomial(a)] == 1
    assert (ma < mb) == (reference_key(ref_a) < reference_key(ref_b))
    assert (ma is mb) == (ref_a == ref_b) == (ma == mb)
    assert Monomial(list(reversed(a))) is ma
    assert ma.times(mb).pairs == reference_pairs(a + b)


@given(monomials, monomials, st.sampled_from(KERNEL_VARS), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_products_are_shared_and_invertible(a, b, var, exp):
    assert a.times(b) is b.times(a)
    assert a.times(b) is a.times(b)
    assert a.times(Monomial.of(var, exp)).without(var, exp) is a
    assert a.times(Monomial.of(var, 1)) is a.times(Monomial.of(var))


ORDER_VARS = (*(xvar(i) for i in range(1, 13)), *(yvar(i) for i in range(1, 13)))
# Few variables per monomial, so drawn lists often share a degree.
order_monomials = st.dictionaries(
    st.sampled_from(ORDER_VARS), st.integers(1, 3), max_size=3
).map(lambda exps: Monomial(exps.items()))


@given(st.lists(order_monomials, min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_graded_order_matches_a_dense_reference(monos):
    # Degree first, then the exponent vectors over the sorted union of
    # variables: the earliest variable with a larger exponent is larger.
    variables = sorted({v for m in monos for v in m.variables()})
    key = {m: (m.degree, [m.exponent(v) for v in variables]) for m in monos}
    for a in monos:
        for b in monos:
            assert (a < b) == (key[a] < key[b]), (a, b)
            assert (a < b) + (b < a) == (a is not b), (a, b)


# Besides KERNEL_VARS: x3 and y2 fall in its gaps, y7 after all of them.
INSERTED_VARS = (*KERNEL_VARS, xvar(3), yvar(2), yvar(7))


@given(monomials, st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_one_variable_products_match_a_sort_and_merge(m, exp):
    # Every variable is tried against every drawn m, the unit included:
    # present in m, absent between its variables, before and after them all.
    for var in INSERTED_VARS:
        product = m.times(Monomial.of(var, exp))
        assert product is Monomial(m.pairs + ((var, exp),)), (m, var)
        assert product.pairs == reference_pairs(m.pairs + ((var, exp),))
        assert product.degree == m.degree + exp == sum(e for _, e in product.pairs)
        assert m.times(Monomial.of(var, exp)) is product


@given(st.lists(st.sampled_from(INSERTED_VARS), max_size=6))
@settings(max_examples=200, deadline=None)
def test_products_of_variables_match_a_sort_and_merge(variables):
    # Distinct variables only sort; a repeated one merges into its power.
    product = Monomial.product(variables)
    assert product is Monomial([(var, 1) for var in variables])
    assert product.degree == len(variables)


def test_memoized_products_leave_no_cycle():
    a, b = Monomial.of(xvar(9011)), Monomial.of(xvar(9012))
    assert a.times(b) is b.times(a)
    gone = weakref.ref(a), weakref.ref(b), weakref.ref(a.times(b))
    gc.disable()  # reference counting alone must free them
    try:
        del a, b
        alive = [ref() for ref in gone]
    finally:
        gc.enable()
    assert alive == [None, None, None]


def test_a_monomial_built_again_has_one_live_entry():
    var = xvar(9021)
    gone = weakref.ref(Monomial.of(var, 2))
    assert gone() is None and ((var, 2),) not in polyring._INTERNED
    again = Monomial.of(var, 2)
    assert polyring._INTERNED[((var, 2),)]() is again
    assert Monomial([(var, 1), (var, 1)]) is again
    assert Monomial.of(var).times(Monomial.of(var)) is again
    assert Monomial.of(var, 3).without(var) is again

    # A callback that runs after the monomial dies, but before its entry's
    # own callback, builds it again: that live entry must stay.
    rebuilt = []
    doomed = Monomial.of(var, 4)
    watch = weakref.ref(doomed, lambda ref: rebuilt.append(Monomial.of(var, 4)))
    del doomed
    assert watch() is None and len(rebuilt) == 1
    assert polyring._INTERNED[((var, 4),)]() is rebuilt[0]
    assert Monomial.of(var, 4) is rebuilt[0]
    assert Monomial.of(var, 2).times(Monomial.of(var, 2)) is rebuilt[0]


def test_copies_and_pickles_keep_the_interned_monomial():
    built = Monomial(((x1, 2), (y1, 1)))
    poly = P("2*x1^2*y1 - 1/3*x2 + 5")
    assert copy.copy(built) is built
    assert copy.deepcopy(built) is built
    assert copy.deepcopy([built, built]) == [built, built]
    assert copy.copy(poly) == poly
    assert copy.deepcopy(poly) == poly
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(built, protocol)) is built
        assert pickle.loads(pickle.dumps(Monomial.one(), protocol)) is Monomial.one()
        assert pickle.loads(pickle.dumps(poly, protocol)) == poly
    output = simulate_reslin_b(*bvp_splitting(3))
    assert copy.deepcopy(output) == output
    assert pickle.loads(pickle.dumps(output)) == output


def test_negative_exponent_is_refused():
    with pytest.raises(ValueError):
        Monomial(((x1, -1),))
    with pytest.raises(ValueError):
        Monomial.of(x1, -1)


@given(
    st.integers(1, 3),
    st.sampled_from([bool, float, Fraction, lambda e: [e], str]),
)
@settings(max_examples=60, deadline=None)
def test_warm_decoder_still_validates_exponents(exp, lookalike):
    # True == 1.0 == Fraction(1) == 1, so these would hit a lookup keyed by value.
    for good in ({"x1": exp}, {"x1": 1, "y1": exp}):
        decoder = polyring.Decoder()
        warm = decoder.mono(good)
        assert decoder.mono(dict(good)) is warm
        bad = dict(good)
        bad[list(good)[-1]] = lookalike(exp)
        with pytest.raises(FormatError):
            decoder.mono(bad)


def test_intern_tables_drop_a_collected_proof():
    # Variables no other test uses, so only this proof holds their monomials.
    a, b, c = xvar(9001), xvar(9002), yvar(9003)
    line = P("x9001 + 2*x9002 - 1")
    proof = [line]
    for var in (a, b, c, a):
        proof.append(proof[-1].mul_var(var))
    proof.append(proof[-1] * proof[1])
    proof.extend(poly_from_obj(poly_to_obj(p)) for p in list(proof))
    del line

    def held():
        interned = [k for k in list(polyring._INTERNED.keys())
                    if {v for v, _ in k} & {a, b, c}]
        return interned

    assert held()
    del proof
    gc.collect()
    assert held() == []

    # A decoded document: the decoder's tables go with its decode call.
    term = {"coef": "2", "mono": {"x9004": 1, "y9005": 2}}
    doc = {
        "system": "extpcsqrt-q",
        "axioms": {
            "base": [{"terms": [term]}],
            "extensions": [
                {"var": "y9005", "def": {"terms": [{"coef": "1/2", "mono": {"x9004": 1}}]}}
            ],
        },
        "lines": [{"poly": {"terms": [term]}, "rule": {"type": "axiom", "index": 0}}],
    }
    decoded = proof_from_obj(doc)

    def decoded_held():
        return [k for k in list(polyring._INTERNED.keys())
                if {v for v, _ in k} & {xvar(9004), yvar(9005)}]

    assert decoded_held()
    del decoded
    gc.collect()
    assert decoded_held() == []


# -- polynomial arithmetic -----------------------------------------------------


def test_construction_is_canonical():
    assert P("x1 - x1") == Polynomial.zero()
    assert Polynomial(((Monomial.one(), Fraction(2, 2)),)) == Polynomial.constant(1)
    # construction order never matters
    a = Polynomial(((Monomial.of(x1), 1), (Monomial.of(x2), 2)))
    b = Polynomial(((Monomial.of(x2), 2), (Monomial.of(x1), 1)))
    assert a == b and hash(a) == hash(b)


def test_degree_sentinel():
    assert Polynomial.zero().degree == -1
    assert Polynomial.constant(5).degree == 0
    assert P("x1^3*x2 + x1").degree == 4


def test_zero_polynomial_measures():
    assert Polynomial.zero().bit_size() == 0
    assert Polynomial.zero().denominator_product() == 1
    assert Polynomial.zero().denominator_lcm() == 1


def test_frozen_size_examples():
    assert P("3*x1 + 5").bit_size() == 5
    assert P("1").bit_size() == 0
    assert P("-x1 + 1").bit_size() == 0
    assert P("1/2*x1 + 3").bit_size() == 3


def test_frozen_denominator_examples():
    assert P("1/2*x1 + 1/3*x2").denominator_product() == 6
    assert P("1/2*x1 + 1/2*x2").denominator_product() == 4
    assert P("1/2*x1 + 1/2*x2").denominator_lcm() == 2
    assert P("2*x1 + 3").denominator_product() == 1


def test_mul_and_substitute():
    p = P("x1 + 1") * P("x1 - 1")
    assert p == P("x1^2 - 1")
    q = P("y1^2").substitute({y1: P("x1 + 1")})
    assert q == P("x1^2 + 2*x1 + 1")
    # unbound variables pass through
    assert P("x1*y1").substitute({y1: P("2")}) == P("2*x1")


def test_substitute_scaling_round_trip():
    p = P("y1^2 - 1/3*y1*x1 + x1")
    scaled = p.substitute({y1: P("1/5*y1")})
    back = scaled.substitute({y1: P("5*y1")})
    assert back == p


def test_inexact_coefficients_are_refused():
    with pytest.raises(TypeError):
        Polynomial([(Monomial.of(x1), 1.5)])


def test_evaluate():
    assert P("1 + x1 + 2*x2").evaluate({x1: 0, x2: 1}) == 3
    assert P("1/2*x1").evaluate({x1: 3}) == Fraction(3, 2)
    with pytest.raises(UnboundVariable):
        P("x1 + x2").evaluate({x1: 0})


def test_is_integral():
    assert P("2*x1 - 1").is_integral()
    assert not P("1/2*x1").is_integral()


def test_constant_helpers():
    assert Polynomial.zero().is_constant()
    assert Polynomial.zero().constant_value() == 0
    assert P("7").constant_value() == 7
    with pytest.raises(ValueError):
        P("x1").constant_value()


# -- multilinear reduction -------------------------------------------------------


def test_reduce_frozen_examples():
    red, steps = multilinear_reduce(P("x1^2"), {x1})
    assert red == P("x1")
    assert steps == [(Monomial.one(), 1, x1)]
    red, steps = multilinear_reduce(P("x1^3"), {x1})
    assert red == P("x1")
    assert len(steps) == 2
    red, steps = multilinear_reduce(P("x1*x2"), {x1, x2})
    assert red == P("x1*x2") and steps == []


def test_reduce_skips_an_offender_cancelled_while_queued():
    # Rewriting x1^3 adds x1^2 and cancels the queued x1^2: one step, zero left.
    p = P("x1^3 - x1^2")
    red, steps = multilinear_reduce(p, {x1})
    assert red == Polynomial.zero()
    assert steps == [(Monomial.of(x1), 1, x1)]
    assert sum((boolean_axiom(v).mul_term(m, c) for m, c, v in steps), red) == p


def test_reduce_respects_variable_set():
    red, steps = multilinear_reduce(P("x1^2 + x2^2"), {x1})
    assert red == P("x1 + x2^2")
    assert len(steps) == 1


def test_reduce_identity_replay():
    p = P("5*x1^4*x2^2 - 7*x1*x2^5 + x2 - 3 + 1/2*x1^2")
    red, steps = multilinear_reduce(p, {x1, x2})
    recon = red
    for mono, coef, var in steps:
        recon = recon + boolean_axiom(var).mul_term(mono, coef)
    assert recon == p
    assert all(m.exponent(x1) <= 1 and m.exponent(x2) <= 1 for m, _ in red.terms())


@st.composite
def polynomials(draw, vars=(x1, x2, x3), max_terms=6, max_exp=3):
    n = draw(st.integers(0, max_terms))
    pairs = []
    for _ in range(n):
        mono = Monomial(
            [
                (v, draw(st.integers(0, max_exp)))
                for v in draw(st.sets(st.sampled_from(vars)))
            ]
        )
        coef = draw(
            st.one_of(
                st.integers(-9, 9),
                st.fractions(min_value=-3, max_value=3, max_denominator=6),
            )
        )
        pairs.append((mono, Fraction(coef)))
    return Polynomial(pairs)


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero() == a
    assert a * Polynomial.constant(1) == a
    assert a - a == Polynomial.zero()


def is_canonical(p):
    """No zero coefficient, and every integral one is an int, not a Fraction."""
    return all(
        c != 0 and (type(c) is int) == (c.denominator == 1) for c in p.term_map.values()
    )


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_every_sum_is_canonical(a, b, c):
    # Terms repeat, cancel, come in as integral Fractions and as zeros.
    pairs = [(m, Fraction(k)) for m, k in a.terms()]
    pairs += [(m, -k) for m, k in b.terms()] + [(m, 0) for m in c.term_map]
    built = Polynomial(pairs)
    assert is_canonical(built)
    assert built == a - b
    for result in (a + b, a - b, a * b, b * c, a.substitute({x3: b, x1: c})):
        assert is_canonical(result)


points = st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=3)] * 3)


@given(polynomials(), polynomials(), points)
@settings(max_examples=60, deadline=None)
def test_substitute_agrees_with_evaluation(p, q, point):
    at = dict(zip((x1, x2, x3), point))
    substituted = p.substitute({x3: q})
    assert is_canonical(substituted)
    assert substituted.evaluate(at) == p.evaluate({**at, x3: q.evaluate(at)})


@given(polynomials())
@settings(max_examples=40, deadline=None)
def test_reduce_agrees_on_boolean_points(p):
    red, _ = multilinear_reduce(p, {x1, x2, x3})
    for bits in range(8):
        point = {x1: bits & 1, x2: (bits >> 1) & 1, x3: (bits >> 2) & 1}
        assert p.evaluate(point) == red.evaluate(point)


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_canonical_form_law(a, b):
    # structural equality iff equal as functions (checked on a grid)
    if a == b:
        for bits in range(8):
            point = {x1: bits & 1, x2: (bits >> 1) & 1, x3: 2 - (bits >> 2)}
            assert a.evaluate(point) == b.evaluate(point)
    else:
        diff = a - b
        assert not diff.is_zero()


@pytest.mark.parametrize("text", ["x1^-1", "1/-2", "2*x1^", "1/", "1/0"])
def test_poly_parse_refuses_signed_or_empty_exponents_and_denominators(text):
    with pytest.raises(FormatError, match=re.escape(text)):
        P(text)


# -- serialization ---------------------------------------------------------------


def test_poly_json_round_trip():
    p = P("2*x1^2*y1 - x1 + 1/2")
    obj = poly_to_obj(p)
    assert obj == {
        "terms": [
            {"coef": "2", "mono": {"x1": 2, "y1": 1}},
            {"coef": "-1", "mono": {"x1": 1}},
            {"coef": "1/2", "mono": {}},
        ]
    }
    assert poly_from_obj(obj) == p
    assert poly_to_obj(Polynomial.zero()) == {"terms": []}


@pytest.mark.parametrize(
    "bad",
    [
        {"terms": [{"coef": "0", "mono": {"x1": 1}}]},
        {"terms": [{"coef": "2/4", "mono": {}}]},
        {"terms": [{"coef": "1", "mono": {"x1": 0}}]},
        {"terms": [{"coef": "1", "mono": {"x0": 1}}]},
        {"terms": [{"coef": "1", "mono": {"x1": 1}}, {"coef": "2", "mono": {"x1": 1}}]},
        {"terms": [{"coef": "1"}]},
        {"poly": []},
        [],
    ],
)
def test_poly_json_rejects_non_canonical(bad):
    with pytest.raises(FormatError):
        poly_from_obj(bad)


def test_mono_json_rejects_bool_exponent():
    with pytest.raises(FormatError):
        polyring.Decoder().mono({"x1": True})


def test_validators_accept_plain_values():
    assert require_fields({"a": 1}, {"a"}, "thing") == {"a": 1}
    assert require_int(-3, "thing") == -3
    assert require_index(0, "thing") == 0
    assert require_int_str("-12", "thing") == -12
    assert require_bool(False, "thing") is False


@pytest.mark.parametrize(
    "validate, value",
    [
        (lambda v: require_fields(v, {"a"}, "thing"), {"a": 1, "b": 2}),
        (lambda v: require_fields(v, {"a"}, "thing"), ["a"]),
        (lambda v: require_int(v, "thing"), True),
        (lambda v: require_int(v, "thing"), "1"),
        (lambda v: require_index(v, "thing"), -1),
        (lambda v: require_index(v, "thing"), False),
        (lambda v: require_int_str(v, "thing"), "1/2"),
        (lambda v: require_bool(v, "thing"), 1),
    ],
)
def test_validators_reject_and_name_the_field(validate, value):
    with pytest.raises(FormatError, match="thing"):
        validate(value)


@given(polynomials())
@settings(max_examples=40, deadline=None)
def test_poly_json_round_trip_property(p):
    assert poly_from_obj(poly_to_obj(p)) == p


# Names that share prefixes: JSON sorts x1 < x10 < x100 and y10 < y9 as strings.
PREFIXED_VARS = tuple(map(parse_var, ("x1", "x10", "x100", "y9", "y10")))
prefixed_polynomials = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(PREFIXED_VARS), st.integers(1, EXPONENT_LIMIT)),
        st.one_of(st.integers(-10**30, 10**30),
                  st.fractions(max_denominator=10**6)),
    ),
    max_size=6,
).map(lambda terms: Polynomial((Monomial(mono.items()), coef) for mono, coef in terms))


@given(st.lists(prefixed_polynomials, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_encoder_writes_canonical_json(polys):
    # One encoder for all of them, as proof_chunks uses one per document.
    encoder = polyring.Encoder()
    for p in polys:
        assert encoder.poly(p) == canonical_json(poly_to_obj(p))[:-1]


BAD_MONOMIALS = [
    ({"x1": True}, "exponent of x1 must be a positive integer"),
    ({"x1": 1.0}, "exponent of x1 must be a positive integer"),
    ({"y1": 2, "x1": True}, "exponent of x1 must be a positive integer"),
    ({"x1": True, "y1": 2}, "exponent of x1 must be a positive integer"),
    ({"x1": 1, "y1": 0}, "exponent of y1 must be a positive integer"),
    ({"x1": 1, "y1": EXPONENT_LIMIT + 1},
     f"exponent of y1 exceeds the limit {EXPONENT_LIMIT}"),
    ({"x1": 1, "x01": 1}, "malformed variable name 'x01'"),
    ({"x1": 1, "z1": 1}, "malformed variable name 'z1'"),
]


@pytest.mark.parametrize("bad, message", BAD_MONOMIALS)
def test_a_warm_decoder_refuses_as_a_cold_one(bad, message):
    # The warm decoder holds the objects {"x1": 1} and {"y1": 2, "x1": 1} and
    # their items; True and 1.0 equal 1, so without the exact-int check the
    # first three would hit its object table and the fourth its item table.
    warm = polyring.Decoder()
    warm.mono({"x1": 1})
    warm.mono({"y1": 2, "x1": 1})
    for decoder in (polyring.Decoder(), warm, warm):
        with pytest.raises(FormatError) as raised:
            decoder.mono(bad)
        assert str(raised.value) == message
    assert warm.mono({"x1": 1, "y1": 2}) is Monomial(((x1, 1), (y1, 2)))
