"""Unit and property tests for the polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycal.polyring import (
    FormatError,
    Monomial,
    Polynomial,
    UnboundVariable,
    as_scalar,
    boolean_axiom,
    ceil_log2,
    mono_from_obj,
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
    xvar,
    yvar,
)

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


def test_monomial_basics():
    m = Monomial(((x1, 2), (x2, 1)))
    assert m.degree == 3
    assert m.exponent(x1) == 2 and m.exponent(x3) == 0
    assert m.times_var(x1).exponent(x1) == 3
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
        mono_from_obj({"x1": True})


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
