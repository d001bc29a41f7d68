"""Tests for instance generation, the oracle refutation, audits, and traces."""

import json
import math
import time

import pytest

import polycal.bvp as bvp
from polycal.bvp import (
    AuditReport,
    CostGuard,
    KPlusOneNotPrime,
    NonIntegralExtensionValue,
    SieveGuard,
    UnassignedVariable,
    ZeroConstant,
    audit_divisibility,
    audit_report_from_obj,
    audit_report_to_obj,
    brute_force_refutation,
    factorial_bits,
    gen_bvp,
    instance_from_obj,
    instance_to_obj,
    is_prime,
    primes_below,
    primorial_bits,
    trace_mod_check,
    trace_report_from_obj,
    trace_report_to_obj,
)
from polycal.polyring import FormatError, Polynomial, poly_parse, xvar, yvar
from polycal.proofcore import (
    AxiomSet,
    Axiom,
    ExtensionAxiom,
    LinComb,
    MulVar,
    ProofLine,
    Sqrt,
    SystemKind,
    check_refutation,
)


def test_gen_bvp_frozen():
    instance = gen_bvp(3)
    assert instance.equation == poly_parse("4*x3 + 2*x2 + x1 + 1")
    assert instance.booleans == (
        poly_parse("x1^2 - x1"),
        poly_parse("x2^2 - x2"),
        poly_parse("x3^2 - x3"),
    )
    base = instance.axiom_set().base
    assert base[0] == instance.equation
    assert base[1:] == instance.booleans
    assert instance.axiom_set().extensions == ()


@pytest.mark.parametrize("n", [0, -1, True, "2", bvp.WIDTH_LIMIT + 1])
def test_gen_bvp_rejects(n):
    with pytest.raises(ValueError):
        gen_bvp(n)


@pytest.mark.parametrize(
    "n,constant", [(1, 2), (2, 24), (3, 40320)]
)
def test_oracle_refutation_small(n, constant):
    axioms, proof = brute_force_refutation(n)
    report = check_refutation(axioms, proof, SystemKind.PCSQRT_Z)
    assert report.valid, report.error
    assert report.final_constant == constant == math.factorial(2**n)
    assert not any(isinstance(line.rule, Sqrt) for line in proof)


def test_oracle_deterministic():
    first = brute_force_refutation(2)
    second = brute_force_refutation(2)
    assert first == second


# Exact sizes of the interpolation, so that a change cannot silently regrow
# the proof: n + 1 axioms, 2^n - 1 multiples of G, n * (2^(n-1) - 1) boolean
# multiples and a tree that sums the 2^n + n * 2^(n-1) weighted lines among
# them, (n + 2) * 2^n - 1 lines of degree n + 1.  Every weight rides in a
# combination of two lines, so no line only scales another: none is
# LinComb(k, k, c, 0).
@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_size_pinned(n):
    _, proof = brute_force_refutation(n)
    assert len(proof) == (n + 2) * 2**n - 1
    assert max(line.poly.degree for line in proof) == n + 1
    if n == 4:
        assert sum(len(line.poly) for line in proof) == 401
    rules = [line.rule for line in proof]
    assert not [r for r in rules if isinstance(r, LinComb) and r.j == r.k and r.beta == 0]


def test_oracle_n5_refutes_audits_and_traces_within_budget():
    start = time.perf_counter()
    axioms, proof = brute_force_refutation(5)
    report = check_refutation(axioms, proof, SystemKind.PCSQRT_Z)
    assert report.valid, report.error
    assert report.final_constant == math.factorial(32)
    assert audit_divisibility(report.final_constant, 5).all_divide
    points = [k for k in range(32) if is_prime(k + 1)]
    assert len(points) == 11
    for k in points:
        assert trace_mod_check(axioms, proof, 5, k).all_zero, k
    assert time.perf_counter() - start < 10


def test_cost_guard(monkeypatch):
    monkeypatch.setattr(bvp, "COST_LIMIT", 1)
    with pytest.raises(CostGuard):
        brute_force_refutation(2)
    axioms, proof = brute_force_refutation(2, force=True)
    assert check_refutation(axioms, proof, SystemKind.PCSQRT_Z).valid


# -- prime utilities -----------------------------------------------------------


def test_primes_below_frozen():
    assert primes_below(8) == [2, 3, 5, 7]
    assert primes_below(7) == [2, 3, 5]
    assert primes_below(3) == [2]
    assert primes_below(2) == []
    assert primes_below(0) == []


def test_primes_below_matches_trial_division():
    assert primes_below(200) == [m for m in range(200) if is_prime(m)]


def test_sieve_guard():
    with pytest.raises(SieveGuard):
        primes_below((1 << 24) + 1)


@pytest.mark.parametrize("limit, widest", [(16, 3), (17, 4), (32, 4), (33, 5)])
def test_audit_refuses_n_past_the_sieve_limit(monkeypatch, limit, widest):
    # The widest n whose bound 2^n + 1 is within the limit is audited.
    monkeypatch.setattr(bvp, "SIEVE_LIMIT", limit)
    assert audit_divisibility(2, widest).checks[-1].prime <= 1 << widest
    with pytest.raises(SieveGuard, match=f"n = {widest + 1} "):
        audit_divisibility(2, widest + 1)


def test_is_prime_small():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert is_prime(97) and not is_prime(91)


def test_bit_measures_frozen():
    assert primorial_bits(8) == 8
    assert primorial_bits(2) == 0
    assert factorial_bits(8) == 16
    assert factorial_bits(1) == 0
    assert factorial_bits(0) == 0


def test_growth_laws_hold_on_small_samples():
    for n in range(3, 9):
        assert factorial_bits(1 << n) >= 1 << n
        assert primorial_bits(1 << n) >= 1 << (n - 1)


# -- divisibility audit --------------------------------------------------------


def test_audit_frozen_n3():
    report = audit_divisibility(40320, 3)
    assert [(c.prime, c.divides) for c in report.checks] == [
        (2, True),
        (3, True),
        (5, True),
        (7, True),
    ]
    assert report.all_divide
    assert report.bit_length == 16


def test_audit_prime_bound_is_inclusive():
    report = audit_divisibility(2, 1)
    assert [c.prime for c in report.checks] == [2]
    assert report.all_divide


def test_audit_detects_missing_prime():
    report = audit_divisibility(7, 2)
    assert [(c.prime, c.divides) for c in report.checks] == [(2, False), (3, False)]
    assert not report.all_divide


def test_audit_uses_magnitude():
    report = audit_divisibility(-40320, 3)
    assert report.all_divide and report.bit_length == 16


def test_audit_rejections():
    with pytest.raises(ZeroConstant):
        audit_divisibility(0, 3)
    with pytest.raises(ValueError):
        audit_divisibility(6, 0)
    with pytest.raises(ValueError):
        audit_divisibility("6", 2)


# -- residue trace -------------------------------------------------------------


def oracle2():
    return brute_force_refutation(2)


def test_trace_all_primes_n2():
    axioms, proof = oracle2()
    for k in (1, 2):
        report = trace_mod_check(axioms, proof, 2, k)
        assert report.modulus == k + 1
        assert report.all_zero
        assert len(report.residues) == len(proof)
        assert report.residues[-1] == 0


def test_trace_point_frozen():
    axioms, proof = oracle2()
    report = trace_mod_check(axioms, proof, 2, 1)
    assert report.assignment == ((xvar(1), 1), (xvar(2), 0))
    report2 = trace_mod_check(axioms, proof, 2, 2)
    assert report2.assignment == ((xvar(1), 0), (xvar(2), 1))


def test_trace_rejects_composite_modulus():
    axioms, proof = oracle2()
    with pytest.raises(KPlusOneNotPrime):
        trace_mod_check(axioms, proof, 2, 0)
    with pytest.raises(KPlusOneNotPrime):
        trace_mod_check(axioms, proof, 2, 3)


def test_trace_range_and_base_preconditions():
    axioms, proof = oracle2()
    with pytest.raises(ValueError):
        trace_mod_check(axioms, proof, 2, 4)
    with pytest.raises(ValueError):
        trace_mod_check(axioms, proof, 2, -1)
    with pytest.raises(ValueError):
        trace_mod_check(gen_bvp(3).axiom_set(), proof, 2, 1)


def test_trace_reports_extension_values():
    base = gen_bvp(2).axiom_set().base
    axioms = AxiomSet(
        base=base, extensions=(ExtensionAxiom(yvar(1), poly_parse("x1 + x2")),)
    )
    proof = [ProofLine(base[0], Axiom(0))]
    report = trace_mod_check(axioms, proof, 2, 1)
    assert report.extension_values == ((yvar(1), 1),)
    assert report.all_zero


def test_trace_non_integral_extension():
    base = gen_bvp(2).axiom_set().base
    axioms = AxiomSet(
        base=base, extensions=(ExtensionAxiom(yvar(1), poly_parse("1/2*x1")),)
    )
    proof = [ProofLine(base[0], Axiom(0))]
    with pytest.raises(NonIntegralExtensionValue):
        trace_mod_check(axioms, proof, 2, 1)


def test_trace_non_integral_line_value():
    axioms = gen_bvp(2).axiom_set()
    proof = [ProofLine(poly_parse("1/2*x1"), Axiom(0))]
    with pytest.raises(NonIntegralExtensionValue):
        trace_mod_check(axioms, proof, 2, 1)


def test_trace_names_a_variable_the_point_does_not_assign():
    # The point assigns only x1 and x2.
    base = gen_bvp(2).axiom_set().base
    x9 = xvar(9)
    axiom = ProofLine(base[0], Axiom(0))
    unbound = ProofLine(base[0].mul_var(x9), MulVar(0, x9))
    with pytest.raises(UnassignedVariable, match="^line 1 mentions x9,"):
        trace_mod_check(AxiomSet(base=base), [axiom, unbound], 2, 1)
    axioms = AxiomSet(
        base=base, extensions=(ExtensionAxiom(yvar(1), poly_parse("x1 + x9")),)
    )
    with pytest.raises(UnassignedVariable, match="^extension y1 mentions x9,"):
        trace_mod_check(axioms, [axiom], 2, 1)


def test_trace_nonzero_residue_reported():
    axioms = gen_bvp(2).axiom_set()
    proof = [ProofLine(Polynomial.constant(5), Axiom(0))]
    report = trace_mod_check(axioms, proof, 2, 1)
    assert report.residues == (1,)
    assert not report.all_zero


# -- serialization -------------------------------------------------------------


def test_instance_roundtrip():
    instance = gen_bvp(3)
    obj = instance_to_obj(instance)
    assert obj["n"] == 3 and isinstance(obj["n"], int)
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    back = instance_from_obj(json.loads(text))
    assert back == instance


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("n"),
        lambda obj: obj.update(n=0),
        lambda obj: obj.update(n=4),
        lambda obj: obj["base"].pop(),
        lambda obj: obj["base"].reverse(),
        lambda obj: obj.update(extra=1),
    ],
)
def test_instance_rejections(mutate):
    obj = instance_to_obj(gen_bvp(2))
    mutate(obj)
    with pytest.raises(FormatError):
        instance_from_obj(obj)


def test_audit_report_obj_frozen():
    obj = audit_report_to_obj(audit_divisibility(2, 1))
    assert obj == {
        "n": "1",
        "constant": "2",
        "bit_length": "1",
        "checks": [{"prime": "2", "divides": True}],
        "all_divide": True,
    }


def test_reports_round_trip_past_the_int_digit_limit():
    constant = math.factorial(2000)  # 5736 decimal digits
    audit = audit_divisibility(constant, 4)
    obj = json.loads(json.dumps(audit_report_to_obj(audit)))
    assert len(obj["constant"]) > 5000
    assert audit_report_from_obj(obj) == audit

    big = 10**5000
    base = gen_bvp(2).axiom_set().base
    definition = Polynomial.variable(xvar(1)).scale(big)
    axioms = AxiomSet(base=base, extensions=(ExtensionAxiom(yvar(1), definition),))
    trace = trace_mod_check(axioms, [ProofLine(base[0], Axiom(0))], 2, 1)
    obj = json.loads(json.dumps(trace_report_to_obj(trace)))
    assert obj["extension_values"] == {"y1": "1" + "0" * 5000}
    assert trace_report_from_obj(obj) == trace


@pytest.mark.parametrize(
    "which, field, value, message",
    [
        ("audit", "checks", {}, "'checks' must be a list"),
        ("trace", "residues", "0", "'residues' must be a list"),
        ("trace", "assignment", [], "'assignment' must be an object"),
        ("trace", "extension_values", None, "'extension_values' must be an object"),
    ],
)
def test_report_decoders_name_the_bad_container(which, field, value, message):
    axioms, proof = oracle2()
    if which == "audit":
        obj, decode = audit_report_to_obj(audit_divisibility(2, 1)), audit_report_from_obj
    else:
        obj = trace_report_to_obj(trace_mod_check(axioms, proof, 2, 2))
        decode = trace_report_from_obj
    obj[field] = value
    with pytest.raises(FormatError) as info:
        decode(obj)
    assert str(info.value) == message


def test_trace_report_obj_strings():
    axioms, proof = oracle2()
    obj = trace_report_to_obj(trace_mod_check(axioms, proof, 2, 2))
    assert obj["n"] == "2" and obj["k"] == "2" and obj["modulus"] == "3"
    assert obj["assignment"] == {"x1": "0", "x2": "1"}
    assert obj["extension_values"] == {}
    assert all(isinstance(r, str) for r in obj["residues"])
    assert obj["all_zero"] is True
