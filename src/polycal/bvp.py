"""Binary value principle instances and the oracle refutation.

The instance for n variables says a weighted sum of bits is negative:

    G  = 1 + x1 + 2 x2 + ... + 2^(n-1) xn
    Fi = xi^2 - xi                          (i = 1..n)

No 0/1 point satisfies G = 0, so the axiom set {G, F1..Fn} is refutable.
The oracle refutation works over the integers and ends in C = (2^n)!:

  * On the boolean cube G takes the values 1..2^n, so g = C / G is an
    integer at every point.  Its multilinear interpolation
    g = sum_T c_T x_T, with x_T the product of the variables in T, has
    integer coefficients: the Moebius transform of g's 2^n values.
  * Each x_T * G is a monomial multiple of the G axiom.  Where i is in T,
    c_T x_T G holds the squared term c_T 2^(i-1) x_T x_i, and the boolean
    multiple x_(T-i) * Fi = x_T x_i - x_T lowers it to x_T.  So
    sum_T c_T x_T G - sum_(T, i in T) c_T 2^(i-1) x_(T-i) Fi is
    multilinear, and it equals g G = C on the cube.  A multilinear
    polynomial is fixed by its values on the cube, so the sum is the
    constant C.

Every multiple comes from the builder's `monomial_multiple`, one MulVar
line per step the builder does not hold yet, and one balanced combination
tree sums them with their weights.  The proof is (n + 2) * 2^n - 1 lines
of degree n + 1 (95 at n = 4), but C's coefficients grow with n, so the
document's bytes grow about five-fold per bit and the generator refuses n
above a cost limit unless forced.

The audit and trace operations document why that final constant must be
huge: every prime p <= 2^n divides it.  The audit checks the divisibilities
directly; the trace fixes one prime q = k + 1, evaluates the whole proof at
the 0/1 point encoding k, and reports every line's residue mod q.  At that
point G evaluates to q and the boolean axioms to 0, so each line of an
integer-scalar proof must evaluate to a multiple of q.

Report JSON renders every integer as a decimal string; the values here
outgrow what other tooling reads back from JSON numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polyring import (
    Encoder,
    FormatError,
    Monomial,
    Polynomial,
    UnboundVariable,
    VarId,
    as_scalar,
    boolean_axiom,
    ceil_log2,
    int_to_str,
    json_parse,
    parse_var,
    poly_from_obj,
    require_bool,
    require_fields,
    require_int_str,
    shown_scalar,
    xvar,
)
from .proofcore import AxiomSet, ProofBuilder, ProofLine, SystemKind

# At n = 8 the document is 2,559 lines and 8.4 MB, and `check` takes about
# 0.33 s at 41 MB of peak RSS.  n = 9 writes 5,631 lines and 43 MB, and
# `check` of it takes about 0.77 s at 120 MB (Python 3.11 on a 2-core VM,
# through the CLI): n = 9 needs force.
COST_LIMIT = 8
SIEVE_LIMIT = 1 << 24
# The largest bit width gen_bvp builds.  The instance grows as n^2: at this
# limit it is 3.0 MB and `gen-bvp` writes it in about 0.3 s, while from
# n = 14,286 each further coefficient 2^(i-1) passes 4,300 digits and is
# written through the quadratic decimal fallback.
WIDTH_LIMIT = 4096


class CostGuard(Exception):
    """The requested instance is past the default cost limit."""


class SieveGuard(Exception):
    """The requested sieve bound is past the supported range."""


class ZeroConstant(Exception):
    """A divisibility audit was asked about the constant zero."""


class KPlusOneNotPrime(Exception):
    """The trace modulus k + 1 is composite, so residue logic breaks down."""


class NonIntegralExtensionValue(Exception):
    """A value at the trace point came out non-integral."""


class UnassignedVariable(ValueError):
    """A line or extension mentions a variable the trace point does not assign."""


@dataclass(frozen=True)
class BvpInstance:
    n: int
    equation: Polynomial
    booleans: tuple[Polynomial, ...]

    def axiom_set(self) -> AxiomSet:
        return AxiomSet(base=(self.equation,) + self.booleans)


def gen_bvp(n: int) -> BvpInstance:
    """The instance for n bits; base axiom order is [G, F1, ..., Fn]."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > WIDTH_LIMIT:
        raise ValueError(f"n = {n} exceeds the width limit {WIDTH_LIMIT}")
    pairs = [(Monomial.one(), 1)]
    pairs.extend((Monomial.of(xvar(i)), 1 << (i - 1)) for i in range(1, n + 1))
    return BvpInstance(
        n=n,
        equation=Polynomial(pairs),
        booleans=tuple(boolean_axiom(xvar(i)) for i in range(1, n + 1)),
    )


def brute_force_refutation(
    n: int, force: bool = False
) -> tuple[AxiomSet, list[ProofLine]]:
    """Refute the n-bit instance over the integers, ending in (2^n)!.

    (n + 2) * 2^n - 1 lines of degree n + 1, so line counts grow about
    2.2-fold per bit; values past COST_LIMIT need force=True.
    """
    if n > COST_LIMIT and not force:
        raise CostGuard(
            f"n = {n} exceeds the cost limit {COST_LIMIT}; pass force to override"
        )
    axioms = gen_bvp(n).axiom_set()
    builder = ProofBuilder(axioms, SystemKind.PCSQRT_Z)

    count = 1 << n
    constant = math.factorial(count)
    # g's values at the points, indexed by the bits they set, then the
    # Moebius transform in place: coeffs[T] becomes the coefficient of x_T.
    coeffs = [constant // (k + 1) for k in range(count)]
    for bit in (1 << i for i in range(n)):
        for mask in range(count):
            if mask & bit:
                coeffs[mask] -= coeffs[mask ^ bit]

    equation_line = builder.axiom_line(0)
    leaves = []
    for mask, c in enumerate(coeffs):
        bits = [i for i in range(1, n + 1) if mask >> (i - 1) & 1]
        x_t = Monomial.product(xvar(i) for i in bits)
        leaves.append((builder.monomial_multiple(equation_line, x_t), c))
        for i in bits:
            source = builder.axiom_line(i)
            multiple = builder.monomial_multiple(source, x_t.without(xvar(i)))
            leaves.append((multiple, -c << (i - 1)))
    total = builder.sum_lines(leaves)

    if builder.poly_at(total) != Polynomial.constant(constant):
        raise ArithmeticError("the interpolation failed to reduce to (2^n)!")
    return axioms, builder.lines


# -- prime utilities -----------------------------------------------------------


def primes_below(bound: int) -> list[int]:
    """All primes strictly below bound; bound is capped by SIEVE_LIMIT."""
    if bound > SIEVE_LIMIT:
        raise SieveGuard(f"sieve bound {bound} exceeds the limit {SIEVE_LIMIT}")
    if bound <= 2:
        return []
    flags = bytearray([1]) * bound
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(bound - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return [i for i in range(bound) if flags[i]]


def is_prime(m: int) -> bool:
    """Trial division; meant for the small moduli the trace uses."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    for d in range(3, math.isqrt(m) + 1, 2):
        if m % d == 0:
            return False
    return True


def primorial_bits(bound: int) -> int:
    """ceil(log2) of the product of all primes below bound."""
    return ceil_log2(math.prod(primes_below(bound), start=1))


def factorial_bits(m: int) -> int:
    """ceil(log2 m!)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return ceil_log2(math.factorial(m))


# -- divisibility audit --------------------------------------------------------


@dataclass(frozen=True)
class AuditCheck:
    prime: int
    divides: bool


@dataclass(frozen=True)
class AuditReport:
    n: int
    constant: int
    bit_length: int
    checks: tuple[AuditCheck, ...]
    all_divide: bool


def audit_divisibility(constant: int, n: int) -> AuditReport:
    """Check the final constant against every prime p <= 2^n."""
    if not isinstance(constant, int) or isinstance(constant, bool):
        raise ValueError("the audited constant must be an integer")
    if constant == 0:
        raise ZeroConstant("the zero constant ends no refutation")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer")
    # Refused before 1 << n is built: the shift alone grows with n.
    if n > (SIEVE_LIMIT - 1).bit_length() - 1:
        raise SieveGuard(
            f"n = {n} needs primes up to 2^{n}, past the sieve limit {SIEVE_LIMIT}"
        )
    magnitude = abs(constant)
    checks = tuple(
        AuditCheck(p, magnitude % p == 0) for p in primes_below((1 << n) + 1)
    )
    return AuditReport(
        n=n,
        constant=constant,
        bit_length=ceil_log2(magnitude),
        checks=checks,
        all_divide=all(c.divides for c in checks),
    )


# -- residue trace -------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    n: int
    k: int
    modulus: int
    assignment: tuple[tuple[VarId, int], ...]
    extension_values: tuple[tuple[VarId, int], ...]
    residues: tuple[int, ...]
    all_zero: bool


def _value_at(poly: Polynomial, assignment: dict[VarId, int], what: str) -> int:
    """poly at the trace point; what names the line or extension it is."""
    try:
        value = as_scalar(poly.evaluate(assignment))
    except UnboundVariable as exc:
        raise UnassignedVariable(
            f"{what} mentions {exc.args[0]}, which the trace point does not assign"
        ) from None
    if isinstance(value, Fraction):
        raise NonIntegralExtensionValue(f"{what} evaluates to the non-integer "
                                        + shown_scalar(value))
    return value


def trace_mod_check(
    axioms: AxiomSet, proof: Sequence[ProofLine], n: int, k: int
) -> TraceReport:
    """Evaluate a refutation of the n-bit instance at the point encoding k.

    Requires the prime modulus q = k + 1 and the exact generated base; the
    caller is expected to have checked the proof already.  Each line's value
    at the point is reported mod q, and for integer-scalar proofs they are
    all zero, which is the per-prime certificate behind the audit.
    """
    # Cheapest first: nothing below does work in proportion to n until the
    # base has shown that n matches the document.
    if not (k >= 0 and k.bit_length() <= n):
        raise ValueError(f"k must lie in [0, 2^{n})")
    if (
        len(axioms.base) != n + 1
        or axioms.base != gen_bvp(n).axiom_set().base
    ):
        raise ValueError("the base axioms are not the generated instance")
    modulus = k + 1
    if not is_prime(modulus):
        raise KPlusOneNotPrime(f"k + 1 = {modulus} is not prime")

    assignment: dict[VarId, int] = {
        xvar(i): (k >> (i - 1)) & 1 for i in range(1, n + 1)
    }
    extension_values = []
    for extension in axioms.extensions:
        what = f"extension {extension.var.name}"
        value = _value_at(extension.definition, assignment, what)
        assignment[extension.var] = value
        extension_values.append((extension.var, value))

    residues = tuple(
        _value_at(line.poly, assignment, f"line {index}") % modulus
        for index, line in enumerate(proof)
    )
    return TraceReport(
        n=n,
        k=k,
        modulus=modulus,
        assignment=tuple(
            sorted((v, b) for v, b in assignment.items() if v.kind == "x")
        ),
        extension_values=tuple(extension_values),
        residues=residues,
        all_zero=all(r == 0 for r in residues),
    )


# -- serialization -------------------------------------------------------------


def instance_text(instance: BvpInstance) -> str:
    """The instance document's canonical text: {"base":[...],"n":n} with keys
    sorted, no whitespace and a final newline, every polynomial written by
    one Encoder."""
    poly_text = Encoder().poly
    base = ",".join([poly_text(p) for p in (instance.equation,) + instance.booleans])
    return f'{{"base":[{base}],"n":{int_to_str(instance.n)}}}\n'


def instance_to_obj(instance: BvpInstance) -> dict[str, object]:
    """The instance document as JSON objects: the parse of instance_text."""
    return json_parse(instance_text(instance))  # type: ignore[return-value]


def instance_from_obj(obj: object) -> BvpInstance:
    require_fields(obj, {"n", "base"}, "instance")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError("'n' must be a positive integer")
    base = obj["base"]
    if not isinstance(base, list) or len(base) != n + 1:
        raise FormatError("'base' must list the equation and n boolean axioms")
    polys = [poly_from_obj(p) for p in base]
    instance = gen_bvp(n)
    if tuple(polys) != (instance.equation,) + instance.booleans:
        raise FormatError("'base' does not match the generated instance")
    return instance


def audit_report_to_obj(report: AuditReport) -> dict[str, object]:
    return {
        "n": int_to_str(report.n),
        "constant": int_to_str(report.constant),
        "bit_length": int_to_str(report.bit_length),
        "checks": [
            {"prime": int_to_str(c.prime), "divides": c.divides} for c in report.checks
        ],
        "all_divide": report.all_divide,
    }


def trace_report_to_obj(report: TraceReport) -> dict[str, object]:
    return {
        "n": int_to_str(report.n),
        "k": int_to_str(report.k),
        "modulus": int_to_str(report.modulus),
        "assignment": {v.name: int_to_str(b) for v, b in report.assignment},
        "extension_values": {
            v.name: int_to_str(b) for v, b in report.extension_values
        },
        "residues": [int_to_str(r) for r in report.residues],
        "all_zero": report.all_zero,
    }


def audit_report_from_obj(obj: object) -> AuditReport:
    fields = {"n", "constant", "bit_length", "checks", "all_divide"}
    require_fields(obj, fields, "audit report")
    checks_obj = obj["checks"]
    if not isinstance(checks_obj, list):
        raise FormatError("'checks' must be a list")
    checks = []
    for entry in checks_obj:
        require_fields(entry, {"prime", "divides"}, "check")
        checks.append(
            AuditCheck(
                prime=require_int_str(entry["prime"], "'prime'"),
                divides=require_bool(entry["divides"], "'divides'"),
            )
        )
    return AuditReport(
        n=require_int_str(obj["n"], "'n'"),
        constant=require_int_str(obj["constant"], "'constant'"),
        bit_length=require_int_str(obj["bit_length"], "'bit_length'"),
        checks=tuple(checks),
        all_divide=require_bool(obj["all_divide"], "'all_divide'"),
    )


def trace_report_from_obj(obj: object) -> TraceReport:
    fields = {"n", "k", "modulus", "assignment", "extension_values", "residues", "all_zero"}
    require_fields(obj, fields, "trace report")
    residues_obj = obj["residues"]
    if not isinstance(residues_obj, list):
        raise FormatError("'residues' must be a list")
    values = {}
    for what in ("assignment", "extension_values"):
        if not isinstance(obj[what], dict):
            raise FormatError(f"'{what}' must be an object")
        values[what] = tuple(
            sorted(
                (parse_var(name), require_int_str(v, f"'{what}'"))
                for name, v in obj[what].items()
            )
        )
    return TraceReport(
        n=require_int_str(obj["n"], "'n'"),
        k=require_int_str(obj["k"], "'k'"),
        modulus=require_int_str(obj["modulus"], "'modulus'"),
        assignment=values["assignment"],
        extension_values=values["extension_values"],
        residues=tuple(require_int_str(r, "'residues'") for r in residues_obj),
        all_zero=require_bool(obj["all_zero"], "'all_zero'"),
    )
