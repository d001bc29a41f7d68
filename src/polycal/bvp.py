"""Binary value principle instances and the oracle refutation.

The instance for n variables says a weighted sum of bits is negative:

    G  = 1 + x1 + 2 x2 + ... + 2^(n-1) xn
    Fi = xi^2 - xi                          (i = 1..n)

No 0/1 point satisfies G = 0, so the axiom set {G, F1..Fn} is refutable.
The oracle refutation works over the integers and ends in the constant
(2^n)!:

  * S = G - 1 takes every value 0..2^n-1 on the boolean cube, so
    P(S) = prod_k (S - k) vanishes there.  As univariate polynomials,
    P(T) - (2^n)! = (T + 1) Q(T) with Q monic, found by synthetic
    division, so Q(S) * G = P(S) - (2^n)!.
  * Horner's scheme derives Q(S) * G from the G axiom: each level
    multiplies the running line by S (one MulVar per bit and a weighted
    combination) and adds the next coefficient of Q times G.
  * Right after each multiplication, boolean-axiom multiples cancel the
    squared monomials, so every level ends multilinear.  A multilinear
    polynomial that vanishes on the cube is zero, so the last level is
    reduce(P(S)) - (2^n)! = -(2^n)!, and one scaling by -1 ends the proof.

Boolean-axiom multiples come from the builder's memoized
`monomial_multiple`, so levels share them, and each level's are summed
with the builder's balanced combination tree.  Lines grow about fivefold
per bit (1,017 at n = 4), so the generator refuses n above a cost limit
unless forced.

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
    FormatError,
    Monomial,
    Polynomial,
    VarId,
    as_scalar,
    boolean_axiom,
    ceil_log2,
    int_to_str,
    multilinear_reduce,
    parse_var,
    poly_from_obj,
    poly_to_obj,
    require_bool,
    require_fields,
    require_int_str,
    xvar,
)
from .proofcore import AxiomSet, ProofBuilder, ProofLine, SystemKind

# At n = 6 the document is 24,181 lines and 29 MB and the CLI refutes it in
# about 3 s.  n = 7 writes 265 MB in about 8 s at 180 MB of peak RSS, but
# `check` and `trace` of that document peak at 1,117 MB: n = 7 needs force.
COST_LIMIT = 6
SIEVE_LIMIT = 1 << 24


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
    pairs = [(Monomial.one(), 1)]
    pairs.extend((Monomial.of(xvar(i)), 1 << (i - 1)) for i in range(1, n + 1))
    return BvpInstance(
        n=n,
        equation=Polynomial(pairs),
        booleans=tuple(boolean_axiom(xvar(i)) for i in range(1, n + 1)),
    )


def _falling_product_coeffs(count: int) -> list[int]:
    """Coefficients of prod_{k=0}^{count-1} (T - k), lowest degree first."""
    coeffs = [1]
    for k in range(count):
        shifted = [0] + coeffs
        coeffs = [s - k * c for s, c in zip(shifted, coeffs + [0])]
    return coeffs


def _divide_by_t_plus_one(coeffs: list[int]) -> list[int]:
    """Quotient of an exact division by (T + 1), lowest degree first."""
    quotient = [0] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        quotient[i] = carry
        carry = coeffs[i] - carry
    if carry != 0:
        raise ArithmeticError("division by T + 1 left a remainder")
    return quotient


def brute_force_refutation(
    n: int, force: bool = False
) -> tuple[AxiomSet, list[ProofLine]]:
    """Refute the n-bit instance over the integers, ending in (2^n)!.

    Line counts grow about fivefold per bit; values past COST_LIMIT need
    force=True.
    """
    if n > COST_LIMIT and not force:
        raise CostGuard(
            f"n = {n} exceeds the cost limit {COST_LIMIT}; pass force to override"
        )
    axioms = gen_bvp(n).axiom_set()
    builder = ProofBuilder(axioms, SystemKind.PCSQRT_Z)
    boolean_vars = frozenset(xvar(i) for i in range(1, n + 1))

    count = 1 << n
    shifted = _falling_product_coeffs(count)
    shifted[0] -= math.factorial(count)
    quotient = _divide_by_t_plus_one(shifted)  # monic, so Horner starts at G

    equation_line = builder.axiom_line(0)
    acc = equation_line
    for c in reversed(quotient[:-1]):
        # acc * S: one MulVar per bit, then the weighted sum of those lines.
        sliding = [builder.mul_var(acc, xvar(j)) for j in range(1, n + 1)]
        acc = sliding[0]
        for j in range(1, n):
            acc = builder.lincomb(acc, sliding[j], 1, 1 << j)
        # Cancel the squared monomials with boolean-axiom multiples.
        _, steps = multilinear_reduce(builder.poly_at(acc), boolean_vars)
        parts = []
        for step in steps:
            multiple = builder.monomial_multiple(
                builder.axiom_line(step.variable.index), step.monomial
            )
            if step.coefficient != 1:
                multiple = builder.scale_line(multiple, step.coefficient)
            parts.append(multiple)
        acc = builder.lincomb(acc, builder.sum_lines(parts), 1, -1)
        if c:
            acc = builder.lincomb(acc, equation_line, 1, c)
    acc = builder.scale_line(acc, -1)

    if builder.poly_at(acc) != Polynomial.constant(math.factorial(count)):
        raise ArithmeticError("the Horner lines failed to reduce to (2^n)!")
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


def _integral(value, what: str) -> int:
    value = as_scalar(value)
    if isinstance(value, Fraction):
        raise NonIntegralExtensionValue(f"{what} evaluates to the non-integer {value}")
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
        value = _integral(
            extension.definition.evaluate(assignment), extension.var.name
        )
        assignment[extension.var] = value
        extension_values.append((extension.var, value))

    residues = tuple(
        _integral(line.poly.evaluate(assignment), f"line {index}") % modulus
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


def instance_to_obj(instance: BvpInstance) -> dict[str, object]:
    return {
        "n": instance.n,
        "base": [poly_to_obj(p) for p in (instance.equation,) + instance.booleans],
    }


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
