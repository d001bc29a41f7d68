"""Line-by-line checking of algebraic refutations.

A proof is a sequence of lines, each a polynomial (asserted equal to zero)
plus the rule that justifies it:

  Axiom(i)                 copy of the i-th axiom (base axioms first, then
                           extension axioms as var - definition)
  LinComb(j, k, a, b)      a * line[j] + b * line[k]
  MulVar(k, v)             v * line[k]
  Sqrt(k)                  a square root: line^2 == line[k]

Which rules and scalars are admissible depends on the proof system
(`SystemKind`): proofs over the integers restrict every scalar and line
coefficient to ints, square roots may be forbidden, extension axioms may be
forbidden or restricted to affine definitions, and the accepted final line
is either exactly 1 (field systems) or any nonzero constant (ring systems).

Checking is sequential with first-error semantics: the report carries the
earliest offending line index, a stable error code, and a message.  Failures
of the axiom set itself are reported at the sentinel line index -1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

from .polyring import (
    Decoder,
    Encoder,
    FormatError,
    Monomial,
    Polynomial,
    Scalar,
    VarId,
    as_scalar,
    int_to_str,
    json_parse,
    max_degree,
    parse_var,
    require_bool,
    require_fields,
    require_index,
    require_int,
    scalar_bits,
    scalar_from_str,
    scalar_to_str,
    shown,
    shown_scalar,
)


class SystemKind(Enum):
    """Proof system flavor; the value is the wire name."""

    PC_Q = "pc-q"
    PCSQRT_Q = "pcsqrt-q"
    PCSQRT_Z = "pcsqrt-z"
    EXTPCSQRT_Q = "extpcsqrt-q"
    EXTPCSQRT_Z = "extpcsqrt-z"
    SPS_PC_Q = "spspc-q"

    @property
    def allows_sqrt(self) -> bool:
        return self not in (SystemKind.PC_Q, SystemKind.SPS_PC_Q)

    @property
    def requires_integers(self) -> bool:
        return self in (SystemKind.PCSQRT_Z, SystemKind.EXTPCSQRT_Z)

    @property
    def allows_extensions(self) -> bool:
        return self is not SystemKind.PC_Q

    @property
    def affine_extensions_only(self) -> bool:
        return self is SystemKind.SPS_PC_Q

    @property
    def final_must_be_one(self) -> bool:
        """Field systems end in exactly 1; ring systems in any nonzero constant."""
        return self in (SystemKind.PC_Q, SystemKind.SPS_PC_Q)


# The per-line records, Axiom to ExtensionAxiom, are slotted, hashed by value, never
# written after construction (tests/test_records.py) and not frozen: __init__ stores.


class Record:
    """Base of the per-line records: pickle refuses protocols 0 and 1 for a
    slotted class that is not frozen, unless it has a __reduce__."""

    __slots__ = ()

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(unsafe_hash=True, slots=True)
class Axiom(Record):
    index: int


@dataclass(unsafe_hash=True, slots=True)
class LinComb(Record):
    j: int
    k: int
    alpha: Scalar
    beta: Scalar


@dataclass(unsafe_hash=True, slots=True)
class MulVar(Record):
    k: int
    var: VarId


@dataclass(unsafe_hash=True, slots=True)
class Sqrt(Record):
    k: int


StepRule = Union[Axiom, LinComb, MulVar, Sqrt]


@dataclass(unsafe_hash=True, slots=True)
class ProofLine(Record):
    poly: Polynomial
    rule: StepRule


@dataclass(unsafe_hash=True, slots=True)
class ExtensionAxiom(Record):
    """A definition var := definition, used as the axiom var - definition."""

    var: VarId
    definition: Polynomial

    @property
    def polynomial(self) -> Polynomial:
        return Polynomial.variable(self.var) - self.definition


@dataclass(frozen=True)
class AxiomSet:
    base: tuple[Polynomial, ...]
    extensions: tuple[ExtensionAxiom, ...] = ()

    def all_polynomials(self) -> list[Polynomial]:
        """Base axioms followed by extension axioms, the Axiom-rule index space."""
        return [*self.base, *(ext.polynomial for ext in self.extensions)]


@dataclass(frozen=True)
class CheckError:
    line: int  # -1 for axiom-set-level failures
    code: str
    message: str


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    error: Optional[CheckError]
    final_constant: Optional[Scalar]
    total_size: int
    degree: int
    line_count: int


def validate_axiom_set(axioms: AxiomSet, kind: SystemKind) -> Optional[CheckError]:
    """Check the axiom set against the system's structural rules."""

    def fail(code: str, message: str) -> CheckError:
        return CheckError(-1, code, message)

    if axioms.extensions and not kind.allows_extensions:
        return fail(
            "ExtensionForbidden",
            f"{kind.value} does not admit extension axioms",
        )
    if kind.requires_integers:
        for i, poly in enumerate(axioms.base):
            if not poly.is_integral():
                return fail(
                    "NonIntegerCoefficient",
                    f"base axiom {i} has a non-integer coefficient",
                )
    defined: set[VarId] = set()
    last_index = 0
    for pos, ext in enumerate(axioms.extensions):
        if ext.var.kind != "y":
            return fail(
                "ExtensionOrderViolation",
                f"extension {pos} must define a y-variable, got {ext.var.name}",
            )
        if ext.var.index <= last_index:
            return fail(
                "ExtensionOrderViolation",
                f"extension variables must have strictly increasing indices "
                f"({ext.var.name} after y{last_index})",
            )
        for var in ext.definition.variables():
            if var.kind == "y" and var not in defined:
                return fail(
                    "ExtensionOrderViolation",
                    f"definition of {ext.var.name} mentions {var.name}, "
                    f"which is not defined earlier",
                )
        if kind.requires_integers and not ext.definition.is_integral():
            return fail(
                "NonIntegerCoefficient",
                f"definition of {ext.var.name} has a non-integer coefficient",
            )
        if kind.affine_extensions_only and ext.definition.degree > 1:
            return fail(
                "ExtensionNotAffine",
                f"definition of {ext.var.name} has degree "
                f"{ext.definition.degree}, affine required",
            )
        defined.add(ext.var)
        last_index = ext.var.index
    return None


def _scalar_ok(value: Scalar, kind: SystemKind) -> bool:
    return not kind.requires_integers or not (
        isinstance(value, Fraction) and value.denominator != 1
    )


def _first_difference(claimed: Polynomial, expected: Polynomial) -> str:
    """The first monomial, in graded order, where two unequal polynomials
    differ, with both coefficients; only a rejection pays for it."""
    mono = max(
        m
        for m in claimed.term_map.keys() | expected.term_map.keys()
        if claimed.coefficient(m) != expected.coefficient(m)
    )
    return (
        f"first differing monomial {mono!r}: claimed "
        f"{shown_scalar(claimed.coefficient(mono))}, "
        f"expected {shown_scalar(expected.coefficient(mono))}"
    )


def _verify_line(
    prefix: Sequence[ProofLine],
    index: int,
    line: ProofLine,
    pool: Sequence[Polynomial],
    kind: SystemKind,
) -> Optional[CheckError]:
    """Verify one line against the lines before it.  prefix[:index] is visible.

    pool is axioms.all_polynomials(), built once by the caller.  m -> m*var
    is one-to-one and keeps each coefficient, so finding each premise term
    times var among as many claimed terms judges a MulVar line; the product
    is built only to word a rejection.
    """

    def fail(code: str, message: str) -> CheckError:
        return CheckError(index, code, message)

    if kind.requires_integers and not line.poly.is_integral():
        return fail(
            "NonIntegerCoefficient",
            f"line {index} has a non-integer coefficient",
        )
    rule = line.rule
    if isinstance(rule, Axiom):
        if not 0 <= rule.index < len(pool):
            return fail(
                "BadIndex", f"axiom index {int_to_str(rule.index)} out of range"
            )
        if line.poly != pool[rule.index]:
            return fail(
                "AxiomNotInSet",
                f"line {index} does not match axiom {rule.index}",
            )
        return None
    if isinstance(rule, LinComb):
        if not (0 <= rule.j < index and 0 <= rule.k < index):
            return fail(
                "BadIndex",
                f"linear combination cites lines {int_to_str(rule.j)},"
                f"{int_to_str(rule.k)} at line {index}",
            )
        alpha, beta = as_scalar(rule.alpha), as_scalar(rule.beta)
        if not (_scalar_ok(alpha, kind) and _scalar_ok(beta, kind)):
            return fail(
                "NonIntegerScalar",
                f"{kind.value} requires integer scalars, got "
                f"{shown_scalar(alpha)}, {shown_scalar(beta)}",
            )
        expected = prefix[rule.j].poly.scale(alpha).add(
            prefix[rule.k].poly.scale(beta)
        )
        if line.poly != expected:
            return fail(
                "RuleMismatch",
                f"line {index} is not the claimed linear combination; "
                + _first_difference(line.poly, expected),
            )
        return None
    if isinstance(rule, MulVar):
        if not 0 <= rule.k < index:
            return fail(
                "BadIndex", f"multiplication cites line {int_to_str(rule.k)}"
            )
        premise = prefix[rule.k].poly.term_map
        claimed = line.poly.term_map
        if len(claimed) == len(premise):
            factor = Monomial.of(rule.var)
            for mono, coef in premise.items():
                if claimed.get(mono.times(factor)) != coef:
                    break
            else:
                return None
        return fail(
            "RuleMismatch",
            f"line {index} is not line {rule.k} times {rule.var.name}; "
            + _first_difference(line.poly, prefix[rule.k].poly.mul_var(rule.var)),
        )
    if isinstance(rule, Sqrt):
        if not kind.allows_sqrt:
            return fail(
                "SqrtForbidden", f"{kind.value} does not admit square roots"
            )
        if not 0 <= rule.k < index:
            return fail("BadIndex", f"square root cites line {int_to_str(rule.k)}")
        squared = line.poly.square()
        if squared != prefix[rule.k].poly:
            return fail(
                "SqrtMismatch",
                f"line {index} squared does not equal line {rule.k}; "
                + _first_difference(squared, prefix[rule.k].poly),
            )
        return None
    raise TypeError(f"unknown rule {rule!r}")


def check_step(
    prefix: Sequence[ProofLine],
    line: ProofLine,
    axioms: AxiomSet,
    kind: SystemKind,
) -> Optional[CheckError]:
    """Verify a single candidate line given the already-accepted prefix."""
    return _verify_line(prefix, len(prefix), line, axioms.all_polynomials(), kind)


def measure(proof: Sequence[ProofLine]) -> tuple[int, int, int]:
    """(total bit size, max degree, line count); zero lines never feed the max.

    The total is the sum of every line's bit_size, but each distinct
    coefficient is measured once and weighed by the number of its terms.
    """
    counts = Counter(chain.from_iterable(line.poly.term_map.values() for line in proof))
    total = sum(scalar_bits(value) * count for value, count in counts.items())
    degree = max_degree(line.poly for line in proof)
    return total, degree, len(proof)


def refutation_verdict(
    axioms: AxiomSet, proof: Sequence[ProofLine], kind: SystemKind
) -> Union[CheckError, Scalar]:
    """The first CheckError of the lines and the final-line condition, or
    else the final constant: check_refutation without measure."""
    if not proof:
        raise ValueError("a refutation needs at least one line")
    error = validate_axiom_set(axioms, kind)
    if error is not None:
        return error
    pool = axioms.all_polynomials()
    for index, line in enumerate(proof):
        error = _verify_line(proof, index, line, pool, kind)
        if error is not None:
            return error
    last = proof[-1].poly
    last_index = len(proof) - 1
    if not last.is_constant():
        return CheckError(last_index, "FinalNotConstant", "final line is not a constant")
    final = last.constant_value()
    if final == 0:
        return CheckError(last_index, "FinalZero", "final constant is zero")
    if kind.final_must_be_one and final != 1:
        return CheckError(
            last_index,
            "FinalNotOne",
            f"{kind.value} must end in 1, got {shown_scalar(final)}",
        )
    return final


def check_refutation(
    axioms: AxiomSet, proof: Sequence[ProofLine], kind: SystemKind
) -> CheckReport:
    """Check every line and the final-line condition; first error wins."""
    return verdict_report(refutation_verdict(axioms, proof, kind), proof)


def verdict_report(
    verdict: Union[CheckError, Scalar], proof: Sequence[ProofLine]
) -> CheckReport:
    """The CheckReport of proof, given its refutation_verdict: the verdict
    plus measure."""
    failed = isinstance(verdict, CheckError)
    total_size, degree, line_count = measure(proof)
    return CheckReport(valid=not failed, error=verdict if failed else None,
                       final_constant=None if failed else verdict, total_size=total_size,
                       degree=degree, line_count=line_count)


class ProofBuildError(Exception):
    """A builder step violated the target system's rules (internal defect)."""


class ProofBuilder:
    """Accumulates a derivation, computing rule results so lines check by
    construction.  Raw `append` re-verifies the line with the checker, and
    square roots go through it after the decoder's bounds: only the checker
    judges a root, and none is emitted that a document could not carry.
    The builder never appends a step it already has: `axiom_line`, `lincomb`
    and `mul_var` return the line of a repeated rule and append nothing."""

    def __init__(self, axioms: AxiomSet, kind: SystemKind):
        error = validate_axiom_set(axioms, kind)
        if error is not None:
            raise ProofBuildError(f"{error.code}: {error.message}")
        self.axioms = axioms
        self.kind = kind
        self.lines: list[ProofLine] = []
        # Each appended Axiom, LinComb and MulVar step, keyed on its fields:
        # (index,), (j, k, alpha, beta) or (k, var), to its line.
        self._steps: dict[tuple, int] = {}
        self._pool = axioms.all_polynomials()
        self._ext_position = {
            ext.var: len(axioms.base) + i
            for i, ext in enumerate(axioms.extensions)
        }

    def __len__(self) -> int:
        return len(self.lines)

    def poly_at(self, index: int) -> Polynomial:
        return self.lines[index].poly

    def append(self, poly: Polynomial, rule: StepRule) -> int:
        line = ProofLine(poly, rule)
        error = _verify_line(self.lines, len(self.lines), line, self._pool, self.kind)
        if error is not None:
            raise ProofBuildError(f"{error.code}: {error.message}")
        self.lines.append(line)
        return len(self.lines) - 1

    def _new_step(self, key: tuple, rule: StepRule, poly: Polynomial) -> int:
        """Append poly with rule as the line of the step key."""
        self.lines.append(ProofLine(poly, rule))
        line = self._steps[key] = len(self.lines) - 1
        return line

    def axiom_line(self, index: int) -> int:
        line = self._steps.get((index,))
        if line is None:
            if not 0 <= index < len(self._pool):
                raise ProofBuildError(f"BadIndex: axiom {index} out of range")
            line = self._new_step((index,), Axiom(index), self._pool[index])
        return line

    def extension_line(self, var: VarId) -> int:
        position = self._ext_position.get(var)
        if position is None:
            raise ProofBuildError(f"BadIndex: no extension axiom for {var.name}")
        return self.axiom_line(position)

    def lincomb(self, j: int, k: int, alpha: Scalar, beta: Scalar) -> int:
        alpha, beta = as_scalar(alpha), as_scalar(beta)
        key = (j, k, alpha, beta)
        line = self._steps.get(key)
        if line is None:
            if not (_scalar_ok(alpha, self.kind) and _scalar_ok(beta, self.kind)):
                raise ProofBuildError(
                    f"NonIntegerScalar: {scalar_to_str(alpha)}, {scalar_to_str(beta)}"
                )
            poly = self.poly_at(j).scale(alpha).add(self.poly_at(k).scale(beta))
            line = self._new_step(key, LinComb(*key), poly)
        return line

    def scale_line(self, k: int, factor: Scalar) -> int:
        """The line factor * line k; a factor of 1 gives k, not a copy of it."""
        if factor == 1:
            return k
        return self.lincomb(k, k, factor, 0)

    def mul_var(self, k: int, var: VarId) -> int:
        line = self._steps.get((k, var))
        if line is None:
            line = self._new_step((k, var), MulVar(k, var), self.poly_at(k).mul_var(var))
        return line

    def monomial_multiple(self, source: int, mono: Monomial) -> int:
        """Line holding mono * line[source]; mono == 1 gives source itself.

        One `mul_var` per variable occurrence, in canonical order, so every
        partial product is a proof line, and multiples of one source that
        share a prefix share its lines.
        """
        line = source
        for var in (v for v, e in mono.pairs for _ in range(e)):
            line = self.mul_var(line, var)
        return line

    def known_multiple(self, source: int, mono: Monomial) -> Optional[int]:
        """monomial_multiple(source, mono) if that appends nothing, else None."""
        line = source
        for var in (v for v, e in mono.pairs for _ in range(e)):
            if (line := self._steps.get((line, var))) is None:
                return None
        return line

    def sqrt_of(self, k: int, root: Polynomial) -> int:
        _bound_root(len(self.lines), root)
        return self.append(root, Sqrt(k))

    def sum_lines(self, terms: Sequence[tuple[int, Scalar]]) -> int:
        """Line holding the sum of c * line[k] over the (k, c) of terms.

        A balanced tree of pairwise LinComb steps, k - 1 lines for k >= 2
        terms: each scalar goes into the first combination that uses its
        line, so no line only scales another.
        """
        if len(terms) < 2:
            raise ProofBuildError("BadIndex: a sum needs at least two terms")
        layer = list(terms)
        while len(layer) > 1:
            merged = [
                (self.lincomb(j, k, a, b), 1)
                for (j, a), (k, b) in zip(layer[::2], layer[1::2])
            ]
            if len(layer) % 2:
                merged.append(layer[-1])
            layer = merged
        return layer[0][0]


# -- serialization ------------------------------------------------------------


# Bounds on a square-root line of T terms, which the checker squares
# with T^2 products of coefficients and of monomials.  A coefficient product
# costs more the more bits its factors have (a fraction also pays a gcd,
# quadratic in its bits), and a monomial product the more variables it
# merges.  So the limits bound T, T times the root's coefficient bits
# (`Polynomial.bit_size`) and T times its variable occurrences summed over
# its terms.  `check` of a root at these limits takes at most about 1 s
# through the CLI (Python 3.11 on a 2-core VM).  No generator emits a root
# of more than 2 terms, and ProofBuilder.sqrt_of refuses one past the limits.
SQRT_TERM_LIMIT = 256
SQRT_BIT_LIMIT = 2**18
SQRT_WIDTH_LIMIT = 2**18

_AXIOM_FIELDS = frozenset({"type", "index"})
_LINCOMB_FIELDS = frozenset({"type", "j", "k", "alpha", "beta"})
_MULVAR_FIELDS = frozenset({"type", "k", "var"})
_SQRT_FIELDS = frozenset({"type", "k"})
_AXIOMS_FIELDS = frozenset({"base", "extensions"})
_EXTENSION_FIELDS = frozenset({"var", "def"})
_PROOF_FIELDS = frozenset({"system", "axioms", "lines"})
_LINE_FIELDS = frozenset({"poly", "rule"})


def _rule_to_json(rule: StepRule) -> str:
    """The rule's text: a JSON object with keys in sorted order, scalars as
    scalar_to_str strings, indices as numbers and the variable by name."""
    if isinstance(rule, LinComb):
        return (
            f'{{"alpha":"{scalar_to_str(rule.alpha)}","beta":"{scalar_to_str(rule.beta)}",'
            f'"j":{int_to_str(rule.j)},"k":{int_to_str(rule.k)},"type":"lincomb"}}'
        )
    if isinstance(rule, MulVar):
        return f'{{"k":{int_to_str(rule.k)},"type":"mulvar","var":"{rule.var.name}"}}'
    if isinstance(rule, Axiom):
        return f'{{"index":{int_to_str(rule.index)},"type":"axiom"}}'
    if isinstance(rule, Sqrt):
        return f'{{"k":{int_to_str(rule.k)},"type":"sqrt"}}'
    raise TypeError(f"unknown rule {rule!r}")


def rule_from_obj(obj: object, decoder: Decoder) -> StepRule:
    if not isinstance(obj, dict) or "type" not in obj:
        raise FormatError(f"rule must be an object with a 'type', got {shown(obj)}")
    kind = obj["type"]
    if kind == "axiom":
        require_fields(obj, _AXIOM_FIELDS, "axiom rule")
        return Axiom(require_index(obj["index"], "axiom index"))
    if kind == "lincomb":
        require_fields(obj, _LINCOMB_FIELDS, "lincomb rule")
        return LinComb(
            require_index(obj["j"], "lincomb j"),
            require_index(obj["k"], "lincomb k"),
            decoder.scalar(obj["alpha"]),
            decoder.scalar(obj["beta"]),
        )
    if kind == "mulvar":
        require_fields(obj, _MULVAR_FIELDS, "mulvar rule")
        return MulVar(require_index(obj["k"], "mulvar k"), parse_var(obj["var"]))
    if kind == "sqrt":
        require_fields(obj, _SQRT_FIELDS, "sqrt rule")
        return Sqrt(require_index(obj["k"], "sqrt k"))
    raise FormatError(f"unknown rule type {shown(kind)}")


def axioms_from_obj(obj: object, decoder: Decoder) -> AxiomSet:
    require_fields(obj, _AXIOMS_FIELDS, "axioms")
    base = obj["base"]
    extensions = obj["extensions"]
    if not isinstance(base, list) or not isinstance(extensions, list):
        raise FormatError("'base' and 'extensions' must be arrays")
    exts = []
    for entry in extensions:
        require_fields(entry, _EXTENSION_FIELDS, "extension")
        var = parse_var(entry["var"])
        if var.kind != "y":
            raise FormatError(f"extension variable must be y<k>, got {var.name}")
        exts.append(ExtensionAxiom(var, decoder.poly(entry["def"])))
    return AxiomSet(
        tuple(decoder.poly(p) for p in base),
        tuple(exts),
    )


def proof_chunks(
    kind: SystemKind, axioms: AxiomSet, proof: Sequence[ProofLine]
) -> Iterator[str]:
    """The proof document's canonical text in pieces: keys sorted, no
    whitespace, ending in a newline, so canonical_json of its parse gives
    it back.  This text defines the document; proof_from_obj reads it.

    One piece per axiom and per line, so a large proof is written without
    building its object tree or its whole text.  The pieces are templates,
    not json.dumps of each line's objects: on the n=8 splitting chain they
    write the Q document about four times faster.  One Encoder writes every
    polynomial, so each distinct monomial's text is made once.
    """
    poly_text = Encoder().poly
    yield '{"axioms":{"base":['
    for i, poly in enumerate(axioms.base):
        yield ("," if i else "") + poly_text(poly)
    yield '],"extensions":['
    for i, ext in enumerate(axioms.extensions):
        yield (
            f'{"," if i else ""}{{"def":{poly_text(ext.definition)},'
            f'"var":"{ext.var.name}"}}'
        )
    yield ']},"lines":['
    for i, line in enumerate(proof):
        yield (
            f'{"," if i else ""}{{"poly":{poly_text(line.poly)},'
            f'"rule":{_rule_to_json(line.rule)}}}'
        )
    yield f'],"system":"{kind.value}"}}\n'


def proof_to_obj(
    kind: SystemKind, axioms: AxiomSet, proof: Sequence[ProofLine]
) -> dict[str, object]:
    """The proof document as JSON objects: the parse of proof_chunks."""
    text = "".join(proof_chunks(kind, axioms, proof))
    return json_parse(text)  # type: ignore[return-value]


def _bound_root(index: int, root: Polynomial) -> None:
    """Refuse a square root past SQRT_TERM_LIMIT, SQRT_BIT_LIMIT or
    SQRT_WIDTH_LIMIT: the decoder for the roots it reads, and the builder
    for those it emits, so no generator writes a root the decoder refuses."""
    terms = len(root)
    if terms > SQRT_TERM_LIMIT:
        raise FormatError(
            f"square root at line {index} of {terms} terms exceeds "
            f"the limit {SQRT_TERM_LIMIT}"
        )
    for amount, what, limit in (
        (root.bit_size(), "coefficient bits", SQRT_BIT_LIMIT),
        (sum(len(m.pairs) for m in root.term_map), "variable occurrences",
         SQRT_WIDTH_LIMIT),
    ):
        if terms * amount > limit:
            raise FormatError(
                f"square root at line {index} of {terms} terms and {amount} "
                f"{what} exceeds the limit {limit} on their product"
            )


def proof_from_obj(obj: object) -> tuple[SystemKind, AxiomSet, list[ProofLine]]:
    """Decode a proof document; one Decoder serves all of its lines.

    Decoding takes the lines out of obj: each entry of obj["lines"] is set to
    None once it is decoded, so a line's JSON is freed as its ProofLine is
    built and the document's tree and its decoded proof are never alive
    together.  Keep a copy of obj if it is needed afterwards.
    """
    require_fields(obj, _PROOF_FIELDS, "proof")
    try:
        kind = SystemKind(obj["system"])
    except ValueError:
        raise FormatError(f"unknown system {shown(obj['system'])}") from None
    decoder = Decoder()
    axioms = axioms_from_obj(obj["axioms"], decoder)
    raw_lines = obj["lines"]
    if not isinstance(raw_lines, list):
        raise FormatError("'lines' must be an array")
    lines = []
    for index, entry in enumerate(raw_lines):
        require_fields(entry, _LINE_FIELDS, "proof line")
        line = ProofLine(decoder.poly(entry["poly"]), rule_from_obj(entry["rule"], decoder))
        if isinstance(line.rule, Sqrt):
            _bound_root(index, line.poly)
        lines.append(line)
        raw_lines[index] = None
    return kind, axioms, lines


def error_to_obj(error: Optional[CheckError]) -> Optional[dict[str, object]]:
    if error is None:
        return None
    return {"line": error.line, "code": error.code, "message": error.message}


def error_from_obj(obj: object) -> Optional[CheckError]:
    if obj is None:
        return None
    require_fields(obj, {"line", "code", "message"}, "error")
    return CheckError(
        require_int(obj["line"], "error line"), str(obj["code"]), str(obj["message"])
    )


def report_to_obj(report: CheckReport) -> dict[str, object]:
    return {
        "valid": report.valid,
        "error": error_to_obj(report.error),
        "final_constant": None
        if report.final_constant is None
        else scalar_to_str(report.final_constant),
        "total_size": report.total_size,
        "degree": report.degree,
        "line_count": report.line_count,
    }


def report_from_obj(obj: object) -> CheckReport:
    fields = {"valid", "error", "final_constant", "total_size", "degree", "line_count"}
    require_fields(obj, fields, "report")
    final = obj["final_constant"]
    return CheckReport(
        valid=require_bool(obj["valid"], "'valid'"),
        error=error_from_obj(obj["error"]),
        final_constant=None if final is None else scalar_from_str(final),
        total_size=require_index(obj["total_size"], "total_size"),
        degree=require_int(obj["degree"], "degree"),
        line_count=require_index(obj["line_count"], "line_count"),
    )
