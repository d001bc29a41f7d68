"""Resolution over integer linear equations.

Lines are disjunctions of equations ``a . x = a0`` with integer
coefficients over x-variables.  Positions inside a disjunction are kept
(rules cite disjuncts by position) but the checker compares disjunctions as
multisets, so permuting disjuncts never changes a verdict.

Rules:

  RlAxiom(i)                       copy of the i-th input disjunction
  RlBooleanAxiom(v)                (v = 0) or (v = 1)
  RlResolution(j,k,dj,dk,a,b)      resolve line j's disjunct dj with line
                                   k's disjunct dk into a*L1 + b*L2
                                   (integer a, b; combined coefficientwise
                                   including the constant)
  RlWeakening(j, eq)               append one more disjunct
  RlSimplification(j, d)           drop disjunct d, a constant equation
                                   0 = c with c != 0
  RlContraction(j, d1, d2)         drop one of two equal disjuncts

A refutation ends in the empty disjunction.  The size measures count only
variable coefficients, never the constant terms: unary size sums |a_i|,
binary size sums ceil(log2 |a_i|).

Equations are interned as monomials are: while anything holds an equation,
every way of building it returns that one object, so ``==`` and hash are
identity and cost no walk over the coefficients.  The checker compares
disjunctions as multisets of object ids.

The registry maps each distinct affine form ``a . x - a0`` seen anywhere in
the axioms or the proof to a fresh y-variable, in first-occurrence order;
`product_monomial` rewrites a disjunction as the product of its disjuncts'
y-variables, its "hat" (the empty disjunction becomes the monomial 1).
The registry is keyed by the equation itself.  Keys are still exact: no
gcd or sign normalization, so (x=0) and (2x=0) get distinct variables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .polyring import (
    FormatError,
    InternEntry,
    Monomial,
    Polynomial,
    Scalar,
    VarId,
    as_scalar,
    ceil_log2,
    drop_dead_entry,
    int_to_str,
    parse_var,
    require_fields,
    require_int,
    shown,
    yvar,
)
from .proofcore import CheckError, CheckReport, ExtensionAxiom, Record


class LinEq:
    """An equation sum(coeffs) = constant over x-variables; zero coeffs dropped.

    Immutable and interned, so equality and hash are identity (inherited
    from object).  copy, deepcopy and pickle give back the same object.
    """

    __slots__ = ("coeffs", "constant", "__weakref__")

    coeffs: tuple[tuple[VarId, int], ...]
    constant: int

    def __new__(
        cls, coeffs: Mapping[VarId, int] | Iterable[tuple[VarId, int]], constant: int
    ) -> LinEq:
        return LinEq.of(coeffs, constant)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinEq is immutable")

    def __reduce__(self) -> tuple:
        return _equation, (self.coeffs, self.constant)

    @staticmethod
    def of(coeffs: Mapping[VarId, int] | Iterable[tuple[VarId, int]], constant: int) -> LinEq:
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict[VarId, int] = {}
        for var, value in items:
            if var.kind != "x":
                raise ValueError(f"linear equations range over x-variables, got {var.name}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"coefficient of {var.name} must be an integer")
            merged[var] = merged.get(var, 0) + value
        if not isinstance(constant, int) or isinstance(constant, bool):
            raise ValueError("constant term must be an integer")
        return _equation(
            tuple(sorted((v, c) for v, c in merged.items() if c != 0)), constant
        )

    def combine(self, other: LinEq, alpha: int, beta: int) -> LinEq:
        merged = {v: alpha * c for v, c in self.coeffs}
        for v, c in other.coeffs:
            merged[v] = merged.get(v, 0) + beta * c
        return LinEq.of(merged, alpha * self.constant + beta * other.constant)

    def is_constant(self) -> bool:
        return not self.coeffs

    def affine_polynomial(self) -> Polynomial:
        """The affine form a.x - a0 as a polynomial."""
        pairs = [(Monomial.of(v), c) for v, c in self.coeffs]
        pairs.append((Monomial.one(), -self.constant))
        return Polynomial(pairs)

    def holds(self, assignment: Mapping[VarId, int]) -> bool:
        return sum(c * assignment[v] for v, c in self.coeffs) == self.constant

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"(0 = {self.constant})"
        body = " + ".join(
            v.name if c == 1 else f"{c}*{v.name}" for v, c in self.coeffs
        )
        return f"({body} = {self.constant})"


# Every live equation, keyed by (coeffs, constant), in a plain dict of InternEntry
# references, as polyring interns monomials; an entry goes when its equation dies.
_EQUATIONS: dict[tuple[tuple[tuple[VarId, int], ...], int], InternEntry] = {}


def _equation(coeffs: tuple[tuple[VarId, int], ...], constant: int) -> LinEq:
    """The one equation with these sorted nonzero coefficients and constant."""
    key = (coeffs, constant)
    ref = _EQUATIONS.get(key)
    if ref is not None:
        eq = ref()
        if eq is not None:
            return eq
    eq = object.__new__(LinEq)
    object.__setattr__(eq, "coeffs", coeffs)
    object.__setattr__(eq, "constant", constant)
    entry = InternEntry(eq, drop_dead_entry)
    object.__setattr__(entry, "table", _EQUATIONS)
    object.__setattr__(entry, "key", key)
    _EQUATIONS[key] = entry
    return eq


# The per-line records, Disjunction to RlLine, are slotted proofcore Records: hashed
# by value, never written after construction (tests/test_records.py), not frozen.


@dataclass(unsafe_hash=True, slots=True)
class Disjunction(Record):
    disjuncts: tuple[LinEq, ...]

    @staticmethod
    def of(*eqs: LinEq) -> Disjunction:
        return Disjunction(tuple(eqs))

    @staticmethod
    def empty() -> Disjunction:
        return Disjunction(())

    def is_empty(self) -> bool:
        return not self.disjuncts

    def __len__(self) -> int:
        return len(self.disjuncts)

    def without(self, position: int) -> Disjunction:
        return Disjunction(self.disjuncts[:position] + self.disjuncts[position + 1 :])

    def appended(self, eq: LinEq) -> Disjunction:
        return Disjunction(self.disjuncts + (eq,))

    def holds(self, assignment: Mapping[VarId, int]) -> bool:
        return any(eq.holds(assignment) for eq in self.disjuncts)

    def __repr__(self) -> str:
        if not self.disjuncts:
            return "(empty)"
        return " v ".join(repr(eq) for eq in self.disjuncts)


@dataclass(unsafe_hash=True, slots=True)
class RlAxiom(Record):
    index: int


@dataclass(unsafe_hash=True, slots=True)
class RlBooleanAxiom(Record):
    var: VarId


@dataclass(unsafe_hash=True, slots=True)
class RlResolution(Record):
    j: int
    k: int
    dj: int
    dk: int
    alpha: Scalar
    beta: Scalar


@dataclass(unsafe_hash=True, slots=True)
class RlWeakening(Record):
    j: int
    eq: LinEq


@dataclass(unsafe_hash=True, slots=True)
class RlSimplification(Record):
    j: int
    d: int


@dataclass(unsafe_hash=True, slots=True)
class RlContraction(Record):
    j: int
    d1: int
    d2: int


RlRule = Union[
    RlAxiom, RlBooleanAxiom, RlResolution, RlWeakening, RlSimplification, RlContraction
]


@dataclass(unsafe_hash=True, slots=True)
class RlLine(Record):
    disjunction: Disjunction
    rule: RlRule


def boolean_disjunction(var: VarId) -> Disjunction:
    return Disjunction.of(LinEq.of({var: 1}, 0), LinEq.of({var: 1}, 1))


def _same_multiset(claimed: Sequence[LinEq], expected: Sequence[LinEq]) -> bool:
    """Whether two lists hold the same equations, counted, in any order.

    Equations are interned and both lists hold theirs alive, so equal
    equations have equal ids: sorting ids compares in C, with no hashing.
    """
    return sorted(map(id, claimed)) == sorted(map(id, expected))


# Each rule that cites one line j, and the word its BadIndex message names it by.
_ONE_PREMISE = {RlWeakening: "weakening", RlSimplification: "simplification",
                RlContraction: "contraction"}


def _verify_rl_line(
    axioms: Sequence[Disjunction],
    lines: Sequence[RlLine],
    index: int,
    line: RlLine,
) -> Optional[CheckError]:
    def fail(code: str, message: str) -> CheckError:
        return CheckError(index, code, message)

    rule = line.rule
    claimed = line.disjunction.disjuncts
    cites = _ONE_PREMISE.get(type(rule))
    if cites is not None:
        if not 0 <= rule.j < index:
            return fail("BadIndex", f"{cites} cites line {int_to_str(rule.j)}")
        prem = lines[rule.j].disjunction
    if isinstance(rule, RlAxiom):
        if not 0 <= rule.index < len(axioms):
            return fail(
                "BadIndex", f"axiom index {int_to_str(rule.index)} out of range"
            )
        if not _same_multiset(claimed, axioms[rule.index].disjuncts):
            return fail("RuleMismatch", f"line {index} does not match axiom {rule.index}")
        return None
    if isinstance(rule, RlBooleanAxiom):
        if not _same_multiset(claimed, boolean_disjunction(rule.var).disjuncts):
            return fail(
                "RuleMismatch",
                f"line {index} is not the boolean axiom for {rule.var.name}",
            )
        return None
    if isinstance(rule, RlResolution):
        if not (0 <= rule.j < index and 0 <= rule.k < index):
            return fail(
                "BadIndex",
                f"resolution cites lines {int_to_str(rule.j)},{int_to_str(rule.k)}",
            )
        dj_prem, dk_prem = lines[rule.j].disjunction, lines[rule.k].disjunction
        if not 0 <= rule.dj < len(dj_prem) or not 0 <= rule.dk < len(dk_prem):
            return fail("BadPosition", "resolution position out of range")
        alpha, beta = as_scalar(rule.alpha), as_scalar(rule.beta)
        if isinstance(alpha, Fraction) or isinstance(beta, Fraction):
            return fail("NonIntegerScalar", "resolution scalars must be integers")
        combined = dj_prem.disjuncts[rule.dj].combine(
            dk_prem.disjuncts[rule.dk], alpha, beta
        )
        expected = (
            dj_prem.without(rule.dj).disjuncts
            + dk_prem.without(rule.dk).disjuncts
            + (combined,)
        )
        if not _same_multiset(claimed, expected):
            return fail("RuleMismatch", f"line {index} is not the stated resolvent")
        return None
    if isinstance(rule, RlWeakening):
        if not _same_multiset(claimed, prem.disjuncts + (rule.eq,)):
            return fail("RuleMismatch", f"line {index} is not the stated weakening")
        return None
    if isinstance(rule, RlSimplification):
        if not 0 <= rule.d < len(prem):
            return fail("BadPosition", "simplification position out of range")
        target = prem.disjuncts[rule.d]
        if not target.is_constant():
            return fail(
                "RuleMismatch", "simplification target is not a constant equation"
            )
        if target.constant == 0:
            return fail(
                "SimplificationOnZero", "cannot simplify the true equation 0 = 0"
            )
        if not _same_multiset(claimed, prem.without(rule.d).disjuncts):
            return fail("RuleMismatch", f"line {index} is not the simplified premise")
        return None
    if isinstance(rule, RlContraction):
        if (
            not 0 <= rule.d1 < len(prem)
            or not 0 <= rule.d2 < len(prem)
            or rule.d1 == rule.d2
        ):
            return fail("BadPosition", "contraction needs two distinct positions")
        if prem.disjuncts[rule.d1] != prem.disjuncts[rule.d2]:
            return fail("ContractionUnequal", "contraction targets differ")
        if not _same_multiset(claimed, prem.without(rule.d2).disjuncts):
            return fail("RuleMismatch", f"line {index} is not the contracted premise")
        return None
    raise TypeError(f"unknown rule {rule!r}")


def check_rl_step(
    axioms: Sequence[Disjunction], prefix: Sequence[RlLine], line: RlLine
) -> Optional[CheckError]:
    """Verify one line against an already-checked prefix."""
    return _verify_rl_line(axioms, prefix, len(prefix), line)


def first_reslin_error(
    axioms: Sequence[Disjunction], proof: Sequence[RlLine]
) -> Optional[CheckError]:
    """The first line's CheckError, or None: check_reslin without its size."""
    if not proof:
        raise ValueError("a proof needs at least one line")
    for index, line in enumerate(proof):
        error = _verify_rl_line(axioms, proof, index, line)
        if error is not None:
            return error
    return None


def check_reslin(axioms: Sequence[Disjunction], proof: Sequence[RlLine]) -> CheckReport:
    """Validate a derivation; degree/final_constant do not apply here."""
    error = first_reslin_error(axioms, proof)
    return CheckReport(valid=error is None, error=error, final_constant=None,
                       total_size=size_binary(proof), degree=-1, line_count=len(proof))


def is_refutation(proof: Sequence[RlLine]) -> bool:
    return bool(proof) and proof[-1].disjunction.is_empty()


def _occurrences(proof: Sequence[RlLine]) -> Counter[LinEq]:
    """How often each distinct (interned) equation occurs in the proof: the
    sizes below sum each one once, weighed by its count."""
    return Counter(eq for line in proof for eq in line.disjunction.disjuncts)


def size_unary(proof: Sequence[RlLine]) -> int:
    """Sum of |coefficient| over all variable coefficients in the proof."""
    return sum(
        count * sum(abs(c) for _, c in eq.coeffs)
        for eq, count in _occurrences(proof).items()
    )


def size_binary(proof: Sequence[RlLine]) -> int:
    """Sum of ceil(log2 |coefficient|); constants are not counted."""
    return sum(
        count * sum(ceil_log2(abs(c)) for _, c in eq.coeffs)
        for eq, count in _occurrences(proof).items()
    )


class UnregisteredForm(KeyError):
    """An affine form was looked up that the registry has never seen."""


class Registry:
    """First-occurrence numbering of affine forms, keyed by the interned equation."""

    def __init__(self) -> None:
        self._by_key: dict[LinEq, VarId] = {}
        self._defs: list[ExtensionAxiom] = []

    def intern(self, eq: LinEq) -> VarId:
        got = self._by_key.get(eq)
        if got is None:
            got = yvar(len(self._by_key) + 1)
            self._by_key[eq] = got
            self._defs.append(ExtensionAxiom(got, eq.affine_polynomial()))
        return got

    def lookup(self, eq: LinEq) -> VarId:
        got = self._by_key.get(eq)
        if got is None:
            raise UnregisteredForm(f"form {(eq.coeffs, -eq.constant)!r} is not registered")
        return got

    def equations(self) -> Iterable[LinEq]:
        """The distinct forms, in registry order."""
        return self._by_key.keys()

    def definitions(self) -> tuple[ExtensionAxiom, ...]:
        """Extension axioms y_i - (a.x - a0), in registry order."""
        return tuple(self._defs)

    def __len__(self) -> int:
        return len(self._by_key)


def build_registry(
    axioms: Sequence[Disjunction], proof: Sequence[RlLine]
) -> Registry:
    """Scan axioms then proof lines in order, interning every disjunct."""
    registry = Registry()
    for disjunction in axioms:
        for eq in disjunction.disjuncts:
            registry.intern(eq)
    for line in proof:
        for eq in line.disjunction.disjuncts:
            registry.intern(eq)
    return registry


def product_monomial(disjunction: Disjunction, registry: Registry) -> Monomial:
    """The product of the disjuncts' y-variables; empty gives the monomial 1."""
    return Monomial.product([registry.lookup(eq) for eq in disjunction.disjuncts])


# -- serialization ------------------------------------------------------------


def lineq_to_obj(eq: LinEq) -> dict[str, object]:
    return {
        "coeffs": {v.name: c for v, c in eq.coeffs},
        "const": eq.constant,
    }


_LINEQ_FIELDS = frozenset({"coeffs", "const"})
_RL_LINE_FIELDS = frozenset({"disjunction", "rule"})


def lineq_from_obj(obj: object) -> LinEq:
    require_fields(obj, _LINEQ_FIELDS, "equation")
    raw = obj["coeffs"]
    if not isinstance(raw, dict):
        raise FormatError("'coeffs' must be an object")
    coeffs = {}
    for name, value in raw.items():
        var = parse_var(name)
        if var.kind != "x":
            raise FormatError(f"equation coefficients range over x-variables, got {name}")
        value = require_int(value, f"coefficient of {name}")
        if value == 0:
            raise FormatError(f"zero coefficient for {name} is not canonical")
        coeffs[var] = value
    const = require_int(obj["const"], "'const'")
    return _equation(tuple(sorted(coeffs.items())), const)


def disjunction_to_obj(disjunction: Disjunction) -> list:
    return [lineq_to_obj(eq) for eq in disjunction.disjuncts]


class EquationDecoder:
    """Decodes the disjunctions of one document, as polyring.Decoder does polynomials.

    Each distinct equation is validated once; a repeat is one dict lookup.
    Make one per document.
    """

    __slots__ = ("_eqs",)

    def __init__(self) -> None:
        self._eqs: dict[tuple[tuple[tuple[str, int], ...], int], LinEq] = {}

    def lineq(self, obj: object) -> LinEq:
        """lineq_from_obj(obj), remembered per coefficient items and constant."""
        if type(obj) is dict and obj.keys() == _LINEQ_FIELDS:
            raw, const = obj["coeffs"], obj["const"]
            # True == 1: only exact ints may share an entry with an int-valued key.
            if type(raw) is dict and type(const) is int:
                for value in raw.values():
                    if type(value) is not int:
                        break
                else:
                    key = (tuple(raw.items()), const)
                    eq = self._eqs.get(key)
                    if eq is None:
                        eq = self._eqs[key] = lineq_from_obj(obj)
                    return eq
        return lineq_from_obj(obj)

    def disjunction(self, obj: object) -> Disjunction:
        if not isinstance(obj, list):
            raise FormatError(f"disjunction must be an array, got {shown(obj)}")
        return Disjunction(tuple(self.lineq(entry) for entry in obj))


def rl_rule_to_obj(rule: RlRule) -> dict[str, object]:
    if isinstance(rule, RlAxiom):
        return {"type": "axiom", "index": rule.index}
    if isinstance(rule, RlBooleanAxiom):
        return {"type": "boolean", "var": rule.var.name}
    if isinstance(rule, RlResolution):
        return {
            "type": "resolution",
            "j": rule.j,
            "k": rule.k,
            "dj": rule.dj,
            "dk": rule.dk,
            "alpha": rule.alpha,
            "beta": rule.beta,
        }
    if isinstance(rule, RlWeakening):
        return {"type": "weakening", "j": rule.j, "eq": lineq_to_obj(rule.eq)}
    if isinstance(rule, RlSimplification):
        return {"type": "simplification", "j": rule.j, "d": rule.d}
    if isinstance(rule, RlContraction):
        return {"type": "contraction", "j": rule.j, "d1": rule.d1, "d2": rule.d2}
    raise TypeError(f"unknown rule {rule!r}")


def rl_rule_from_obj(obj: object, decoder: EquationDecoder) -> RlRule:
    if not isinstance(obj, dict) or "type" not in obj:
        raise FormatError(f"rule must be an object with a 'type', got {shown(obj)}")
    kind = obj["type"]
    if kind == "axiom":
        require_fields(obj, {"type", "index"}, "axiom rule")
        return RlAxiom(require_int(obj["index"], "axiom index"))
    if kind == "boolean":
        require_fields(obj, {"type", "var"}, "boolean rule")
        var = parse_var(obj["var"])
        if var.kind != "x":
            raise FormatError("boolean axioms range over x-variables")
        return RlBooleanAxiom(var)
    if kind == "resolution":
        fields = {"type", "j", "k", "dj", "dk", "alpha", "beta"}
        require_fields(obj, fields, "resolution rule")
        return RlResolution(
            require_int(obj["j"], "j"),
            require_int(obj["k"], "k"),
            require_int(obj["dj"], "dj"),
            require_int(obj["dk"], "dk"),
            require_int(obj["alpha"], "alpha"),
            require_int(obj["beta"], "beta"),
        )
    if kind == "weakening":
        require_fields(obj, {"type", "j", "eq"}, "weakening rule")
        return RlWeakening(require_int(obj["j"], "j"), decoder.lineq(obj["eq"]))
    if kind == "simplification":
        require_fields(obj, {"type", "j", "d"}, "simplification rule")
        return RlSimplification(require_int(obj["j"], "j"), require_int(obj["d"], "d"))
    if kind == "contraction":
        require_fields(obj, {"type", "j", "d1", "d2"}, "contraction rule")
        return RlContraction(
            require_int(obj["j"], "j"),
            require_int(obj["d1"], "d1"),
            require_int(obj["d2"], "d2"),
        )
    raise FormatError(f"unknown rule type {shown(kind)}")


def reslin_to_obj(
    axioms: Sequence[Disjunction], proof: Sequence[RlLine]
) -> dict[str, object]:
    return {
        "axioms": [disjunction_to_obj(d) for d in axioms],
        "lines": [
            {
                "disjunction": disjunction_to_obj(line.disjunction),
                "rule": rl_rule_to_obj(line.rule),
            }
            for line in proof
        ],
    }


def reslin_from_obj(obj: object) -> tuple[list[Disjunction], list[RlLine]]:
    """Decode a Res-Lin document; one EquationDecoder serves all of its disjunctions.

    Decoding takes the lines out of obj, as proofcore.proof_from_obj does:
    each entry of obj["lines"] is set to None once it is decoded.
    """
    require_fields(obj, {"axioms", "lines"}, "document")
    raw_axioms, raw_lines = obj["axioms"], obj["lines"]
    if not isinstance(raw_axioms, list) or not isinstance(raw_lines, list):
        raise FormatError("'axioms' and 'lines' must be arrays")
    decoder = EquationDecoder()
    axioms = [decoder.disjunction(d) for d in raw_axioms]
    lines = []
    for index, entry in enumerate(raw_lines):
        require_fields(entry, _RL_LINE_FIELDS, "proof line")
        lines.append(
            RlLine(
                decoder.disjunction(entry["disjunction"]),
                rl_rule_from_obj(entry["rule"], decoder),
            )
        )
        raw_lines[index] = None
    return axioms, lines
