"""Input generators for the benchmark: clausal refutations, mutants, malformed files.

Everything here works on plain JSON values and never imports polycal, so the
program under test only ever sees documents that the benchmark wrote itself
(or its own earlier outputs, for mutants).

Clausal equations are pairs ``(coeffs, const)`` where ``coeffs`` is a sorted
tuple of ``(variable index, nonzero int)`` pairs; a disjunction is a tuple of
equations.  Lines are built by applying each rule's semantics directly, so
every generated line is what the rule produces by definition.
"""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from typing import Optional

Eq = tuple[tuple[tuple[int, int], ...], int]
Disj = tuple[Eq, ...]


def equation(coeffs: dict[int, int], const: int) -> Eq:
    return tuple(sorted((v, c) for v, c in coeffs.items() if c)), const


def combine(e1: Eq, e2: Eq, alpha: int, beta: int) -> Eq:
    """alpha * e1 + beta * e2, coefficientwise including the constant."""
    merged: dict[int, int] = {}
    for v, c in e1[0]:
        merged[v] = alpha * c
    for v, c in e2[0]:
        merged[v] = merged.get(v, 0) + beta * c
    return equation(merged, alpha * e1[1] + beta * e2[1])


def _drop(disj: Disj, position: int) -> Disj:
    return disj[:position] + disj[position + 1 :]


class ClausalProof:
    """A Res-Lin derivation grown one rule application at a time."""

    def __init__(self, axioms: list[Disj]):
        self.axioms = axioms
        self.lines: list[tuple[Disj, dict]] = []

    def _push(self, disj: Disj, rule: dict) -> int:
        self.lines.append((disj, rule))
        return len(self.lines) - 1

    def axiom(self, index: int) -> int:
        return self._push(self.axioms[index], {"type": "axiom", "index": index})

    def boolean(self, var: int) -> int:
        disj = (equation({var: 1}, 0), equation({var: 1}, 1))
        return self._push(disj, {"type": "boolean", "var": f"x{var}"})

    def resolution(self, j: int, k: int, dj: int, dk: int, alpha: int, beta: int) -> int:
        pj, pk = self.lines[j][0], self.lines[k][0]
        disj = _drop(pj, dj) + _drop(pk, dk) + (combine(pj[dj], pk[dk], alpha, beta),)
        rule = {"type": "resolution", "j": j, "k": k, "dj": dj, "dk": dk,
                "alpha": alpha, "beta": beta}
        return self._push(disj, rule)

    def simplification(self, j: int, d: int) -> int:
        coeffs, const = self.lines[j][0][d]
        if coeffs or const == 0:
            raise ValueError("simplification needs a false constant equation")
        return self._push(_drop(self.lines[j][0], d), {"type": "simplification", "j": j, "d": d})

    def contraction(self, j: int, d1: int, d2: int) -> int:
        disj = self.lines[j][0]
        if d1 == d2 or disj[d1] != disj[d2]:
            raise ValueError("contraction needs two equal disjuncts")
        return self._push(_drop(disj, d2), {"type": "contraction", "j": j, "d1": d1, "d2": d2})

    def to_obj(self) -> dict:
        return {
            "axioms": [_disj_obj(d) for d in self.axioms],
            "lines": [{"disjunction": _disj_obj(d), "rule": r} for d, r in self.lines],
        }

    def size_unary(self) -> int:
        return sum(abs(c) for d, _ in self.lines for eq in d for _, c in eq[0])

    def size_binary(self) -> int:
        return sum((abs(c) - 1).bit_length() for d, _ in self.lines for eq in d for _, c in eq[0])

    def distinct_forms(self) -> int:
        """Distinct exact equations over axioms and lines: one extension each."""
        return len({eq for d in [*self.axioms, *(d for d, _ in self.lines)] for eq in d})


def _disj_obj(disj: Disj) -> list:
    return [{"coeffs": {f"x{v}": c for v, c in coeffs}, "const": const} for coeffs, const in disj]


def splitting_refutation(n: int, order: list[int]) -> ClausalProof:
    """Res-Lin refutation of BVP_n by boolean splitting along ``order``.

    The axiom is 1 + x1 + 2 x2 + ... + 2^(n-1) xn = 0, written as
    sum 2^(i-1) xi = -1.  Going down, each node's last disjunct E|rho is
    resolved with the boolean axiom of the next variable, giving two
    children (x = 1) v E|rho,0 and (x = 0) v E|rho,1.  At depth n the
    equation is a false constant and is simplified away, leaving the clause
    "the assignment is not rho".  Going up, sibling clauses are resolved on
    the split variable into (0 = 1), the duplicated prefix is contracted,
    and (0 = 1) is simplified, until the empty disjunction remains.
    """
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    proof = ClausalProof([(equation({i: 1 << (i - 1) for i in range(1, n + 1)}, -1),)])
    booleans: dict[int, int] = {}

    def refute(node: int, depth: int) -> int:
        if depth == n:
            return proof.simplification(node, depth)
        var = order[depth]
        if var not in booleans:
            booleans[var] = proof.boolean(var)
        coef = dict(proof.lines[node][0][depth][0])[var]
        zero_side = refute(proof.resolution(node, booleans[var], depth, 0, 1, -coef), depth + 1)
        one_side = refute(proof.resolution(node, booleans[var], depth, 1, 1, -coef), depth + 1)
        # zero_side ends in (x = 1) and one_side in (x = 0): their difference is 0 = 1.
        line = proof.resolution(zero_side, one_side, depth, depth, 1, -1)
        for position in range(depth):
            line = proof.contraction(line, position, depth)
        return proof.simplification(line, depth)

    refute(proof.axiom(0), 0)
    return proof


# -- mutants ------------------------------------------------------------------

_CODE_OF_RULE = {
    "axiom": "AxiomNotInSet",
    "lincomb": "RuleMismatch",
    "mulvar": "RuleMismatch",
    "sqrt": "SqrtMismatch",
}


def _scalar(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _scalar_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _shifted(
    value: Fraction, rng: random.Random, forbidden: Optional[Fraction] = None
) -> Fraction:
    """value + 1 or value - 1, chosen by rng, never 0 and never ``forbidden``."""
    first = rng.choice((1, -1))
    for step in (first, -first):
        candidate = value + step
        if candidate != 0 and candidate != forbidden:
            return candidate
    raise ValueError(f"no admissible shift of {value}")


def _stratified(
    by_kind: dict[str, list[int]], rng: random.Random, stratum: tuple[int, int]
) -> tuple[str, int]:
    """Mutant i of n: kinds in turn, positions spread evenly over each kind's lines.

    Spreading the mutated lines keeps the job times of a workload from
    depending on where a seed happens to put them.
    """
    i, n = stratum
    kinds = sorted(by_kind)
    kind = kinds[i % len(kinds)]
    per_kind = -(-n // len(kinds))
    lines = by_kind[kind]
    position = int((i // len(kinds) + rng.random()) * len(lines) / per_kind)
    return kind, lines[min(position, len(lines) - 1)]


def algebraic_mutant(
    doc: dict, rng: random.Random, stratum: tuple[int, int]
) -> tuple[dict, int, str]:
    """Change one coefficient c of a line to c +- 1.

    Returns (mutant, line index, expected error code).  The checker reports
    the first bad line; only the changed line is bad, so that is the line,
    and the code follows from its rule alone.  Rules take turns, so rare
    rules (square roots) are hit as often as common ones.
    """
    by_rule: dict[str, list[int]] = {}
    for i, line in enumerate(doc["lines"]):
        if line["poly"]["terms"]:
            by_rule.setdefault(line["rule"]["type"], []).append(i)
    rule, index = _stratified(by_rule, rng, stratum)
    line = copy.deepcopy(doc["lines"][index])
    terms = line["poly"]["terms"]
    term = rng.choice(terms)
    old = _scalar(term["coef"])
    # A one-term square root c*m with c -> -c would square to the same line.
    forbidden = -old if rule == "sqrt" and len(terms) == 1 else None
    term["coef"] = _scalar_text(_shifted(old, rng, forbidden))
    lines = list(doc["lines"])
    lines[index] = line
    return {**doc, "lines": lines}, index, _CODE_OF_RULE[rule]


def clausal_mutant(
    doc: dict, rng: random.Random, stratum: tuple[int, int]
) -> tuple[dict, int, str]:
    """Change one variable coefficient of a clausal line by +-1."""
    lines_with_coeffs = [
        i for i, line in enumerate(doc["lines"])
        if any(eq["coeffs"] for eq in line["disjunction"])
    ]
    _, index = _stratified({"any": lines_with_coeffs}, rng, stratum)
    line = copy.deepcopy(doc["lines"][index])
    eq = rng.choice([eq for eq in line["disjunction"] if eq["coeffs"]])
    var = rng.choice(sorted(eq["coeffs"]))
    eq["coeffs"][var] = int(_shifted(Fraction(eq["coeffs"][var]), rng))
    lines = list(doc["lines"])
    lines[index] = line
    return {**doc, "lines": lines}, index, "RuleMismatch"


# -- malformed documents ------------------------------------------------------

MALFORMED_KINDS = ("truncated", "unknown_rule", "zero_coefficient")
MALFORMED_ERROR = {
    "truncated": "JSONDecodeError",
    "unknown_rule": "FormatError",
    "zero_coefficient": "FormatError",
}


def malformed(
    doc: dict, text: str, kind: str, rng: random.Random, stratum: tuple[int, int]
) -> str:
    """A document that cannot be parsed; the CLI must exit 2 naming the error.

    The damage sits in the stratum-th share of the document, so parse times
    do not depend on where a seed happens to put it.
    """
    if kind == "truncated":
        _, cut = _stratified({kind: list(range(1, len(text) - 1))}, rng, stratum)
        return text[:cut]
    bad = copy.deepcopy(doc)
    if kind == "unknown_rule":
        _, index = _stratified({kind: list(range(len(bad["lines"])))}, rng, stratum)
        bad["lines"][index]["rule"]["type"] = "modus_ponens"
    elif "system" in bad:
        lines = [line for line in bad["lines"] if line["poly"]["terms"]]
        _, index = _stratified({kind: list(range(len(lines)))}, rng, stratum)
        rng.choice(lines[index]["poly"]["terms"])["coef"] = "0"
    else:
        eqs = [eq for line in bad["lines"] for eq in line["disjunction"] if eq["coeffs"]]
        _, index = _stratified({kind: list(range(len(eqs)))}, rng, stratum)
        eqs[index]["coeffs"][rng.choice(sorted(eqs[index]["coeffs"]))] = 0
    return dump(bad)


def dump(obj: object) -> str:
    """Compact JSON, the way a hand-written tool would emit it."""
    return json.dumps(obj, separators=(",", ":"))


# -- small known answers --------------------------------------------------------


def primes_below(bound: int) -> list[int]:
    return [p for p in range(2, bound) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def bvp_instance_text(n: int) -> str:
    """The canonical gen-bvp document: G in graded-lex order, then x_i^2 - x_i."""
    def term(coef: int, mono: dict) -> dict:
        return {"coef": str(coef), "mono": mono}

    equation_terms = [term(1 << (i - 1), {f"x{i}": 1}) for i in range(1, n + 1)]
    base = [{"terms": equation_terms + [term(1, {})]}]
    base += [{"terms": [term(1, {f"x{i}": 2}), term(-1, {f"x{i}": 1})]} for i in range(1, n + 1)]
    return json.dumps({"base": base, "n": n}, sort_keys=True, separators=(",", ":")) + "\n"
