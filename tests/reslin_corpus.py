"""Small linear-resolution refutations shared by several test modules.

Each builder returns (axioms, proof).  Lines are produced by applying the
rule semantics forward, so the corpus stays consistent with the checker by
construction; the tests still run every proof through check_reslin.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from polycal.polyring import VarId, xvar
from polycal.reslin import (
    Disjunction,
    LinEq,
    RlAxiom,
    RlBooleanAxiom,
    RlContraction,
    RlLine,
    RlResolution,
    RlRule,
    RlSimplification,
    RlWeakening,
    boolean_disjunction,
)

X1, X2 = xvar(1), xvar(2)


def eq(coeffs: dict[VarId, int], const: int) -> LinEq:
    return LinEq.of(coeffs, const)


def apply_rule(
    axioms: list[Disjunction], lines: list[RlLine], rule: RlRule
) -> Disjunction:
    if isinstance(rule, RlAxiom):
        return axioms[rule.index]
    if isinstance(rule, RlBooleanAxiom):
        return boolean_disjunction(rule.var)
    if isinstance(rule, RlResolution):
        pj, pk = lines[rule.j].disjunction, lines[rule.k].disjunction
        combined = pj.disjuncts[rule.dj].combine(
            pk.disjuncts[rule.dk], rule.alpha, rule.beta
        )
        return Disjunction(
            pj.without(rule.dj).disjuncts
            + pk.without(rule.dk).disjuncts
            + (combined,)
        )
    if isinstance(rule, RlWeakening):
        return lines[rule.j].disjunction.appended(rule.eq)
    if isinstance(rule, RlSimplification):
        return lines[rule.j].disjunction.without(rule.d)
    if isinstance(rule, RlContraction):
        return lines[rule.j].disjunction.without(rule.d2)
    raise TypeError(rule)


def run(axioms: list[Disjunction], rules: list[RlRule]) -> list[RlLine]:
    lines: list[RlLine] = []
    for rule in rules:
        lines.append(RlLine(apply_rule(axioms, lines, rule), rule))
    return lines


def zero_one() -> tuple[list[Disjunction], list[RlLine]]:
    """x = 0 against x = 1, resolved into 0 = -1."""
    axioms = [Disjunction.of(eq({X1: 1}, 0)), Disjunction.of(eq({X1: 1}, 1))]
    rules: list[RlRule] = [
        RlAxiom(0),
        RlAxiom(1),
        RlResolution(0, 1, 0, 0, 1, -1),
        RlSimplification(2, 0),
    ]
    return axioms, run(axioms, rules)


def all_rules() -> tuple[list[Disjunction], list[RlRule], list[RlLine]]:
    """Refutation of x1 + x2 = 3 over booleans touching every rule."""
    axioms = [Disjunction.of(eq({X1: 1, X2: 1}, 3))]
    rules: list[RlRule] = [
        RlAxiom(0),                         # 0: (x1+x2=3)
        RlBooleanAxiom(X1),                 # 1: (x1=0) v (x1=1)
        RlResolution(0, 1, 0, 0, 1, -1),    # 2: (x1=1) v (x2=3)
        RlBooleanAxiom(X2),                 # 3: (x2=0) v (x2=1)
        RlResolution(2, 3, 1, 0, 1, -1),    # 4: (x1=1) v (x2=1) v (0=3)
        RlWeakening(4, eq({}, 3)),          # 5: ... v (0=3) v (0=3)
        RlContraction(5, 2, 3),             # 6: (x1=1) v (x2=1) v (0=3)
        RlSimplification(6, 2),             # 7: (x1=1) v (x2=1)
        RlResolution(7, 0, 0, 0, -1, 1),    # 8: (x2=1) v (x2=2)
        RlResolution(8, 3, 1, 0, 1, -1),    # 9: (x2=1) v (x2=1) v (0=2)
        RlContraction(9, 0, 1),             # 10: (x2=1) v (0=2)
        RlSimplification(10, 1),            # 11: (x2=1)
        RlResolution(11, 0, 0, 0, -1, 1),   # 12: (x1=2)
        RlResolution(12, 1, 0, 0, 1, -1),   # 13: (x1=1) v (0=2)
        RlSimplification(13, 1),            # 14: (x1=1)
        RlResolution(14, 12, 0, 0, 1, -1),  # 15: (0=-1)
        RlSimplification(15, 0),            # 16: empty
    ]
    return axioms, rules, run(axioms, rules)


def half_half() -> tuple[list[Disjunction], list[RlLine]]:
    """x1 - x2 = 0 and x1 + x2 = 1, rationally satisfiable, boolean-refuted."""
    axioms = [
        Disjunction.of(eq({X1: 1, X2: -1}, 0)),
        Disjunction.of(eq({X1: 1, X2: 1}, 1)),
    ]
    rules: list[RlRule] = [
        RlAxiom(0),
        RlAxiom(1),
        RlResolution(0, 1, 0, 0, 1, -1),    # (-2x2 = -1)
        RlBooleanAxiom(X2),
        RlResolution(2, 3, 0, 0, 1, 2),     # (x2=1) v (0=-1)
        RlSimplification(4, 1),             # (x2=1)
        RlResolution(5, 2, 0, 0, 2, 1),     # (0=1)
        RlSimplification(6, 0),
    ]
    return axioms, run(axioms, rules)


def sum_to_one() -> tuple[list[Disjunction], list[RlLine]]:
    """x1 + x2 = 1 with both variables pinned to 1."""
    axioms = [
        Disjunction.of(eq({X1: 1, X2: 1}, 1)),
        Disjunction.of(eq({X1: 1}, 1)),
        Disjunction.of(eq({X2: 1}, 1)),
    ]
    rules: list[RlRule] = [
        RlAxiom(0),
        RlAxiom(1),
        RlAxiom(2),
        RlResolution(0, 1, 0, 0, 1, -1),    # (x2=0)
        RlResolution(3, 2, 0, 0, 1, -1),    # (0=-1)
        RlSimplification(4, 0),
    ]
    return axioms, run(axioms, rules)


def thirds() -> tuple[list[Disjunction], list[RlLine]]:
    """3 x1 = 1, impossible for a boolean x1."""
    axioms = [Disjunction.of(eq({X1: 3}, 1))]
    rules: list[RlRule] = [
        RlAxiom(0),
        RlBooleanAxiom(X1),
        RlResolution(0, 1, 0, 0, 1, -3),    # (x1=1) v (0=1)
        RlSimplification(2, 1),             # (x1=1)
        RlResolution(3, 0, 0, 0, 3, -1),    # (0=2)
        RlSimplification(4, 0),
    ]
    return axioms, run(axioms, rules)


def clause_pair() -> tuple[list[Disjunction], list[RlLine]]:
    """A genuine two-disjunct axiom against two unit equations."""
    axioms = [
        Disjunction.of(eq({X1: 1}, 0), eq({X2: 1}, 0)),
        Disjunction.of(eq({X1: 1}, 1)),
        Disjunction.of(eq({X2: 1}, 1)),
    ]
    rules: list[RlRule] = [
        RlAxiom(0),
        RlAxiom(1),
        RlAxiom(2),
        RlResolution(0, 1, 0, 0, 1, -1),    # (x2=0) v (0=-1)
        RlSimplification(3, 1),             # (x2=0)
        RlResolution(4, 2, 0, 0, 1, -1),    # (0=-1)
        RlSimplification(5, 0),
    ]
    return axioms, run(axioms, rules)


def rests_of_one_degree() -> tuple[list[Disjunction], list[RlLine]]:
    """Resolutions whose two rests are one monomial, and one whose rests
    (x2=0 against x3=0) have the same degree but differ."""
    X3 = xvar(3)
    axioms = [
        Disjunction.of(eq({X2: 1}, 0), eq({X1: 1}, 0)),
        Disjunction.of(eq({X2: 1}, 0), eq({X1: 1}, 1)),
        Disjunction.of(eq({X3: 1}, 0), eq({X1: 1}, 1)),
        Disjunction.of(eq({X2: 1}, 1)),
        Disjunction.of(eq({X3: 1}, 1)),
    ]
    rules: list[RlRule] = [
        RlAxiom(0),                         # 0: (x2=0) v (x1=0)
        RlAxiom(2),                         # 1: (x3=0) v (x1=1)
        RlResolution(0, 1, 1, 1, 1, -1),    # 2: (x2=0) v (x3=0) v (0=-1)
        RlSimplification(2, 2),             # 3: (x2=0) v (x3=0)
        RlAxiom(4),                         # 4: (x3=1)
        RlResolution(3, 4, 1, 0, 1, -1),    # 5: (x2=0) v (0=-1)
        RlSimplification(5, 1),             # 6: (x2=0)
        RlAxiom(1),                         # 7: (x2=0) v (x1=1)
        RlResolution(0, 7, 1, 1, 1, -1),    # 8: (x2=0) v (x2=0) v (0=-1)
        RlContraction(8, 0, 1),             # 9: (x2=0) v (0=-1)
        RlSimplification(9, 1),             # 10: (x2=0)
        RlAxiom(3),                         # 11: (x2=1)
        RlResolution(6, 11, 0, 0, 1, -1),   # 12: (0=-1)
        RlSimplification(12, 0),            # 13: empty
    ]
    return axioms, run(axioms, rules)


def bvp_splitting(
    n: int, order: Sequence[int] | None = None, alpha: int = 1
) -> tuple[list[Disjunction], list[RlLine]]:
    """Refutation of 1 + x1 + 2 x2 + ... + 2^(n-1) xn = 0 by splitting.

    The split takes x_i for each i of order, by default 1..n.  Each node's
    last equation is resolved, scaled by alpha, with the next boolean axiom
    on both sides; at depth n it is a false constant and is simplified away.
    Sibling clauses then resolve on the split variable into 0 = 1, and
    contractions plus a simplification leave the parent's prefix.
    """
    order = list(range(1, n + 1)) if order is None else list(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    weights = {xvar(i): 1 << (i - 1) for i in range(1, n + 1)}
    axioms = [Disjunction.of(eq(weights, -1))]
    lines: list[RlLine] = []
    booleans: dict[VarId, int] = {}

    def push(rule: RlRule) -> int:
        lines.append(RlLine(apply_rule(axioms, lines, rule), rule))
        return len(lines) - 1

    def refute(node: int, depth: int) -> int:
        if depth == n:
            return push(RlSimplification(node, depth))
        var = xvar(order[depth])
        if var not in booleans:
            booleans[var] = push(RlBooleanAxiom(var))
        coef = dict(lines[node].disjunction.disjuncts[depth].coeffs)[var]
        sides = []
        for d in (0, 1):
            child = push(
                RlResolution(node, booleans[var], depth, d, alpha, -alpha * coef)
            )
            sides.append(refute(child, depth + 1))
        line = push(RlResolution(sides[0], sides[1], depth, depth, 1, -1))
        for position in range(depth):
            line = push(RlContraction(line, position, depth))
        return push(RlSimplification(line, depth))

    refute(push(RlAxiom(0)), 0)
    return axioms, lines


def refutation_corpus() -> list[tuple[str, list[Disjunction], list[RlLine]]]:
    items = [
        ("zero_one", *zero_one()),
        ("half_half", *half_half()),
        ("sum_to_one", *sum_to_one()),
        ("thirds", *thirds()),
        ("clause_pair", *clause_pair()),
    ]
    axioms, _, lines = all_rules()
    items.insert(1, ("all_rules", axioms, lines))
    return items


def booleans_mentioned(axioms: list[Disjunction], lines: list[RlLine]) -> Counter:
    mentioned: Counter = Counter()
    for disjunction in axioms:
        for e in disjunction.disjuncts:
            for var, _ in e.coeffs:
                mentioned[var] += 1
    for line in lines:
        for e in line.disjunction.disjuncts:
            for var, _ in e.coeffs:
                mentioned[var] += 1
    return mentioned
