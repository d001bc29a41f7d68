"""Hand-built rational refutations used by the rationalization tests.

Each builder returns (axioms, proof) checking under the rational extended
square-root system.  Every member uses the square-root rule at least once,
and between them they cover: a negative root, the scalar -1/2, a final
constant of 1/2, unused and nested extension definitions, a denominator
delta of 2, and an extension variable that the proof actually multiplies
by (forcing scale-tag bookkeeping in the translator).

Outside the corpus, gapped_extensions and free_variable number their
y-variables other than y1..ym, unused_extensions declares many definitions,
and renumber renames the y-variables of any document.
"""

from __future__ import annotations

from fractions import Fraction

from polycal.polyring import Polynomial, VarId, poly_parse, xvar, yvar
from polycal.proofcore import (
    AxiomSet,
    ExtensionAxiom,
    MulVar,
    ProofBuilder,
    ProofLine,
    SystemKind,
)

X1, Y1, Y2, Y3, Y5 = xvar(1), yvar(1), yvar(2), yvar(3), yvar(5)

HALF_AXIOMS = (poly_parse("2*x1 - 1"), poly_parse("x1^2 - x1"))
THIRD_AXIOMS = (poly_parse("3*x1 - 1"), poly_parse("x1^2 - x1"))


def _half_family_body(builder: ProofBuilder, root_text: str, alpha: Fraction):
    """2x-1 squares to (2x-1)^2; the root and x land on a constant."""
    l0 = builder.axiom_line(0)
    l1 = builder.mul_var(l0, X1)
    l2 = builder.lincomb(l1, l0, 2, -1)
    l3 = builder.sqrt_of(l2, poly_parse(root_text))
    l4 = builder.axiom_line(1)
    l5 = builder.lincomb(l1, l4, 1, -2)
    builder.lincomb(l3, l5, alpha, 1)


def negative_root() -> tuple[AxiomSet, list[ProofLine]]:
    """Takes the root 1 - 2x and ends in 1/2."""
    builder = ProofBuilder(AxiomSet(base=HALF_AXIOMS), SystemKind.EXTPCSQRT_Q)
    _half_family_body(builder, "1 - 2*x1", Fraction(1, 2))
    return builder.axioms, builder.lines


def negative_scalar() -> tuple[AxiomSet, list[ProofLine]]:
    """Takes the root 2x - 1 and scales it by -1/2, ending in 1/2."""
    builder = ProofBuilder(AxiomSet(base=HALF_AXIOMS), SystemKind.EXTPCSQRT_Q)
    _half_family_body(builder, "2*x1 - 1", Fraction(-1, 2))
    return builder.axioms, builder.lines


def unused_extension() -> tuple[AxiomSet, list[ProofLine]]:
    """Declares y1 := x/2 without ever using it."""
    axioms = AxiomSet(
        base=HALF_AXIOMS, extensions=(ExtensionAxiom(Y1, poly_parse("1/2*x1")),)
    )
    builder = ProofBuilder(axioms, SystemKind.EXTPCSQRT_Q)
    _half_family_body(builder, "1 - 2*x1", Fraction(1, 2))
    return axioms, builder.lines


def nested_extensions() -> tuple[AxiomSet, list[ProofLine]]:
    """Declares y1 := x/2 and y2 := y1^2/5; the second rescales through
    the first, which pins the translator's multipliers to (2, 20)."""
    axioms = AxiomSet(
        base=HALF_AXIOMS,
        extensions=(
            ExtensionAxiom(Y1, poly_parse("1/2*x1")),
            ExtensionAxiom(Y2, poly_parse("1/5*y1^2")),
        ),
    )
    builder = ProofBuilder(axioms, SystemKind.EXTPCSQRT_Q)
    _half_family_body(builder, "2*x1 - 1", Fraction(-1, 2))
    return axioms, builder.lines


def third_delta() -> tuple[AxiomSet, list[ProofLine]]:
    """3x - 1 against booleanness, with a -3/2 scalar and final -1."""
    builder = ProofBuilder(AxiomSet(base=THIRD_AXIOMS), SystemKind.EXTPCSQRT_Q)
    l0 = builder.axiom_line(0)
    l1 = builder.mul_var(l0, X1)
    l2 = builder.lincomb(l1, l0, 3, -1)
    l3 = builder.sqrt_of(l2, poly_parse("3*x1 - 1"))
    l4 = builder.axiom_line(1)
    l5 = builder.lincomb(l1, l4, 1, -3)
    builder.lincomb(l3, l5, 1, Fraction(-3, 2))
    return builder.axioms, builder.lines


def working_extension() -> tuple[AxiomSet, list[ProofLine]]:
    """Multiplies the definition y1 := x/2 by variables, squares the
    result, and takes a square root whose coefficients are rational."""
    axioms = AxiomSet(
        base=HALF_AXIOMS, extensions=(ExtensionAxiom(Y1, poly_parse("1/2*x1")),)
    )
    builder = ProofBuilder(axioms, SystemKind.EXTPCSQRT_Q)
    l0 = builder.extension_line(Y1)
    l1 = builder.mul_var(l0, Y1)
    l2 = builder.mul_var(l0, X1)
    l3 = builder.lincomb(l1, l2, 1, Fraction(-1, 2))
    l4 = builder.sqrt_of(l3, poly_parse("y1 - 1/2*x1"))
    l5 = builder.axiom_line(1)
    l6 = builder.axiom_line(0)
    l7 = builder.mul_var(l6, X1)
    l8 = builder.lincomb(l7, l5, 1, -2)
    l9 = builder.lincomb(l4, l8, 1, Fraction(-1, 2))
    l10 = builder.lincomb(l9, l0, 1, -1)
    builder.lincomb(l10, l6, 4, 1)
    return axioms, builder.lines


def affine_definition() -> tuple[AxiomSet, list[ProofLine]]:
    """Declares y1 := x1 - 1/2 and multiplies it by x before refuting."""
    axioms = AxiomSet(
        base=HALF_AXIOMS, extensions=(ExtensionAxiom(Y1, poly_parse("x1 - 1/2")),)
    )
    builder = ProofBuilder(axioms, SystemKind.EXTPCSQRT_Q)
    l0 = builder.extension_line(Y1)
    builder.mul_var(l0, X1)
    _half_family_body(builder, "2*x1 - 1", Fraction(-1, 2))
    return axioms, builder.lines


def two_thirds_definition() -> tuple[AxiomSet, list[ProofLine]]:
    """Pairs the 3x - 1 axioms with the definition y1 := 2/3*x1."""
    axioms = AxiomSet(
        base=THIRD_AXIOMS, extensions=(ExtensionAxiom(Y1, poly_parse("2/3*x1")),)
    )
    builder = ProofBuilder(axioms, SystemKind.EXTPCSQRT_Q)
    l0 = builder.extension_line(Y1)
    builder.mul_var(l0, X1)
    l1 = builder.axiom_line(0)
    l2 = builder.mul_var(l1, X1)
    l3 = builder.lincomb(l2, l1, 3, -1)
    l4 = builder.sqrt_of(l3, poly_parse("3*x1 - 1"))
    l5 = builder.axiom_line(1)
    l6 = builder.lincomb(l2, l5, 1, -3)
    builder.lincomb(l4, l6, 1, Fraction(-3, 2))
    return axioms, builder.lines


def rational_corpus():
    return [
        ("negative_root", *negative_root()),
        ("negative_scalar", *negative_scalar()),
        ("unused_extension", *unused_extension()),
        ("nested_extensions", *nested_extensions()),
        ("third_delta", *third_delta()),
        ("working_extension", *working_extension()),
        ("affine_definition", *affine_definition()),
        ("two_thirds_definition", *two_thirds_definition()),
    ]


def gapped_extensions(
    multiplier: VarId, second: VarId = Y3
) -> tuple[AxiomSet, list[ProofLine]]:
    """Declares y1 := x/2 and second := 3*y1, skipping y2 by default, and
    multiplies second - 3/2*x1 by multiplier before refuting."""
    axioms = AxiomSet(
        base=HALF_AXIOMS,
        extensions=(
            ExtensionAxiom(Y1, poly_parse("1/2*x1")),
            ExtensionAxiom(second, poly_parse("3*y1")),
        ),
    )
    builder = ProofBuilder(axioms, SystemKind.EXTPCSQRT_Q)
    l0 = builder.lincomb(builder.extension_line(second), builder.extension_line(Y1), 1, 3)
    builder.mul_var(l0, multiplier)
    _half_family_body(builder, "1 - 2*x1", Fraction(1, 2))
    return axioms, builder.lines


def free_variable(multiplier: VarId = Y5) -> tuple[AxiomSet, list[ProofLine]]:
    """Multiplies the definition y1 := x/2 by multiplier, by default y5,
    which no extension defines, before refuting."""
    axioms = AxiomSet(
        base=HALF_AXIOMS, extensions=(ExtensionAxiom(Y1, poly_parse("1/2*x1")),)
    )
    builder = ProofBuilder(axioms, SystemKind.EXTPCSQRT_Q)
    builder.mul_var(builder.extension_line(Y1), multiplier)
    _half_family_body(builder, "1 - 2*x1", Fraction(1, 2))
    return axioms, builder.lines


def unused_extensions(count: int) -> tuple[AxiomSet, list[ProofLine]]:
    """negative_root under count definitions y_i := x/2 that it never uses."""
    axioms = AxiomSet(
        base=HALF_AXIOMS,
        extensions=tuple(
            ExtensionAxiom(yvar(i), poly_parse("1/2*x1")) for i in range(1, count + 1)
        ),
    )
    builder = ProofBuilder(axioms, SystemKind.EXTPCSQRT_Q)
    _half_family_body(builder, "1 - 2*x1", Fraction(1, 2))
    return axioms, builder.lines


def y_variables(axioms: AxiomSet, proof) -> set[VarId]:
    """Every y-variable of the axioms or of a variable multiplication; no
    other rule brings a variable into a proof."""
    named = {line.rule.var for line in proof if isinstance(line.rule, MulVar)}
    named.update(v for poly in axioms.all_polynomials() for v in poly.variables())
    return {v for v in named if v.kind == "y"}


def renumber(axioms: AxiomSet, proof, mapping: dict[VarId, VarId]):
    """The document with each variable v renamed mapping.get(v, v)."""
    bindings = {old: Polynomial.variable(new) for old, new in mapping.items()}

    def rule_of(rule):
        if isinstance(rule, MulVar):
            return MulVar(rule.k, mapping.get(rule.var, rule.var))
        return rule

    renamed = AxiomSet(
        base=tuple(poly.substitute(bindings) for poly in axioms.base),
        extensions=tuple(
            ExtensionAxiom(mapping.get(ext.var, ext.var), ext.definition.substitute(bindings))
            for ext in axioms.extensions
        ),
    )
    lines = [ProofLine(line.poly.substitute(bindings), rule_of(line.rule)) for line in proof]
    return renamed, lines
