"""Translations between proof formats.

Two translators live here.

simulate_reslin_b turns a linear-resolution refutation into an extended
square-root refutation over the rationals.  Every affine form that occurs
anywhere gets an extension variable (the registry), a disjunction becomes
the product of its disjuncts' variables, and each resolution rule is
replayed as a short derivation on those products.  The square root rule is
used by exactly one case, contraction.  A contraction's premise product
times its odd part is the square of its root monomial s = prod v^ceil(e/2);
the square root is taken once per distinct root, and every contraction
whose premise has that root lifts the one root line to its conclusion,
stripping first the variables the rest of its run removes, so each later
contraction of the run finds its line already made.  A resolution's swap
line y_new - alpha*y_a - beta*y_b is derived once per pair of forms and
coefficients, and when both rests are one monomial the two hats are added
before a single lift.

rationalize turns a refutation over the rationals into one over the
integers.  It is organized in phases:

  phase 0   picks integer multipliers: T_i rescales extension y_i so its
            definition clears every denominator, from the T_j of the
            earlier y_j it mentions; the map from each y_i to T_i is what
            later phases read, so y's may be numbered with gaps and a y
            that no extension defines is left alone, as an x is.  The
            per-line clearing constants L_k = (prod deltas)^(k+1) follow
            from the linear-combination denominators (deltas).
  phase 1   substitutes y_i -> y_i / T_i throughout; each line is its
            scale s (1 or some T_j) times the substituted polynomial.  A
            rule that needs scale 1 cites the one 1/s copy of a line, made
            at its first use; a line of scale 1 is never copied.
  phase 2   keeps a running integer factor F that grows whenever a
            rational scalar or a rational square root needs clearing.
            Each integer line is g times its phase-1 line, for a divisor
            g of F fixed at emission: 1 for an axiom, the premise's g for
            a variable multiplication, and F for a rule that folds F/g of
            its premises into integer scalars or a square root's one
            rescaling.  Only the last line may be rescaled to F.

The final integer constant is the original one times F and the scale of
the last line, so the ratio between output and input constants is a
positive integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .polyring import (
    Monomial,
    Polynomial,
    Scalar,
    VarId,
    as_scalar,
    boolean_axiom,
    int_to_str,
)
from .proofcore import (
    Axiom,
    AxiomSet,
    ExtensionAxiom,
    LinComb,
    MulVar,
    ProofBuilder,
    ProofLine,
    Sqrt,
    StepRule,
    SystemKind,
    check_refutation,
)
from .reslin import (
    Disjunction,
    LinEq,
    RlAxiom,
    RlBooleanAxiom,
    RlContraction,
    RlLine,
    RlResolution,
    RlSimplification,
    RlWeakening,
    build_registry,
    check_reslin,
    is_refutation,
    product_monomial,
)


class InvalidInputProof(Exception):
    """The proof handed to a translator does not check out."""


class InternalCheckFailure(Exception):
    """A translator produced output that fails its own verification."""


class NonIntegerBaseAxiom(Exception):
    """Rationalization needs the base axioms to be integral already."""


# -- linear resolution into extended square-root refutations --------------------


@dataclass(frozen=True)
class SimulationOutput:
    axioms: AxiomSet
    proof: tuple[ProofLine, ...]
    line_map: tuple[int, ...]


def simulate_reslin_b(
    axioms: Sequence[Disjunction], proof: Sequence[RlLine]
) -> SimulationOutput:
    """Translate a linear-resolution refutation into product form.

    The output refutes the hat products of the input axioms together with
    one boolean axiom per mentioned x-variable, over the rational extended
    square-root system, and ends in the constant 1.  line_map[i] is the
    output line whose polynomial is the hat of input line i.
    """
    report = check_reslin(axioms, proof)
    if not report.valid:
        raise InvalidInputProof(f"input fails at line {report.error.line}: "
                                f"{report.error.code}")
    if not is_refutation(proof):
        raise InvalidInputProof("input does not end in the empty disjunction")

    registry = build_registry(axioms, proof)
    mentioned: set[VarId] = set()
    for disjunction in list(axioms) + [line.disjunction for line in proof]:
        for eq in disjunction.disjuncts:
            mentioned.update(v for v, _ in eq.coeffs)
    xvars = sorted(mentioned)

    base = tuple(
        Polynomial(((product_monomial(d, registry), 1),)) for d in axioms
    ) + tuple(boolean_axiom(v) for v in xvars)
    out_axioms = AxiomSet(base=base, extensions=registry.definitions())
    builder = ProofBuilder(out_axioms, SystemKind.EXTPCSQRT_Q)
    boolean_index = {v: len(axioms) + i for i, v in enumerate(xvars)}

    # The variables that the run of contractions from each line goes on to
    # remove, in order; a contraction's lift strips them first.
    removed_after: dict[int, tuple[VarId, ...]] = {}
    for i in reversed(range(len(proof))):
        rule = proof[i].rule
        if isinstance(rule, RlContraction):
            var = registry.lookup(proof[rule.j].disjunction.disjuncts[rule.d1])
            removed_after[rule.j] = (var,) + removed_after.get(i, ())

    hat_lines: list[int] = []
    roots: dict[Monomial, int] = {}
    swaps: dict[tuple, int] = {}
    for i, line in enumerate(proof):
        rule = line.rule
        if isinstance(rule, RlAxiom):
            emitted = builder.axiom_line(rule.index)
        elif isinstance(rule, RlBooleanAxiom):
            emitted = _simulate_boolean(builder, registry, boolean_index, rule)
        elif isinstance(rule, RlResolution):
            emitted = _simulate_resolution(
                builder, registry, proof, hat_lines, rule, swaps
            )
        elif isinstance(rule, RlWeakening):
            emitted = builder.mul_var(
                hat_lines[rule.j], registry.lookup(rule.eq)
            )
        elif isinstance(rule, RlSimplification):
            emitted = _simulate_simplification(
                builder, registry, proof, hat_lines, rule
            )
        else:
            emitted = _simulate_contraction(
                builder, registry, proof, hat_lines, rule, roots,
                removed_after.get(i, ()),
            )
        expected = Polynomial(((product_monomial(line.disjunction, registry), 1),))
        if builder.poly_at(emitted) != expected:
            raise InternalCheckFailure(
                f"simulated line does not match its hat product"
            )
        hat_lines.append(emitted)

    final = check_refutation(out_axioms, builder.lines, SystemKind.EXTPCSQRT_Q)
    if not final.valid or final.final_constant != 1:
        raise InternalCheckFailure("the simulated refutation fails to check")
    return SimulationOutput(
        axioms=out_axioms,
        proof=tuple(builder.lines),
        line_map=tuple(hat_lines),
    )


def _simulate_boolean(builder, registry, boolean_index, rule) -> int:
    """Derive ya*yb from v^2 - v, for ya := v and yb := v - 1."""
    v = rule.var
    var_a = registry.lookup(LinEq.of({v: 1}, 0))
    var_b = registry.lookup(LinEq.of({v: 1}, 1))
    square = builder.axiom_line(boolean_index[v])
    def_a = builder.extension_line(var_a)
    def_b = builder.extension_line(var_b)
    v_def_a = builder.mul_var(def_a, v)
    shifted = builder.lincomb(v_def_a, def_a, 1, -1)
    cross = builder.mul_var(def_b, var_a)
    partial = builder.lincomb(square, shifted, 1, 1)
    return builder.lincomb(partial, cross, 1, 1)


def _simulate_resolution(builder, registry, proof, hat_lines, rule, swaps) -> int:
    """Combine two product lines through the resolved forms' definitions.

    The swap line y_new - alpha*y_a - beta*y_b is derived once per
    (new, a, b, alpha, beta) and kept in swaps, so every resolution of that
    pair of forms lifts the same line and shares its partial products.
    When both rests are one monomial A, alpha*hat_a + beta*hat_b plus
    A*swap is A*y_new, and one lift by A gives the conclusion: |A| + 2
    lines besides the shared lift of the swap.  Otherwise, with A the
    shorter rest and B the longer, A*swap plus the hat whose rest is A is
    lifted by B, and the other hat lifted by A is added: 2|A| + |B|
    variable multiplications.
    """
    prem_a = proof[rule.j].disjunction
    prem_b = proof[rule.k].disjunction
    eq_a = prem_a.disjuncts[rule.dj]
    eq_b = prem_b.disjuncts[rule.dk]
    rest_a = product_monomial(prem_a.without(rule.dj), registry)
    rest_b = product_monomial(prem_b.without(rule.dk), registry)
    var_new = registry.lookup(eq_a.combine(eq_b, rule.alpha, rule.beta))
    var_a, var_b = registry.lookup(eq_a), registry.lookup(eq_b)
    key = (var_new, var_a, var_b, rule.alpha, rule.beta)
    swap = swaps.get(key)
    if swap is None:
        partial = builder.lincomb(
            builder.extension_line(var_new), builder.extension_line(var_a),
            1, -rule.alpha,
        )
        swap = swaps[key] = builder.lincomb(
            partial, builder.extension_line(var_b), 1, -rule.beta
        )
    if rest_a == rest_b:
        hats = builder.lincomb(
            hat_lines[rule.j], hat_lines[rule.k], rule.alpha, rule.beta
        )
        lifted = builder.lincomb(builder.monomial_multiple(swap, rest_a), hats, 1, 1)
        return builder.monomial_multiple(lifted, rest_a)
    (short_rest, short_hat, short_coef), (long_rest, long_hat, long_coef) = sorted(
        (
            (rest_a, hat_lines[rule.j], rule.alpha),
            (rest_b, hat_lines[rule.k], rule.beta),
        ),
        key=lambda side: side[0].degree,
    )
    lifted = builder.lincomb(
        builder.monomial_multiple(swap, short_rest), short_hat, 1, short_coef
    )
    return builder.lincomb(
        builder.monomial_multiple(lifted, long_rest),
        builder.monomial_multiple(long_hat, short_rest),
        1,
        long_coef,
    )


def _simulate_simplification(builder, registry, proof, hat_lines, rule) -> int:
    """Strip a false constant disjunct by dividing its definition out."""
    premise = proof[rule.j].disjunction
    constant = premise.disjuncts[rule.d].constant
    rest = product_monomial(premise.without(rule.d), registry)
    def_line = builder.extension_line(
        registry.lookup(premise.disjuncts[rule.d])
    )
    lifted = builder.monomial_multiple(def_line, rest)
    difference = builder.lincomb(lifted, hat_lines[rule.j], 1, -1)
    if constant == 1:
        return difference
    return builder.scale_line(difference, Fraction(1, constant))


def _simulate_contraction(
    builder, registry, proof, hat_lines, rule, roots, removed_after
) -> int:
    """Lift the one square root of the premise hat to the conclusion's hat.

    The premise hat prod v^e_v has the root s = prod v^ceil(e_v/2); times
    its odd part prod v^(e_v mod 2) it is s^2.  roots maps each s to the
    line holding it, so a run of contractions that shares s takes a single
    square root, and each conclusion is s times the remainder.  The lift
    strips first the variables removed_after names, those the rest of the
    run removes in order, so the next conclusion's lift is a partial
    product of this one: the lifts of a whole run cost |R| variable
    multiplications for its first remainder R, not one chain each.
    """
    premise = proof[rule.j].disjunction
    hat = product_monomial(premise, registry)
    root = Monomial((v, (e + 1) // 2) for v, e in hat.pairs)
    line = roots.get(root)
    if line is None:
        odd = Monomial((v, e % 2) for v, e in hat.pairs)
        squared = builder.monomial_multiple(hat_lines[rule.j], odd)
        line = roots[root] = builder.sqrt_of(squared, Polynomial(((root, 1),)))
    conclusion = hat.without(registry.lookup(premise.disjuncts[rule.d1]))
    remainder = Monomial((v, e - root.exponent(v)) for v, e in conclusion.pairs)
    return builder.monomial_multiple(line, remainder, removed_after)


# -- rationalization of proofs over the rationals --------------------------------


@dataclass(frozen=True)
class PhaseOneLine:
    """poly == scale * (input line provenance with y_i -> y_i / T_i).

    A line without provenance is the 1/s copy of the line it cites, whose
    scale is s, and has scale 1 itself.
    """

    poly: Polynomial
    rule: StepRule
    provenance: Optional[int]
    scale: int


@dataclass(frozen=True)
class RationalizeState:
    """What rationalize computed; the line clearers L_k follow from deltas.

    L_k = (prod deltas)^(k+1) for each of the line_count input lines.  It is
    neither stored nor written out: the clearers together hold
    quadratically many digits, and only the faithful square-root branch of
    _phase_two computes one, for the line it clears.
    """

    denominator_products: tuple[int, ...]
    scale_factors: tuple[int, ...]
    deltas: tuple[int, ...]
    line_count: int
    final_factor: int
    final_constant: int


@dataclass(frozen=True)
class RationalizeResult:
    axioms: AxiomSet
    proof: tuple[ProofLine, ...]
    phase_one: tuple[PhaseOneLine, ...]
    prime_of: tuple[int, ...]
    state: RationalizeState


def _max_degree_of(poly: Polynomial, var: VarId) -> int:
    return max((mono.exponent(var) for mono in poly.term_map), default=0)


def _scalar_denominator(value: Scalar) -> int:
    value = as_scalar(value)
    return value.denominator if isinstance(value, Fraction) else 1


def compute_scale_factors(axioms: AxiomSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Phase 0 for extensions: (M_i, T_i) per extension, in order.

    M_i is the product of the denominators in definition i, and
    T_i = M_i * prod T_j^(max degree of y_j in definition i) over its y_j.
    """
    products: list[int] = []
    scale: dict[VarId, int] = {}
    for extension in axioms.extensions:
        definition = extension.definition
        m = t = definition.denominator_product()
        for var in definition.variables():
            if var in scale:
                t *= scale[var] ** _max_degree_of(definition, var)
        products.append(m)
        scale[extension.var] = t
    return tuple(products), tuple(scale.values())


def _descaling(scale: Mapping[VarId, int]) -> dict[VarId, Polynomial]:
    """The phase-1 substitution y_i -> y_i / T_i, for each T_i other than 1."""
    return {
        v: Polynomial.variable(v).scale(Fraction(1, t)) for v, t in scale.items() if t != 1
    }


def _collect_deltas(proof: Sequence[ProofLine]) -> tuple[int, ...]:
    deltas = {1}
    for line in proof:
        if isinstance(line.rule, LinComb):
            deltas.add(_scalar_denominator(line.rule.alpha))
            deltas.add(_scalar_denominator(line.rule.beta))
    return tuple(sorted(deltas))


def rationalize(
    axioms: AxiomSet,
    proof: Sequence[ProofLine],
    faithful_constants: bool = False,
) -> RationalizeResult:
    """Lift a rational refutation of integer base axioms to the integers.

    The output shares the base axioms, rescales each extension definition
    to integer coefficients, and multiplies the refutation through by a
    positive integer, so its final constant is the original times that
    integer.  faithful_constants switches the square-root clearing factor
    from the least common denominator to the precomputed per-line product,
    which is larger but independent of the actual polynomial.  Phase 1 and
    the output are both verified; a failure raises InternalCheckFailure.
    """
    for base in axioms.base:
        if not base.is_integral():
            raise NonIntegerBaseAxiom(f"base axiom {base} has rational coefficients")
    report = check_refutation(axioms, proof, SystemKind.EXTPCSQRT_Q)
    if not report.valid:
        raise InvalidInputProof(
            f"input fails at line {report.error.line}: {report.error.code}"
        )

    products, factors = compute_scale_factors(axioms)
    scale = dict(zip((ext.var for ext in axioms.extensions), factors))
    deltas = _collect_deltas(proof)

    new_axioms, phase_one, prime_of = _phase_one(axioms, proof, scale)
    phase_proof = [ProofLine(line.poly, line.rule) for line in phase_one]
    middle = check_refutation(new_axioms, phase_proof, SystemKind.EXTPCSQRT_Q)
    if not middle.valid:
        raise InternalCheckFailure(
            f"phase 1 fails at line {middle.error.line}: {middle.error.code}"
        )

    z_proof, final_factor = _phase_two(
        new_axioms, phase_one, proof, math.prod(deltas), scale, faithful_constants
    )
    final = check_refutation(new_axioms, z_proof, SystemKind.EXTPCSQRT_Z)
    if not final.valid:
        raise InternalCheckFailure(
            f"phase 2 fails at line {final.error.line}: {final.error.code}"
        )
    ratio = Fraction(final.final_constant) / Fraction(report.final_constant)
    if ratio <= 0 or ratio.denominator != 1:
        raise InternalCheckFailure(f"constant ratio {ratio} is not a positive integer")

    result = RationalizeResult(
        axioms=new_axioms,
        proof=tuple(z_proof),
        phase_one=tuple(phase_one),
        prime_of=tuple(prime_of),
        state=RationalizeState(
            denominator_products=products,
            scale_factors=factors,
            deltas=deltas,
            line_count=len(proof),
            final_factor=final_factor,
            final_constant=final.final_constant,
        ),
    )
    # The Z checker cannot see the substitution identity, so check it here.
    verify_phase_one(axioms, proof, result)
    return result


def _phase_one(
    axioms: AxiomSet, proof: Sequence[ProofLine], scale: Mapping[VarId, int]
) -> tuple[AxiomSet, list[PhaseOneLine], list[int]]:
    substitution = _descaling(scale)
    new_extensions = tuple(
        ExtensionAxiom(
            extension.var,
            extension.definition.substitute(substitution).scale(scale[extension.var]),
        )
        for extension in axioms.extensions
    )
    new_axioms = AxiomSet(base=axioms.base, extensions=new_extensions)

    lines: list[PhaseOneLine] = []
    prime_of: list[int] = []
    copies: dict[int, int] = {}

    def push(
        poly: Polynomial, rule: StepRule, provenance: Optional[int], scale: int
    ) -> int:
        lines.append(PhaseOneLine(poly, rule, provenance, scale))
        return len(lines) - 1

    def unscaled(index: int) -> int:
        """Phase-1 line index at scale 1, copied at most once."""
        s = lines[index].scale
        if s != 1 and index not in copies:
            reciprocal = Fraction(1, s)
            copy = LinComb(index, index, reciprocal, 0)
            copies[index] = push(lines[index].poly.scale(reciprocal), copy, None, 1)
        return copies.get(index, index)

    for k, line in enumerate(proof):
        rule = line.rule
        if isinstance(rule, Axiom):
            if rule.index < len(axioms.base):
                target = push(line.poly, rule, k, 1)
            else:
                extension = new_extensions[rule.index - len(axioms.base)]
                target = push(extension.polynomial, rule, k, scale[extension.var])
        elif isinstance(rule, MulVar):
            premise = prime_of[rule.k]
            if rule.var in scale:
                premise, s = unscaled(premise), scale[rule.var]
            else:
                s = lines[premise].scale
            product = lines[premise].poly.mul_var(rule.var)
            target = push(product, MulVar(premise, rule.var), k, s)
        elif isinstance(rule, LinComb):
            left, right = prime_of[rule.j], prime_of[rule.k]
            if lines[left].scale != lines[right].scale:
                left, right = unscaled(left), unscaled(right)
            combined = lines[left].poly.scale(rule.alpha).add(
                lines[right].poly.scale(rule.beta)
            )
            step = LinComb(left, right, rule.alpha, rule.beta)
            target = push(combined, step, k, lines[left].scale)
        else:
            source = unscaled(prime_of[rule.k])
            root = line.poly.substitute(substitution)
            target = push(root, Sqrt(source), k, 1)
        prime_of.append(target)
    return new_axioms, lines, prime_of


def _phase_two(
    new_axioms: AxiomSet,
    phase_one: Sequence[PhaseOneLine],
    original: Sequence[ProofLine],
    spread: int,
    scale: Mapping[VarId, int],
    faithful_constants: bool,
) -> tuple[list[ProofLine], int]:
    builder = ProofBuilder(new_axioms, SystemKind.EXTPCSQRT_Z)
    factor = 1
    # located[p] = (line, g): integer line `line` is g times phase-1 line p.
    located: list[tuple[int, int]] = []

    for line in phase_one:
        rule = line.rule
        if isinstance(rule, Axiom):
            emitted, held = builder.axiom_line(rule.index), 1
        elif isinstance(rule, MulVar):
            premise, held = located[rule.k]
            emitted = builder.mul_var(premise, rule.var)
        elif isinstance(rule, LinComb):
            alpha, beta = as_scalar(rule.alpha), as_scalar(rule.beta)
            factor *= _scalar_denominator(alpha) * _scalar_denominator(beta)
            (left, g_left), (right, g_right) = located[rule.j], located[rule.k]
            emitted = builder.lincomb(
                left, right, alpha * (factor // g_left), beta * (factor // g_right)
            )
            held = factor
        else:
            root = line.poly
            if faithful_constants:
                origin = original[line.provenance].poly
                clearing = spread ** (line.provenance + 1) * math.prod(
                    t ** _max_degree_of(origin, v) for v, t in scale.items()
                )
                if clearing % root.denominator_lcm() != 0:
                    raise InternalCheckFailure(
                        "the per-line clearing constant misses a denominator"
                    )
            else:
                clearing = root.denominator_lcm()
            source, g_source = located[rule.k]
            factor *= clearing
            squared = builder.scale_line(source, factor**2 // g_source)
            emitted, held = builder.sqrt_of(squared, root.scale(factor)), factor
        located.append((emitted, held))

    last, held = located[-1]
    if held != factor or last != len(builder.lines) - 1:
        builder.scale_line(last, factor // held)
    return builder.lines, factor


def verify_phase_one(
    axioms: AxiomSet, proof: Sequence[ProofLine], result: RationalizeResult
) -> None:
    """Re-derive phase 1 from first principles and compare.

    Checks the substitution identity for every line that realizes an input
    line, and that every linear combination either reuses the original
    scalars or is the 1/s rescaling of the line it cites, whose scale is s.
    Raises InternalCheckFailure on the first violation.
    """
    variables = (ext.var for ext in axioms.extensions)
    substitution = _descaling(dict(zip(variables, result.state.scale_factors)))
    phase = result.phase_one

    for k, line in enumerate(proof):
        image = phase[result.prime_of[k]]
        if image.poly != line.poly.substitute(substitution).scale(image.scale):
            raise InternalCheckFailure(f"line {k} breaks the substitution identity")

    for index, line in enumerate(phase):
        if not isinstance(line.rule, LinComb):
            continue
        alpha, beta = as_scalar(line.rule.alpha), as_scalar(line.rule.beta)
        if line.provenance is None:
            if beta != 0 or alpha != Fraction(1, phase[line.rule.j].scale):
                raise InternalCheckFailure(
                    f"auxiliary line {index} is not the 1/s copy of its premise"
                )
        else:
            origin = proof[line.provenance].rule
            if not isinstance(origin, LinComb) or (
                as_scalar(origin.alpha),
                as_scalar(origin.beta),
            ) != (alpha, beta):
                raise InternalCheckFailure(
                    f"line {index} does not reuse the original scalars"
                )


def state_to_obj(state: RationalizeState) -> dict[str, object]:
    """The state as JSON strings; line_count fixes every L_k with deltas."""
    return {
        "M": [int_to_str(m) for m in state.denominator_products],
        "T": [int_to_str(t) for t in state.scale_factors],
        "deltas": [int_to_str(d) for d in state.deltas],
        "line_count": int_to_str(state.line_count),
        "F_final": int_to_str(state.final_factor),
        "final_constant": int_to_str(state.final_constant),
    }
