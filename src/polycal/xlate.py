"""Translations between proof formats.

Two translators live here.

simulate_reslin_b turns a linear-resolution refutation into an extended
square-root refutation over the rationals.  Every affine form that occurs
anywhere gets an extension variable (the registry), a disjunction becomes
the product of its disjuncts' variables, and each resolution rule is
replayed as a short derivation on those products.  A line's product, its
hat, is kept as a proof line times a monomial and multiplied out only when
a rule cites it, so the refutation uses every line but the square root of
a contraction no rule cites and what only that root reads.  The square
root rule is used by exactly one case, contraction.  A contraction's
premise product times its odd part is the square of its root monomial
s = prod v^ceil(e/2); the square root is taken once per distinct root, and
the hat of every contraction whose premise has that root is s times its
remainder.  A resolution lifts only its fresh part: the shorter rest A
times the form of its premise's disjunct, hat - A*def, is the same steps
for every resolution of that premise's disjunct, so the builder, which
never appends a step twice, derives it once, and each resolution lifts
y_new minus the longer premise's scaled definition.  When both rests are
one monomial the two hats are added before a single lift.  A resolution
into a false constant 0 = c derives the product of its two rests, and its
hat is y_new times that line, so the simplification that drops the
constant reuses that product and emits nothing.

rationalize turns a refutation over the rationals into one over the
integers.  It first picks integer multipliers: T_i rescales extension y_i
so its definition clears every denominator, from the T_j of the earlier
y_j it mentions.  The lift reads the map from each y_i to T_i, so y's may
be numbered with gaps and a y that no extension defines is left alone, as
an x is.

It then lifts the input in one pass, keeping one factor per line: under
the substitution y_i -> y_i / T_i, the integer line of input line k is g
times line k.  A base axiom has g = 1, and the definition of y_i has
g = T_i.  A multiplication by y_i multiplies its premise's g by T_i, and
one by an x keeps it.  A linear combination of lines j and k with scalars
a and b takes the least g for which a*g/g_j and b*g/g_k are integers, and
those are its scalars; a square root takes the lcm of its root's
denominators and g_k, and rescales its source once, by g^2/g_k.

The last integer line is g times c, the input's final constant.  When c
is an integer, g is then halved until it is squarefree: with
h = prod p^ceil(e/2) over the prime powers p^e of g, the line is rescaled
to h^2 * c^2 and its square root h * c is the new last line.  On the
splitting refutation of BVP_n the per-line g ends in lcm(1..2^n) and
the halvings leave the primorial of 2^n, the least constant the paper's
divisibility law allows.  Either way the ratio between output and input
constants is a positive integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

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
    CheckError,
    ExtensionAxiom,
    LinComb,
    MulVar,
    ProofBuilder,
    ProofLine,
    SystemKind,
    refutation_verdict,
)
from .reslin import (
    Disjunction,
    LinEq,
    RlAxiom,
    RlBooleanAxiom,
    RlLine,
    RlResolution,
    RlSimplification,
    RlWeakening,
    build_registry,
    first_reslin_error,
    is_refutation,
    product_monomial,
)


# _halvings factors the last line's g by trial division up to this bound.
_TRIAL_DIVISION_BOUND = 1 << 16


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
    line_map: tuple[Optional[int], ...]


def simulate_reslin_b(
    axioms: Sequence[Disjunction], proof: Sequence[RlLine]
) -> SimulationOutput:
    """Translate a linear-resolution refutation into product form.

    The output refutes the hat products of the input axioms together with
    one boolean axiom per mentioned x-variable, over the rational extended
    square-root system, and ends in the constant 1.  line_map[i] is the
    output line whose polynomial is the hat of input line i, or None when
    no rule cited that hat and it was never derived.  A line that reuses an
    earlier one maps to it, so line_map[i] may name a line before
    line_map[i - 1]; the last entry is always the last output line.
    """
    error = first_reslin_error(axioms, proof)
    if error is not None:
        raise InvalidInputProof(f"input fails at line {error.line}: {error.code}")
    if not is_refutation(proof):
        raise InvalidInputProof("input does not end in the empty disjunction")

    registry = build_registry(axioms, proof)
    xvars = sorted({v for eq in registry.equations() for v, _ in eq.coeffs})

    base = tuple(
        Polynomial(((product_monomial(d, registry), 1),)) for d in axioms
    ) + tuple(boolean_axiom(v) for v in xvars)
    out_axioms = AxiomSet(base=base, extensions=registry.definitions())
    builder = ProofBuilder(out_axioms, SystemKind.EXTPCSQRT_Q)
    boolean_index = {v: len(axioms) + i for i, v in enumerate(xvars)}

    hats = [product_monomial(line.disjunction, registry) for line in proof]
    # hat_pairs[i] = (line, mono): hat i is mono times that line, and
    # hat_line(i) derives it when a rule cites it.
    hat_pairs: list[tuple[int, Monomial]] = []

    def hat_line(i: int) -> int:
        return builder.monomial_multiple(*hat_pairs[i])

    # Lines that hold a bare monomial, for a contraction or a simplification
    # to reuse: each run's square root, the rests' products of resolutions
    # into false constants, and every simplification's conclusion.
    held: dict[Monomial, int] = {}
    for i, line in enumerate(proof):
        rule = line.rule
        mono = Monomial.one()
        if isinstance(rule, RlAxiom):
            emitted = builder.axiom_line(rule.index)
        elif isinstance(rule, RlBooleanAxiom):
            emitted = _simulate_boolean(builder, registry, boolean_index, rule)
        elif isinstance(rule, RlResolution):
            emitted, mono = _simulate_resolution(
                builder, registry, proof, hats, hat_line, rule, held
            )
        elif isinstance(rule, RlWeakening):
            emitted, mono = hat_pairs[rule.j]
            mono = mono.times(Monomial.of(registry.lookup(rule.eq)))
        elif isinstance(rule, RlSimplification):
            eq = proof[rule.j].disjunction.disjuncts[rule.d]
            emitted = _simulate_simplification(
                builder, registry.lookup(eq), eq.constant, hat_line, rule.j,
                hats[i], held,
            )
        else:
            emitted, mono = _simulate_contraction(
                builder, hat_line, rule.j, hats[rule.j], hats[i], held
            )
        if builder.poly_at(emitted).mul_term(mono) != Polynomial(((hats[i], 1),)):
            raise InternalCheckFailure(
                f"simulated line does not match its hat product"
            )
        hat_pairs.append((emitted, mono))

    last = hat_line(len(proof) - 1)
    if last != len(builder.lines) - 1:
        # A reused hat comes before later lines: the refutation ends in a copy.
        last = builder.append(builder.poly_at(last), LinComb(last, last, 1, 0))
    # A CheckError is never equal to 1.
    if refutation_verdict(out_axioms, builder.lines, SystemKind.EXTPCSQRT_Q) != 1:
        raise InternalCheckFailure("the simulated refutation fails to check")
    line_map = [builder.known_multiple(*pair) for pair in hat_pairs[:-1]]
    return SimulationOutput(
        axioms=out_axioms,
        proof=tuple(builder.lines),
        line_map=(*line_map, last),
    )


def _simulate_boolean(builder, registry, boolean_index, rule) -> int:
    """Derive ya*yb = yb*def_a + v*def_b + (v^2 - v), for ya := v and
    yb := v - 1."""
    v = rule.var
    var_a = registry.lookup(LinEq.of({v: 1}, 0))
    var_b = registry.lookup(LinEq.of({v: 1}, 1))
    square = builder.axiom_line(boolean_index[v])
    def_a = builder.extension_line(var_a)
    def_b = builder.extension_line(var_b)
    cross = builder.lincomb(builder.mul_var(def_a, var_b), builder.mul_var(def_b, v), 1, 1)
    return builder.lincomb(cross, square, 1, 1)


def _simulate_resolution(
    builder, registry, proof, hats, hat_line, rule, held
) -> tuple[int, Monomial]:
    """Combine two product lines through the resolved forms' definitions.

    Returns (line, monomial): the conclusion's hat is monomial times line.

    When both rests are one monomial A, the line
    y_new - alpha*y_a - beta*y_b, two combinations of definitions, is the
    same steps for every resolution of that pair of forms:
    alpha*hat_a + beta*hat_b plus A times it is A*y_new, and the conclusion
    is A times that line.  Otherwise the resolvent is lifted through the
    two rests to the conclusion (_lift_through_rests).

    A resolvent 0 = c with c != 0 and rests A and B that differ takes A*B,
    kept in held for the simplification that drops the constant, and the
    conclusion is y_new times that line.
    """
    eq_a = proof[rule.j].disjunction.disjuncts[rule.dj]
    eq_b = proof[rule.k].disjunction.disjuncts[rule.dk]
    resolvent = eq_a.combine(eq_b, rule.alpha, rule.beta)
    var_new = registry.lookup(resolvent)
    var_a, var_b = registry.lookup(eq_a), registry.lookup(eq_b)
    rest_a, rest_b = hats[rule.j].without(var_a), hats[rule.k].without(var_b)
    sides = ((rest_a, rule.j, var_a, rule.alpha), (rest_b, rule.k, var_b, rule.beta))
    if rest_a != rest_b and resolvent.is_constant() and resolvent.constant:
        product = rest_a.times(rest_b)
        line = held.get(product)
        if line is None:
            line = held[product] = _lift_through_rests(
                builder, hat_line, sides, None, resolvent.constant
            )
        return line, Monomial.of(var_new)
    if rest_a == rest_b:
        swap = builder.lincomb(
            builder.lincomb(
                builder.extension_line(var_new), builder.extension_line(var_a), 1, -rule.alpha
            ),
            builder.extension_line(var_b),
            1,
            -rule.beta,
        )
        hat_sum = builder.lincomb(
            hat_line(rule.j), hat_line(rule.k), rule.alpha, rule.beta
        )
        lifted = builder.lincomb(builder.monomial_multiple(swap, rest_a), hat_sum, 1, 1)
        return lifted, rest_a
    return _lift_through_rests(builder, hat_line, sides, var_new), Monomial.one()


def _lift_through_rests(builder, hat_line, sides, var_new, constant=None) -> int:
    """The conclusion A*B*y_new, or A*B for a resolvent 0 = constant.

    sides holds (rest, input line, disjunct's variable, coefficient) for
    both premises: A is the shorter rest, of premise s with variable v_s
    and coefficient sigma, and B the longer, of premise l with v_l and
    lambda.  def(v) is the definition line v - form(v).  The short
    premise's cofactor T_s = hat_s - A*def(v_s), which is A*form(v_s), is
    the same steps for every resolution of that premise's disjunct, so it
    is derived once.  Only the rest is fresh: with
    D = def(y_new) - lambda*def(v_l), A*D + sigma*T_s is
    A*(y_new - lambda*v_l), and B times it plus lambda*A*hat_l is the
    conclusion.  A false constant c needs no y_new: D = -lambda*def(v_l)
    gives -c*A*B, divided by -c in the last combination.  Besides T_s, a
    resolution takes |A| variable multiplications each of D and of hat_l,
    |B| of the lifted line and two combinations, plus D's own for a
    resolvent that is not a false constant.
    """
    (short_rest, short, short_var, sigma), (long_rest, long, long_var, lam) = sorted(
        sides, key=lambda side: side[0].degree
    )
    cofactor = builder.lincomb(
        hat_line(short),
        builder.monomial_multiple(builder.extension_line(short_var), short_rest),
        1,
        -1,
    )
    if constant is None:
        fresh = builder.lincomb(
            builder.extension_line(var_new), builder.extension_line(long_var), 1, -lam
        )
        scale, divisor = 1, 1
    else:
        fresh, scale, divisor = builder.extension_line(long_var), -lam, -constant
    lifted = builder.lincomb(
        builder.monomial_multiple(fresh, short_rest), cofactor, scale, sigma
    )
    return builder.lincomb(
        builder.monomial_multiple(lifted, long_rest),
        builder.monomial_multiple(hat_line(long), short_rest),
        Fraction(1, divisor),
        Fraction(lam, divisor),
    )


def _simulate_simplification(builder, var, constant, hat_line, premise, rest, held) -> int:
    """Divide the definition of var, a false constant disjunct 0 = c, out of
    the hat of input line premise: rest is (rest * (var + c) - hat) / c,
    one combination with the scalars 1/c and -1/c.

    A rest that held already holds costs no line and cites no premise; a
    rest derived here is added to it.
    """
    if rest not in held:
        lifted = builder.monomial_multiple(builder.extension_line(var), rest)
        inverse = Fraction(1, constant)
        held[rest] = builder.lincomb(lifted, hat_line(premise), inverse, -inverse)
    return held[rest]


def _simulate_contraction(
    builder, hat_line, premise, hat, conclusion, held
) -> tuple[int, Monomial]:
    """The one square root of the premise hat, and the conclusion over it.

    The premise hat prod v^e_v has the root s = prod v^ceil(e_v/2); times
    its odd part prod v^(e_v mod 2) it is s^2.  held maps each s to the
    line holding it, so a run of contractions that shares s takes a single
    square root and cites only the premise of its first contraction.  It
    returns (line of s, remainder): the conclusion is their product.
    """
    root = Monomial((v, (e + 1) // 2) for v, e in hat.pairs)
    line = held.get(root)
    if line is None:
        odd = Monomial((v, e % 2) for v, e in hat.pairs)
        squared = builder.monomial_multiple(hat_line(premise), odd)
        line = held[root] = builder.sqrt_of(squared, Polynomial(((root, 1),)))
    return line, Monomial((v, e - root.exponent(v)) for v, e in conclusion.pairs)


# -- rationalization of proofs over the rationals --------------------------------


@dataclass(frozen=True)
class RationalizeState:
    """What rationalize computed.

    deltas (the linear-combination denominators) and line_count are the
    inputs of the paper's per-line clearers L_k = (prod deltas)^(k+1), one
    for each of the line_count input lines.  The lift clears each line by
    its own least factor instead, so no L_k is built: together they would
    hold quadratically many digits.  final_factor (F_final) is the
    output's final constant divided by the input's.
    """

    denominator_products: tuple[int, ...]
    scale_factors: tuple[int, ...]
    deltas: tuple[int, ...]
    line_count: int
    final_factor: int
    final_constant: int


@dataclass(frozen=True)
class RationalizeResult:
    """The integer refutation and where each input line landed in it.

    lifted[k] = (z, c): integer line z is c times input line k under the
    substitution y_i -> y_i / T_i.
    """

    axioms: AxiomSet
    proof: tuple[ProofLine, ...]
    lifted: tuple[tuple[int, int], ...]
    state: RationalizeState


def _max_degree_of(poly: Polynomial, var: VarId) -> int:
    return max((mono.exponent(var) for mono in poly.term_map), default=0)


def _scalar_denominator(value: Scalar) -> int:
    value = as_scalar(value)
    return value.denominator if isinstance(value, Fraction) else 1


def compute_scale_factors(axioms: AxiomSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The integer multipliers: (M_i, T_i) per extension, in order.

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
    """The substitution y_i -> y_i / T_i, for each T_i other than 1."""
    return {
        v: Polynomial.variable(v).scale(Fraction(1, t)) for v, t in scale.items() if t != 1
    }


def _collect_deltas(proof: Sequence[ProofLine]) -> tuple[int, ...]:
    """1 and every linear-combination denominator: the deltas of L_k."""
    deltas = {1}
    for line in proof:
        if isinstance(line.rule, LinComb):
            deltas.add(_scalar_denominator(line.rule.alpha))
            deltas.add(_scalar_denominator(line.rule.beta))
    return tuple(sorted(deltas))


def rationalize(axioms: AxiomSet, proof: Sequence[ProofLine]) -> RationalizeResult:
    """Lift a rational refutation of integer base axioms to the integers.

    The output shares the base axioms, rescales each extension definition
    to integer coefficients, and multiplies the refutation through by a
    positive integer, the state's final_factor, so its final constant is
    the original times that integer.  Each integer line is cleared by its
    own least factor and the last one is halved to a squarefree factor.
    The output and its lift of every input line are both verified; a
    failure raises InternalCheckFailure.  A square root past the decoder's
    limits, lifted or halved, raises FormatError, as `check` would.
    """
    for base in axioms.base:
        if not base.is_integral():
            raise NonIntegerBaseAxiom(f"base axiom {base} has rational coefficients")
    q_final = refutation_verdict(axioms, proof, SystemKind.EXTPCSQRT_Q)
    if isinstance(q_final, CheckError):
        raise InvalidInputProof(f"input fails at line {q_final.line}: {q_final.code}")

    products, factors = compute_scale_factors(axioms)
    scale = dict(zip((ext.var for ext in axioms.extensions), factors))
    deltas = _collect_deltas(proof)
    substitution = _descaling(scale)
    new_axioms = AxiomSet(
        base=axioms.base,
        extensions=tuple(
            ExtensionAxiom(
                ext.var, ext.definition.substitute(substitution).scale(scale[ext.var])
            )
            for ext in axioms.extensions
        ),
    )

    z_proof, lifted = _lift(new_axioms, proof, substitution, scale)
    z_final = refutation_verdict(new_axioms, z_proof, SystemKind.EXTPCSQRT_Z)
    if isinstance(z_final, CheckError):
        raise InternalCheckFailure(
            f"the integer proof fails at line {z_final.line}: {z_final.code}"
        )
    ratio = Fraction(z_final) / Fraction(q_final)
    if ratio <= 0 or ratio.denominator != 1:
        raise InternalCheckFailure(f"constant ratio {ratio} is not a positive integer")

    result = RationalizeResult(
        axioms=new_axioms,
        proof=tuple(z_proof),
        lifted=tuple(lifted),
        state=RationalizeState(
            denominator_products=products,
            scale_factors=factors,
            deltas=deltas,
            line_count=len(proof),
            final_factor=int(ratio),
            final_constant=z_final,
        ),
    )
    # The Z checker cannot see the substitution identity, so check it here.
    verify_lift(axioms, proof, result)
    return result


def _over(scalar: Scalar, g: int) -> tuple[int, int]:
    """scalar / g as its numerator and denominator in lowest terms."""
    common = math.gcd(scalar.numerator, g)
    return scalar.numerator // common, scalar.denominator * (g // common)


def _halvings(value: int) -> Iterator[int]:
    """The factors h that halve value down to squarefree: each is
    prod p^ceil(e/2) over the prime powers p^e of the one before it.

    value is factored by trial division up to _TRIAL_DIVISION_BOUND.  A
    cofactor left above the bound is kept whole, as one factor to the first
    power; it still divides its square, so value divides every h^2.
    """
    powers: list[tuple[int, int]] = []
    p = 2
    while p <= _TRIAL_DIVISION_BOUND and p * p <= value:
        e = 0
        while value % p == 0:
            value //= p
            e += 1
        if e:
            powers.append((p, e))
        p += 1 if p == 2 else 2
    if value > 1:
        powers.append((value, 1))
    while any(e > 1 for _, e in powers):
        powers = [(p, (e + 1) // 2) for p, e in powers]
        yield math.prod(p**e for p, e in powers)


def _lift(
    new_axioms: AxiomSet,
    proof: Sequence[ProofLine],
    substitution: Mapping[VarId, Polynomial],
    scale: Mapping[VarId, int],
) -> tuple[list[ProofLine], list[tuple[int, int]]]:
    """The integer proof, one pass over the input lines, and lifted[k]."""
    builder = ProofBuilder(new_axioms, SystemKind.EXTPCSQRT_Z)
    # lifted[k] = (line, g): integer line `line` is g times input line k
    # under the substitution.
    lifted: list[tuple[int, int]] = []
    base_count = len(new_axioms.base)
    for input_line in proof:
        rule = input_line.rule
        if isinstance(rule, Axiom):
            emitted, g = builder.axiom_line(rule.index), 1
            if rule.index >= base_count:
                g = scale[new_axioms.extensions[rule.index - base_count].var]
        elif isinstance(rule, MulVar):
            premise, g = lifted[rule.k]
            emitted = builder.mul_var(premise, rule.var)
            g *= scale.get(rule.var, 1)
        elif isinstance(rule, LinComb):
            (left, g_left), (right, g_right) = lifted[rule.j], lifted[rule.k]
            alpha, alpha_den = _over(rule.alpha, g_left)
            beta, beta_den = _over(rule.beta, g_right)
            g = math.lcm(alpha_den, beta_den)
            emitted = builder.lincomb(
                left, right, alpha * (g // alpha_den), beta * (g // beta_den)
            )
        else:
            root = input_line.poly.substitute(substitution)
            source, g_source = lifted[rule.k]
            g = math.lcm(root.denominator_lcm(), g_source)
            squared = builder.scale_line(source, g**2 // g_source)
            emitted = builder.sqrt_of(squared, root.scale(g))
        lifted.append((emitted, g))

    last, g = lifted[-1]
    constant = as_scalar(proof[-1].poly.constant_value())
    if isinstance(constant, int):
        # The last line is g * constant: scaled to (h * constant)^2 it has
        # the square root h * constant, for each h of _halvings(g).
        for root_factor in _halvings(g):
            squared = builder.scale_line(last, root_factor**2 * constant // g)
            last = builder.sqrt_of(squared, Polynomial.constant(root_factor * constant))
            g = root_factor
    if last != len(builder.lines) - 1:
        builder.append(builder.poly_at(last), LinComb(last, last, 1, 0))
    return builder.lines, lifted


def verify_lift(
    axioms: AxiomSet, proof: Sequence[ProofLine], result: RationalizeResult
) -> None:
    """Check what the integer checker cannot see: each line's substitution.

    For every input line k with lifted[k] = (z, c), integer line z must be
    c times line k with y_i -> y_i / T_i, and every input linear
    combination of lines j and k with scalars alpha and beta must be an
    integer combination of lifted[j] and lifted[k] whose scalars a and b
    satisfy a * c_j == c * alpha and b * c_k == c * beta.  Raises
    InternalCheckFailure on the first violation.
    """
    variables = (ext.var for ext in axioms.extensions)
    substitution = _descaling(dict(zip(variables, result.state.scale_factors)))
    lifted = result.lifted

    for k, line in enumerate(proof):
        z, c = lifted[k]
        image = result.proof[z]
        if image.poly != line.poly.substitute(substitution).scale(c):
            raise InternalCheckFailure(f"line {k} breaks the substitution identity")
        rule = line.rule
        if not isinstance(rule, LinComb):
            continue
        (left, c_left), (right, c_right) = lifted[rule.j], lifted[rule.k]
        step = image.rule
        if not (
            isinstance(step, LinComb)
            and (step.j, step.k) == (left, right)
            and step.alpha * c_left == c * rule.alpha
            and step.beta * c_right == c * rule.beta
        ):
            raise InternalCheckFailure(f"line {k} does not reuse the original scalars")


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
