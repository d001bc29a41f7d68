"""Tests for the two proof translators."""

import collections
import dataclasses
import functools
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycal import proofcore, reslin, xlate
from polycal.bvp import audit_divisibility, brute_force_refutation, is_prime, primes_below
from polycal.cli import canonical_json
from polycal.polyring import FormatError, Polynomial, ceil_log2, poly_parse, xvar, yvar
from polycal.proofcore import (
    SQRT_BIT_LIMIT,
    Axiom,
    AxiomSet,
    ExtensionAxiom,
    LinComb,
    MulVar,
    ProofLine,
    Sqrt,
    SystemKind,
    check_refutation,
    proof_chunks,
    refutation_verdict,
)
from polycal.reslin import (
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
    product_monomial,
)
from polycal.xlate import (
    InternalCheckFailure,
    InvalidInputProof,
    NonIntegerBaseAxiom,
    compute_scale_factors,
    rationalize,
    simulate_reslin_b,
    state_to_obj,
    verify_lift,
)
from q_corpus import (
    Y2,
    Y3,
    free_variable,
    gapped_extensions,
    negative_root,
    nested_extensions,
    rational_corpus,
    renumber,
    unused_extensions,
    working_extension,
    y_variables,
)
from reslin_corpus import (
    bvp_splitting,
    clause_pair,
    refutation_corpus,
    rests_of_one_degree,
    run as run_rules,
    thirds,
    zero_one,
)

X1 = xvar(1)


def primorial(m):
    """The product of the primes up to m: the least Z constant of BVP_n at m = 2^n."""
    return math.prod(primes_below(m + 1))


# -- linear resolution simulation ------------------------------------------------


def test_simulation_corpus_checks_out():
    for name, axioms, lines in refutation_corpus():
        out = simulate_reslin_b(axioms, lines)
        report = check_refutation(out.axioms, list(out.proof), SystemKind.EXTPCSQRT_Q)
        assert report.valid, (name, report.error)
        assert report.final_constant == 1, name


def test_simulation_line_map_points_at_hats():
    for name, axioms, lines in refutation_corpus():
        out = simulate_reslin_b(axioms, lines)
        registry = build_registry(axioms, lines)
        assert len(out.line_map) == len(lines)
        for rl_line, target in zip(lines, out.line_map):
            if target is None:
                continue
            expected = Polynomial(
                ((product_monomial(rl_line.disjunction, registry), 1),)
            )
            assert out.proof[target].poly == expected, name


def test_simulation_sqrt_only_from_contraction():
    for name, axioms, lines in refutation_corpus():
        out = simulate_reslin_b(axioms, lines)
        sqrt_lines = {
            i for i, line in enumerate(out.proof) if isinstance(line.rule, Sqrt)
        }
        contraction_targets = {
            out.line_map[i]
            for i, line in enumerate(lines)
            if isinstance(line.rule, RlContraction)
        }
        assert sqrt_lines == contraction_targets, name


def test_simulation_zero_one_frozen():
    axioms, lines = zero_one()
    out = simulate_reslin_b(axioms, lines)
    assert out.axioms.base == (
        poly_parse("y1"),
        poly_parse("y2"),
        poly_parse("x1^2 - x1"),
    )
    defs = out.axioms.extensions
    assert [(d.var.name, d.definition) for d in defs] == [
        ("y1", poly_parse("x1")),
        ("y2", poly_parse("x1 - 1")),
        ("y3", Polynomial.constant(1)),
    ]
    assert out.proof[out.line_map[-1]].poly == Polynomial.constant(1)
    assert len(out.proof) == 10


# Q lines of the splitting refutation of BVP_n, as upper bounds: each run of
# contractions takes one square root, a resolution lifts only its fresh part
# and shares its short premise's cofactor, a resolution into a false
# constant derives its rests' product, which the simplification that drops
# the constant reuses, a boolean axiom takes 7 lines, and a hat is derived
# only when a rule cites it.
SPLITTING_Q_LINES = {3: 179, 4: 405, 5: 895, 6: 1961}


def _emitting_lines(out):
    """Index of the input line whose simulation emitted each output line;
    a line emitted for a hat that line_map leaves None goes to the next
    mapped line."""
    owner, start = [], 0
    for i, target in enumerate(out.line_map):
        if target is None:
            continue
        end = max(start, target + 1)
        owner.extend([i] * (end - start))
        start = end
    return owner


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_splitting_takes_one_square_root_per_run_of_contractions(n):
    axioms, lines = bvp_splitting(n)
    out = simulate_reslin_b(axioms, lines)
    proof = out.proof
    owner = _emitting_lines(out)
    assert len(owner) == len(proof)
    sqrt_lines = [i for i, line in enumerate(proof) if isinstance(line.rule, Sqrt)]
    assert len(sqrt_lines) == 2**n - 2
    assert all(isinstance(lines[owner[i]].rule, RlContraction) for i in sqrt_lines)
    for i, rl_line in enumerate(lines):
        k = out.line_map[i]
        if isinstance(rl_line.rule, RlContraction) and k is not None:
            while isinstance(proof[k].rule, MulVar):
                k = proof[k].rule.k
            assert isinstance(proof[k].rule, Sqrt), (n, i)
    if n in SPLITTING_Q_LINES:
        assert len(proof) <= SPLITTING_Q_LINES[n]

    result = rationalize(out.axioms, list(proof))
    report = check_refutation(result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z)
    assert report.valid
    assert report.final_constant == primorial(2**n)
    assert audit_divisibility(report.final_constant, n).all_divide


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_splitting_runs_and_resolutions_share_their_lines(n):
    axioms, lines = bvp_splitting(n)
    out = simulate_reslin_b(axioms, lines)
    proof = out.proof
    sqrts = sum(isinstance(line.rule, Sqrt) for line in proof)
    by_contractions = sum(
        isinstance(lines[i].rule, RlContraction) for i in _emitting_lines(out)
    )
    # A run of contractions emits its premise times the odd part and the
    # square root of that; its conclusions are derived only when cited.
    assert by_contractions == 2 * sqrts
    lincombs = [
        (line.rule.j, line.rule.k, line.rule.alpha, line.rule.beta)
        for line in proof
        if isinstance(line.rule, LinComb)
    ]
    assert len(set(lincombs)) == len(lincombs)


def test_resolution_with_equal_rests_adds_the_hats_first():
    axioms, lines = rests_of_one_degree()
    out = simulate_reslin_b(axioms, lines)
    hats = LinComb(out.line_map[0], out.line_map[7], 1, -1)
    assert [line.rule for line in out.proof].count(hats) == 1
    report = check_refutation(out.axioms, list(out.proof), SystemKind.EXTPCSQRT_Q)
    assert report.valid and report.final_constant == 1


def test_a_short_boolean_premise_derives_each_cofactor_once():
    # A node of depth 2 or more rests on a longer prefix than a boolean
    # axiom's other disjunct u, so the boolean is the short premise: its
    # cofactor hat - u*def(v) is one line for all 2^depth resolutions of v.
    axioms, lines = bvp_splitting(5)
    out = simulate_reslin_b(axioms, lines)
    registry = build_registry(axioms, lines)
    index = {line.rule: i for i, line in enumerate(out.proof)}
    base = len(out.axioms.base)
    definitions = {
        ext.var: index.get(Axiom(base + p)) for p, ext in enumerate(out.axioms.extensions)
    }
    rules = collections.Counter(line.rule for line in out.proof)
    citing = collections.Counter(
        (line.rule.k, line.rule.dk)
        for line in lines
        if isinstance(line.rule, RlResolution)
        and isinstance(lines[line.rule.k].rule, RlBooleanAxiom)
        and len(lines[line.rule.j].disjunction.disjuncts) > 2
    )
    assert sorted(citing.values()) == [4, 4, 8, 8, 16, 16]
    for boolean, d in citing:
        disjuncts = lines[boolean].disjunction.disjuncts
        v, u = registry.lookup(disjuncts[d]), registry.lookup(disjuncts[1 - d])
        multiple = index.get(MulVar(definitions[v], u))
        assert rules[LinComb(out.line_map[boolean], multiple, 1, -1)] == 1
    # Each boolean axiom is y_b*def_a + v*def_b + (v^2 - v): the square,
    # two definitions, two multiples and two combinations.
    owner = collections.Counter(_emitting_lines(out))
    booleans = [i for i, line in enumerate(lines) if isinstance(line.rule, RlBooleanAxiom)]
    assert [owner[i] for i in booleans] == [7] * 5


# Q lines, square roots and Z constant of each proof before a resolution into
# a false constant derived its rests' product first: no proof may grow, and
# each keeps its roots and its constant.
Q_LINES_BEFORE = {
    "zero_one": (11, 0, 1),
    "all_rules": (78, 2, 6),
    "half_half": (32, 0, 1),
    "sum_to_one": (18, 0, 1),
    "thirds": (25, 0, 2),
    "clause_pair": (22, 0, 1),
    "bvp_splitting(4, order)": (576, 14, primorial(16)),
    "bvp_splitting(5, order)": (1304, 30, primorial(32)),
    "bvp_splitting(6, order)": (2912, 62, primorial(64)),
    "bvp_splitting(3, alpha=3)": (248, 6, 210),
    "bvp_splitting(4, alpha=5)": (576, 14, 30_030),
    "bvp_splitting(3, alpha=11)": (248, 6, 11 * 210),
    "bvp_splitting(4, alpha=17)": (576, 14, 17 * 30_030),
}


def _q_line_cases():
    for name, axioms, lines in refutation_corpus():
        yield name, axioms, lines
    for n in (4, 5, 6):
        rng = random.Random(n)
        for _ in range(3):
            order = rng.sample(range(1, n + 1), n)
            yield f"bvp_splitting({n}, order)", *bvp_splitting(n, order)
    for n, alpha in ((3, 3), (4, 5), (3, 11), (4, 17)):
        yield f"bvp_splitting({n}, alpha={alpha})", *bvp_splitting(n, alpha=alpha)


def test_no_proof_grows_and_each_keeps_its_roots_and_constant():
    seen = set()
    for name, axioms, lines in _q_line_cases():
        out = simulate_reslin_b(axioms, lines)
        before, roots, constant = Q_LINES_BEFORE[name]
        assert len(out.proof) <= before, name
        assert sum(isinstance(line.rule, Sqrt) for line in out.proof) == roots, name
        result = rationalize(out.axioms, list(out.proof))
        assert result.state.final_constant == constant, name
        seen.add(name)
    assert seen == set(Q_LINES_BEFORE)


def _false_constant_detours():
    """clause_pair's false constant 0 = -1, first weakened by 0 = 2 and
    simplified, then resolved back into x1 = 0 and derived again."""
    axioms, _ = clause_pair()
    rules = [
        RlAxiom(0),                         # 0: (x1=0) v (x2=0)
        RlAxiom(1),                         # 1: (x1=1)
        RlAxiom(2),                         # 2: (x2=1)
        RlResolution(0, 1, 0, 0, 1, -1),    # 3: (x2=0) v (0=-1)
        RlWeakening(3, LinEq.of({}, 2)),    # 4: (x2=0) v (0=-1) v (0=2)
        RlSimplification(4, 1),             # 5: (x2=0) v (0=2)
        RlSimplification(5, 1),             # 6: (x2=0)
        RlResolution(3, 1, 1, 0, 1, 1),     # 7: (x2=0) v (x1=0)
        RlResolution(7, 1, 1, 0, 1, -1),    # 8: (x2=0) v (0=-1)
        RlSimplification(8, 1),             # 9: (x2=0)
        RlResolution(9, 2, 0, 0, 1, -1),    # 10: (0=-1)
        RlSimplification(10, 0),            # 11: empty
    ]
    return axioms, run_rules(axioms, rules)


def _checks_and_ends_in_one(out):
    report = check_refutation(out.axioms, list(out.proof), SystemKind.EXTPCSQRT_Q)
    assert report.valid and report.final_constant == 1, report.error
    assert out.line_map[-1] == len(out.proof) - 1


def test_a_false_constant_weakened_or_resolved_before_its_simplification():
    axioms, lines = _false_constant_detours()
    assert check_reslin(axioms, lines).valid
    out = simulate_reslin_b(axioms, lines)
    _checks_and_ends_in_one(out)
    # Line 3's rests' product is (x2=0)'s hat; lines 6 and 9 reuse it, and
    # line 8, the same resolution again, reuses line 3's hat.
    product = out.proof[out.line_map[3]].rule.k
    assert out.line_map[6] == out.line_map[9] == product
    assert out.line_map[8] == out.line_map[3]


def test_a_repeated_derivation_appends_nothing():
    # zero_one's four lines again, step for step: the builder already holds
    # every step, so the refutation ends at line 3's line with no copy.
    axioms, lines = zero_one()
    rules = [line.rule for line in lines] * 2
    out = simulate_reslin_b(axioms, run_rules(axioms, rules))
    _checks_and_ends_in_one(out)
    assert out.line_map[4:] == out.line_map[:4]
    assert len(out.proof) == len(simulate_reslin_b(*zero_one()).proof)


def test_a_last_simplification_that_reuses_a_line_ends_in_a_copy_of_it():
    # The repeat resolves the axioms the other way round, into 0 = 1: a new
    # swap line, but the same empty rest, which held already holds.
    axioms, lines = zero_one()
    rules = [line.rule for line in lines] + [
        RlAxiom(1),
        RlAxiom(0),
        RlResolution(4, 5, 0, 0, 1, -1),
        RlSimplification(6, 0),             # empty again, as line 3 is
    ]
    out = simulate_reslin_b(axioms, run_rules(axioms, rules))
    _checks_and_ends_in_one(out)
    first = out.line_map[3]
    assert out.proof[-1].rule == LinComb(first, first, 1, 0)
    assert len(out.proof) == 16


def test_a_simplified_false_constant_maps_before_its_resolution():
    # clause_pair's line 3 resolves into (x2=0) v (0=-1), and only line 4,
    # which drops the constant, cites it: line 4 maps to the rests' product,
    # and line 3's hat, that product times y of 0 = -1, is never derived.
    axioms, lines = clause_pair()
    out = simulate_reslin_b(axioms, lines)
    registry = build_registry(axioms, lines)
    assert out.line_map[3] is None
    (false,) = (eq for eq in lines[3].disjunction.disjuncts if eq.is_constant())
    rests = product_monomial(lines[3].disjunction, registry).without(
        registry.lookup(false)
    )
    assert out.proof[out.line_map[4]].poly == Polynomial(((rests, 1),))
    _checks_and_ends_in_one(out)


def _derivation(proof, top):
    """The lines that line top's derivation uses, top among them."""
    used = {top}
    for i in reversed(range(top + 1)):
        if i in used:
            rule = proof[i].rule
            used.update(getattr(rule, name) for name in ("j", "k") if hasattr(rule, name))
    return used


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_splitting_emits_no_dead_line(n):
    out = simulate_reslin_b(*bvp_splitting(n))
    result = rationalize(out.axioms, list(out.proof))
    for proof in (out.proof, result.proof):
        assert _derivation(proof, len(proof) - 1) == set(range(len(proof))), n


def test_the_corpus_leaves_only_a_contraction_root_uncited():
    # all_rules simplifies its contraction's conclusion to a product that a
    # line holds already, so nothing cites the contraction; its square root
    # is still taken, as every contraction takes its root.
    for name, axioms, lines in refutation_corpus():
        proof = simulate_reslin_b(axioms, lines).proof
        live = _derivation(proof, len(proof) - 1)
        uncited = set(range(len(proof))) - live
        roots = [i for i in uncited if isinstance(proof[i].rule, Sqrt)]
        if name == "all_rules":
            assert len(roots) == 1
            assert uncited == _derivation(proof, roots[0]) - live
        else:
            assert not uncited, name


def test_simulation_size_bound():
    from polycal.reslin import size_binary

    for name, axioms, lines in refutation_corpus():
        out = simulate_reslin_b(axioms, lines)
        report = check_refutation(out.axioms, list(out.proof), SystemKind.EXTPCSQRT_Q)
        budget = 50 * (size_binary(lines) + len(lines) + len(out.axioms.extensions)) ** 3
        assert report.total_size <= budget, name


def test_simulation_is_deterministic():
    axioms, lines = thirds()
    assert simulate_reslin_b(axioms, lines) == simulate_reslin_b(axioms, lines)


def test_simulation_rejects_invalid_input():
    axioms, lines = zero_one()
    broken = [RlLine(axioms[1], RlAxiom(0))] + lines[1:]
    with pytest.raises(InvalidInputProof):
        simulate_reslin_b(axioms, broken)


def test_simulation_rejects_non_refutation():
    axioms, lines = zero_one()
    with pytest.raises(InvalidInputProof):
        simulate_reslin_b(axioms, lines[:1])


# -- rationalization -------------------------------------------------------------


def test_rational_corpus_lifts_to_integers():
    for name, axioms, proof in rational_corpus():
        original = check_refutation(axioms, proof, SystemKind.EXTPCSQRT_Q)
        assert original.valid, (name, original.error)
        result = rationalize(axioms, proof)
        final = check_refutation(result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z)
        assert final.valid, (name, final.error)
        ratio = Fraction(final.final_constant) / Fraction(original.final_constant)
        assert ratio > 0 and ratio.denominator == 1, (name, ratio)
        verify_lift(axioms, proof, result)


def test_lift_closes_with_a_copy_when_the_last_line_reuses_an_earlier_one():
    # The last input line is an axiom the lift already holds at line 0, so
    # the integer proof ends in a copy of that line.
    axioms = AxiomSet((Polynomial.constant(1),))
    proof = [
        ProofLine(poly_parse("1"), Axiom(0)),
        ProofLine(poly_parse("x1"), MulVar(0, X1)),
        ProofLine(poly_parse("1"), Axiom(0)),
    ]
    assert check_refutation(axioms, proof, SystemKind.EXTPCSQRT_Q).valid
    result = rationalize(axioms, proof)
    final = check_refutation(result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z)
    assert final.valid and final.final_constant == 1
    assert [line.rule for line in result.proof] == [
        Axiom(0), MulVar(0, X1), LinComb(0, 0, 1, 0)
    ]
    assert result.proof[-1].poly == poly_parse("1")
    assert result.lifted == ((0, 1), (1, 1), (0, 1))


def test_lift_closes_with_a_new_copy_when_an_earlier_line_copies_the_last():
    # Line 1 already copies line 0, but the proof goes on past it: the
    # closing copy is appended again, or the proof would end in x1.
    axioms = AxiomSet((Polynomial.constant(1),))
    proof = [
        ProofLine(poly_parse("1"), Axiom(0)),
        ProofLine(poly_parse("1"), LinComb(0, 0, 1, 0)),
        ProofLine(poly_parse("x1"), MulVar(0, X1)),
        ProofLine(poly_parse("1"), Axiom(0)),
    ]
    result = rationalize(axioms, proof)
    assert [line.rule for line in result.proof] == [
        Axiom(0), LinComb(0, 0, 1, 0), MulVar(0, X1), LinComb(0, 0, 1, 0)
    ]
    assert result.state.final_constant == 1


def test_lift_line_budget():
    splitting = simulate_reslin_b(*bvp_splitting(3))
    inputs = list(rational_corpus())
    inputs.append(("bvp_splitting(3)", splitting.axioms, list(splitting.proof)))
    for name, axioms, proof in inputs:
        result = rationalize(axioms, proof)
        t = len(proof)
        assert len(result.proof) <= 2 * t * t + t, name
        # Each input line adds its own line, a square root one rescale
        # more, and the final line adds at most one more.
        assert len(result.proof) <= 3 * t + 1, (name, len(result.proof))


# (F_final, final constant) of each corpus proof.
CORPUS_CONSTANTS = {
    "negative_root": (2, 1),
    "negative_scalar": (2, 1),
    "unused_extension": (2, 1),
    "nested_extensions": (2, 1),
    "third_delta": (2, -2),
    "working_extension": (1, -1),
    "affine_definition": (2, 1),
    "two_thirds_definition": (2, -2),
}


def test_lift_adds_one_line_per_square_root():
    # Each input line becomes one integer line, g times its substituted
    # polynomial with g fixed at emission, so the lift adds at most one
    # rescaling per square root, a square root and at most one rescaling
    # per halving of the last line's g, and at most one copy for the last
    # line.  A scale by 1 is the line itself, so no other line is a copy.
    # No corpus proof ends in an integer constant whose g is not
    # squarefree, so none halves; the splitting chain's g is lcm(1..2^n),
    # whose largest exponent, n of the prime 2, takes ceil(log2 n) halvings
    # down to the primorial.
    cases = []
    for name, axioms, proof in rational_corpus():
        cases.append((name, proof, rationalize(axioms, proof), CORPUS_CONSTANTS[name], 0))
    for n in range(2, 7):
        out = simulate_reslin_b(*bvp_splitting(n))
        result = rationalize(out.axioms, list(out.proof))
        factor = result.state.final_factor
        assert factor == primorial(2**n)
        assert audit_divisibility(factor, n).all_divide
        cases.append((n, out.proof, result, (factor, factor), ceil_log2(n)))
    for label, proof, result, constants, halvings in cases:
        roots = sum(isinstance(line.rule, Sqrt) for line in proof)
        z_roots = sum(isinstance(line.rule, Sqrt) for line in result.proof)
        assert z_roots - roots == halvings, label
        images = {z for z, _ in result.lifted}
        rescales = [
            i for i, line in enumerate(result.proof[:-1])
            if isinstance(line.rule, LinComb) and i not in images
        ]
        assert all(result.proof[i + 1].rule == Sqrt(i) for i in rescales), label
        assert len(rescales) <= roots + halvings, label
        added = len(result.proof) - len(proof) - len(rescales) - halvings
        assert added in (0, 1), label
        assert not any(
            line.rule == LinComb(line.rule.j, line.rule.j, 1, 0)
            for line in result.proof[:-1] if isinstance(line.rule, LinComb)
        ), label
        state = result.state
        assert (state.final_factor, state.final_constant) == constants, label


def _splitting_z(n, order=None, alpha=1):
    out = simulate_reslin_b(*bvp_splitting(n, order, alpha))
    result = rationalize(out.axioms, list(out.proof))
    report = check_refutation(result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z)
    assert report.valid, report.error
    assert report.final_constant == result.state.final_factor
    return out.proof, result


@pytest.mark.parametrize("n", [4, 5, 6])
def test_seeded_split_orders_end_in_the_primorial(n):
    rng = random.Random(n)
    for _ in range(3):
        order = rng.sample(range(1, n + 1), n)
        proof, result = _splitting_z(n, order)
        roots = sum(isinstance(line.rule, Sqrt) for line in proof)
        halvings = sum(isinstance(line.rule, Sqrt) for line in result.proof) - roots
        assert result.state.final_constant == primorial(2**n), order
        assert halvings == ceil_log2(n), order
        assert len(result.proof) == len(proof) + roots + 2 * halvings, order


# A resolution scale is a prime factor the chain cannot clear: one at or
# below 2^n is already in the primorial, one above it stays in the constant.
@pytest.mark.parametrize(
    "n, alpha, constant",
    [(3, 3, 210), (4, 5, 30_030), (3, 11, 11 * 210), (4, 17, 17 * 30_030)],
)
def test_a_resolution_scale_above_2_to_the_n_stays_in_the_constant(n, alpha, constant):
    _, result = _splitting_z(n, alpha=alpha)
    assert result.state.final_constant == constant
    assert audit_divisibility(constant, n).all_divide


def _fourth_root_of_one_over(prime):
    """4 -> 1/p^4 -> its roots 1/p^2 and 1/p -> 1: the last line's g is 4 p^3."""
    axioms = AxiomSet(base=(Polynomial.constant(4),))
    polys = [4, Fraction(1, prime**4), Fraction(1, prime**2), Fraction(1, prime), 1]
    rules = [Axiom(0), LinComb(0, 0, Fraction(1, 4 * prime**4), 0), Sqrt(1), Sqrt(2),
             LinComb(3, 3, prime, 0)]
    return axioms, [ProofLine(Polynomial.constant(c), r) for c, r in zip(polys, rules)]


def test_halving_keeps_a_cofactor_above_the_trial_division_bound_whole():
    # Below the bound 4 p^3 halves to 2 p^2 and then 2 p.  Above it p^3 is
    # one unfactored cofactor, so only 4 halves, and the proof still checks.
    big = next(p for p in range(xlate._TRIAL_DIVISION_BOUND + 1, 1 << 20) if is_prime(p))
    for prime, constant, halvings in ((3, 2 * 3, 2), (big, 2 * big**3, 1)):
        result = rationalize(*_fourth_root_of_one_over(prime))
        report = check_refutation(result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z)
        assert report.valid and report.final_constant == constant, prime
        z_roots = sum(isinstance(line.rule, Sqrt) for line in result.proof)
        assert z_roots == 2 + halvings, prime


def test_nested_extension_factors_frozen():
    axioms, proof = nested_extensions()
    products, factors = compute_scale_factors(axioms)
    assert products == (2, 5)
    assert factors == (2, 20)
    result = rationalize(axioms, proof)
    assert result.state.denominator_products == (2, 5)
    assert result.state.scale_factors == (2, 20)
    assert result.axioms.extensions[0].definition == poly_parse("x1")
    assert result.axioms.extensions[1].definition == poly_parse("y1^2")


def test_negative_root_frozen_factors():
    axioms, proof = negative_root()
    result = rationalize(axioms, proof)
    assert result.state.deltas == (1, 2)
    assert result.state.final_factor == 2
    assert result.state.final_constant == 1


def test_integer_input_passes_through():
    builder_axioms = AxiomSet(base=(poly_parse("2*x1 - 1"), poly_parse("x1^2 - x1")))
    from polycal.proofcore import ProofBuilder

    builder = ProofBuilder(builder_axioms, SystemKind.EXTPCSQRT_Q)
    l0 = builder.axiom_line(0)
    l1 = builder.mul_var(l0, X1)
    l2 = builder.axiom_line(1)
    l3 = builder.lincomb(l1, l2, 1, -2)
    builder.lincomb(l3, l0, 4, -2)
    result = rationalize(builder_axioms, builder.lines)
    assert result.state.final_factor == 1
    assert result.state.final_constant == 2
    assert result.state.deltas == (1,)
    assert len(result.proof) == len(builder.lines)


def test_simulation_output_feeds_rationalization():
    axioms, lines = thirds()
    out = simulate_reslin_b(axioms, lines)
    result = rationalize(out.axioms, list(out.proof))
    report = check_refutation(result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z)
    assert report.valid
    assert report.final_constant == result.state.final_factor >= 2
    # The splitting refutation of BVP_3 ends in 1, so F alone is the Z constant.
    out = simulate_reslin_b(*bvp_splitting(3))
    state = rationalize(out.axioms, list(out.proof)).state
    assert state.final_factor == state.final_constant == primorial(8) == 210


def test_rationalize_state_holds_no_per_line_integers():
    # The line clearers L_k = (prod deltas)^(k+1) hold quadratically many
    # digits, so the state keeps deltas and the line count instead.
    out = simulate_reslin_b(*bvp_splitting(6))
    start = time.perf_counter()
    state = rationalize(out.axioms, list(out.proof)).state
    assert time.perf_counter() - start < 10
    assert state.line_count == len(out.proof)
    for field in dataclasses.fields(state):
        value = getattr(state, field.name)
        assert isinstance(value, int) or len(value) < state.line_count, field.name
    assert state.final_factor == state.final_constant == primorial(64)

    small = rationalize(*nested_extensions()).state
    spread = math.prod(small.deltas)
    assert spread > 1
    assert state_to_obj(small)["line_count"] == str(small.line_count)


def test_non_integer_base_rejected():
    axioms = AxiomSet(base=(poly_parse("1/2*x1 - 1"),))
    with pytest.raises(NonIntegerBaseAxiom):
        rationalize(axioms, [ProofLine(poly_parse("1/2*x1 - 1"), None)])


def test_invalid_input_rejected():
    axioms, proof = negative_root()
    broken = proof[:-1] + [ProofLine(Polynomial.constant(7), LinComb(0, 0, 1, 1))]
    with pytest.raises(InvalidInputProof):
        rationalize(axioms, broken)


def test_verify_lift_catches_tampering():
    axioms, proof = negative_root()
    result = rationalize(axioms, proof)
    z_proof = list(result.proof)
    index = result.lifted[-1][0]
    z_proof[index] = dataclasses.replace(z_proof[index], poly=Polynomial.constant(9))
    tampered = dataclasses.replace(result, proof=tuple(z_proof))
    with pytest.raises(InternalCheckFailure, match="substitution identity"):
        verify_lift(axioms, proof, tampered)


def test_verify_lift_catches_foreign_scalars():
    axioms, proof = working_extension()
    result = rationalize(axioms, proof)
    z_proof = list(result.proof)
    # The integer line keeps its polynomial; only its cited scalar changes.
    k = next(k for k, line in enumerate(proof) if isinstance(line.rule, LinComb))
    z = result.lifted[k][0]
    step = z_proof[z].rule
    z_proof[z] = dataclasses.replace(
        z_proof[z], rule=dataclasses.replace(step, alpha=step.alpha + 1)
    )
    tampered = dataclasses.replace(result, proof=tuple(z_proof))
    with pytest.raises(InternalCheckFailure, match="original scalars"):
        verify_lift(axioms, proof, tampered)


def test_verify_lift_ties_a_line_to_the_scale_of_its_premise():
    axioms, proof = working_extension()
    result = rationalize(axioms, proof)
    lifted = list(result.lifted)
    # Line 0 is the definition of y1, whose scale is T_1 = 2: its factor
    # must carry that 2.
    assert isinstance(proof[0].rule, Axiom) and lifted[0][1] == 2
    lifted[0] = (lifted[0][0], 1)
    tampered = dataclasses.replace(result, lifted=tuple(lifted))
    with pytest.raises(InternalCheckFailure):
        verify_lift(axioms, proof, tampered)


def test_rationalize_runs_verify_lift(monkeypatch):
    def refuse(axioms, proof, result):
        raise InternalCheckFailure("lift refused")

    monkeypatch.setattr("polycal.xlate.verify_lift", refuse)
    with pytest.raises(InternalCheckFailure, match="lift refused"):
        rationalize(*nested_extensions())


def test_rationalize_checks_only_its_input_and_output(monkeypatch):
    calls = []

    def counting(axioms, proof, kind):
        calls.append(kind)
        return refutation_verdict(axioms, proof, kind)

    monkeypatch.setattr("polycal.xlate.refutation_verdict", counting)
    for axioms, proof in (working_extension(), nested_extensions()):
        calls.clear()
        rationalize(axioms, proof)
        assert calls == [SystemKind.EXTPCSQRT_Q, SystemKind.EXTPCSQRT_Z]


def test_translators_measure_nothing(monkeypatch):
    # Sizes and degrees feed the CLI's reports only: each translator takes
    # the verdict of its checks and never measures a proof.
    def refuse(proof):
        raise AssertionError("a translator measured a proof")

    monkeypatch.setattr(proofcore, "measure", refuse)
    monkeypatch.setattr(reslin, "size_binary", refuse)
    out = simulate_reslin_b(*bvp_splitting(3))
    result = rationalize(out.axioms, list(out.proof))
    assert result.state.final_constant == 2 * 3 * 5 * 7


@pytest.mark.parametrize("past", [False, True])
def test_rationalize_writes_no_root_the_decoder_refuses(past):
    # The root c of the constant axiom c^2 lifts to itself, at the decoder's
    # limit on coefficient bits or one bit past it; it cites Z line 0 itself.
    c = 2**SQRT_BIT_LIMIT + past  # ceil_log2 of 2^b is b, of 2^b + 1 is b + 1
    axioms = AxiomSet((Polynomial.constant(c * c),))
    proof = [
        ProofLine(Polynomial.constant(c * c), Axiom(0)),
        ProofLine(Polynomial.constant(c), Sqrt(0)),
    ]
    if not past:
        assert rationalize(axioms, proof).state.final_constant == c
        return
    with pytest.raises(FormatError, match=f"square root at line 1 of 1 terms and "
                       f"{SQRT_BIT_LIMIT + 1} coefficient bits exceeds the limit"):
        rationalize(axioms, proof)


def test_lift_emits_each_input_line_once():
    # Every T_j is 1 on the splitting chain, so each input line is lifted
    # at scale 1 to an integer line of its own.
    for n in (3, 4, 5):
        out = simulate_reslin_b(*bvp_splitting(n))
        result = rationalize(out.axioms, list(out.proof))
        assert set(result.state.scale_factors) == {1}, n
        z_lines = [z for z, _ in result.lifted]
        assert len(z_lines) == len(set(z_lines)) == len(out.proof), n
        if n == 4:
            assert result.state.final_constant == primorial(16) == 30_030


def test_working_extension_lifts_each_line_to_one_integer_line():
    # 12 input lines, one square root and no halving: 13 integer lines.
    # Reading the y1 definition (T_1 = 2) at scale 1 adds no line.
    result = rationalize(*working_extension())
    assert len(result.proof) == 13
    assert result.state == xlate.RationalizeState(
        denominator_products=(2,),
        scale_factors=(2,),
        deltas=(1, 2),
        line_count=12,
        final_factor=1,
        final_constant=-1,
    )


def _scaled_third():
    """y1 := x1/2, and a refutation through 2/3 of its definition."""
    axioms = AxiomSet(
        base=(Polynomial.constant(2),),
        extensions=(ExtensionAxiom(yvar(1), poly_parse("1/2*x1")),),
    )
    proof = [
        ProofLine(poly_parse("2"), Axiom(0)),
        ProofLine(poly_parse("y1 - 1/2*x1"), Axiom(1)),
        ProofLine(poly_parse("2/3*y1 - 1/3*x1"), LinComb(1, 1, Fraction(2, 3), 0)),
        ProofLine(poly_parse("1"), LinComb(0, 2, Fraction(1, 2), 0)),
    ]
    return axioms, proof


def test_a_combination_of_a_scaled_definition_lifts_at_its_least_factor():
    # T_1 = 2, so line 1, the definition, lifts at factor 2.  Line 2 is 2/3
    # of it: (2/3) / 2 = 1/3 makes the least factor 3, with scalar 1.
    result = rationalize(*_scaled_third())
    assert result.lifted[1:3] == ((1, 2), (2, 3))
    assert result.proof[2].rule == LinComb(1, 1, 1, 0)
    assert result.state.final_constant == 2


def test_each_combination_lifts_at_the_lcm_of_its_scalar_denominators():
    # A linear combination's factor is the least that makes both scalars
    # integral over its premises' own factors: no factor rides along.
    inputs = [*rational_corpus(), ("scaled_third", *_scaled_third())]
    for n in range(2, 7):
        out = simulate_reslin_b(*bvp_splitting(n))
        inputs.append((n, out.axioms, list(out.proof)))
    for label, axioms, proof in inputs:
        factors = [g for _, g in rationalize(axioms, proof).lifted]
        for k, line in enumerate(proof):
            rule = line.rule
            if isinstance(rule, LinComb):
                alpha = Fraction(rule.alpha) / factors[rule.j]
                beta = Fraction(rule.beta) / factors[rule.k]
                expected = math.lcm(alpha.denominator, beta.denominator)
                assert factors[k] == expected, (label, k)


# -- extension numbering ---------------------------------------------------------

# Documents whose y-variables are not y1..ym, each with its counterpart
# numbered y1..ym (a free y multiplies as an x does), and the default F.
NUMBERING_CASES = {
    "y1, y3 and a y3 multiplication": (gapped_extensions(Y3), gapped_extensions(Y2, Y2), 2),
    "y1, y3 and no y multiplication": (gapped_extensions(X1), gapped_extensions(X1, Y2), 2),
    "a free y5 multiplication": (free_variable(), free_variable(X1), 2),
}


@pytest.mark.parametrize("name", sorted(NUMBERING_CASES))
def test_extension_numbering_leaves_the_integer_proof(name):
    document, consecutive, factor = NUMBERING_CASES[name]
    result = rationalize(*document)
    report = check_refutation(result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z)
    assert report.valid, (name, report.error)
    expected = rationalize(*consecutive)
    assert result.state == expected.state, name
    assert len(result.proof) == len(expected.proof), name
    assert result.state.final_factor == factor, name


@functools.cache
def _renumbering_cases():
    inputs = list(rational_corpus())
    for n in (2, 3):
        out = simulate_reslin_b(*bvp_splitting(n))
        inputs.append((f"bvp_splitting({n})", out.axioms, list(out.proof)))
    return [
        (name, axioms, proof, rationalize(axioms, proof)) for name, axioms, proof in inputs
    ]


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_renumbered_y_variables_rationalize_to_the_renamed_proof(rng):
    for name, axioms, proof, expected in _renumbering_cases():
        old = sorted(y_variables(axioms, proof))
        new = sorted(rng.sample(range(1, 3 * len(old) + 2), len(old)))
        mapping = dict(zip(old, map(yvar, new)))
        result = rationalize(*renumber(axioms, proof, mapping))
        back = {renamed: y for y, renamed in mapping.items()}
        z_axioms, z_proof = renumber(result.axioms, result.proof, back)
        assert z_axioms == expected.axioms, name
        assert z_proof == list(expected.proof), name
        assert result.state == expected.state, name


def test_phase_zero_asks_only_about_the_variables_a_definition_mentions():
    # T_i needs the T_j of the y_j definition i mentions, not a degree
    # search for every earlier y_j: linear, not quadratic, in the count.
    axioms, proof = unused_extensions(2000)
    start = time.perf_counter()
    result = rationalize(axioms, proof)
    assert time.perf_counter() - start < 2
    assert result.state.scale_factors == (2,) * 2000
    assert result.state.final_factor == 2


def test_state_obj_shape():
    axioms, proof = nested_extensions()
    obj = state_to_obj(rationalize(axioms, proof).state)
    assert set(obj) == {"M", "T", "deltas", "line_count", "F_final", "final_constant"}
    assert obj["M"] == ["2", "5"] and obj["T"] == ["2", "20"]
    assert all(isinstance(v, str) for v in obj["deltas"] + [obj["line_count"]])
    assert isinstance(obj["F_final"], str) and isinstance(obj["final_constant"], str)


# -- byte pins -------------------------------------------------------------------


def _simulated(kind, name, alpha):
    """The simulation of a pinned clausal case."""
    if kind == "splitting":
        clausal = bvp_splitting(name, alpha=alpha)
    else:
        clausal = next(item[1:] for item in refutation_corpus() if item[0] == name)
    return simulate_reslin_b(*clausal)


def _pinned_refutation(kind, name, alpha):
    """The rational refutation of a pinned case; a clausal one is simulated."""
    if kind == "rational":
        return next(item[1:] for item in rational_corpus() if item[0] == name)
    out = _simulated(kind, name, alpha)
    return out.axioms, list(out.proof)


def _q_digest(out):
    digest = hashlib.sha256()
    for chunk in proof_chunks(SystemKind.EXTPCSQRT_Q, out.axioms, out.proof):
        digest.update(chunk.encode())
    digest.update(canonical_json(out.line_map).encode())
    return digest.hexdigest()


def _z_digest(result):
    digest = hashlib.sha256()
    for chunk in proof_chunks(SystemKind.EXTPCSQRT_Z, result.axioms, result.proof):
        digest.update(chunk.encode())
    digest.update(canonical_json(state_to_obj(result.state)).encode())
    digest.update(canonical_json(result.lifted).encode())
    return digest.hexdigest()


# sha256 of the Z document, the state and the lifted map that rationalize
# gives each (kind, name or n, resolution scale): the splitting refutation
# of BVP_n, and every clausal and rational corpus proof.
Z_DIGESTS = {
    ("splitting", 1, 1): (
        "5687df0ebc9d5d2291acc60ac019564cb59ed00df4cf327003ca4a2ae56c3d3b"
    ),
    ("splitting", 2, 1): (
        "7f876ddb0ee42a809caef0ebfe15d58214f712858b18edbdcef162ea2699bce2"
    ),
    ("splitting", 3, 1): (
        "f6f973755d3308903ca632d4ae17a6b201cbf06262182cbd608c8e4e385c2776"
    ),
    ("splitting", 4, 1): (
        "6ecbb7bd05ab9f543d5e80ff0f643411c380cea792ba496f5f41d8c7b456f063"
    ),
    ("splitting", 5, 1): (
        "91d223bba5cb0d4ef0aacfacf0a44aa754f8950151b43681787ae80e16d0cca5"
    ),
    ("splitting", 6, 1): (
        "aa4d500535729dbfc24979fda1dc7540dad6d7e73584f852ef831b375cdd27d2"
    ),
    ("splitting", 3, 3): (
        "6186da7b9207b8bac6587924c6e8d582cba534f0cc7c22f2b26a73f280d68a39"
    ),
    ("splitting", 4, 5): (
        "8d84864b71ba32dd16b9bc2620ba7a483f1c1dc66455a2faebf4743e9c091468"
    ),
    ("splitting", 3, 11): (
        "67e980d59772439188486512b77d2e5d297ff48c39d197e9992423f077a2a4b1"
    ),
    ("splitting", 4, 17): (
        "fc2c85bc7bf287ee50658ddb05623102c260ce58945f3cb54946bf51d7bdeca5"
    ),
    ("clausal", "zero_one", 1): (
        "e8a33658f39fb2055ffb7af57fdc02522493d382a559b06636d993d1b6b9063e"
    ),
    ("clausal", "all_rules", 1): (
        "4f6e50038141a0dc6726d3a3bbe1085d8945c3a997ec7bbcfc72c89bacfa7745"
    ),
    ("clausal", "half_half", 1): (
        "5cee6e573761f15e24212c95c00fd320ddea258cf92c0748a9cd5c211e711f1a"
    ),
    ("clausal", "sum_to_one", 1): (
        "047aa962fa692d2513414461b86f89303f1d2ae82a702265725b692f6352daa7"
    ),
    ("clausal", "thirds", 1): (
        "8ba9602688b119cdc64ca441a188ec25cbdae0ff418ebf15e36ae98663460a99"
    ),
    ("clausal", "clause_pair", 1): (
        "bdfea1eff49519a58e72660c3216c0d1ca2c46ca178093353241b77070d4c461"
    ),
    ("rational", "negative_root", 1): (
        "7a21a19f33d66c6bc0bfeabbcdab972dfbf56df6b0665c2b4cfca36f2b4f0a24"
    ),
    ("rational", "negative_scalar", 1): (
        "ebd6206e52d254de5dd6be6a6fc38eaef9669064f0766e0e3b9b44d767d2c961"
    ),
    ("rational", "unused_extension", 1): (
        "3e0190f50d0d274fac3ee01e6c7411f8aba012cc6ec04ab08e417e29671415cd"
    ),
    ("rational", "nested_extensions", 1): (
        "6ff149d1629c02e477c510214dc3b71f299bbda34801e2ae7da6ebe3a1d3ce73"
    ),
    ("rational", "third_delta", 1): (
        "eca606883db81325c5c8ad5f1d1acb5a3cb45b792fe24968da6a160ad7f92fc0"
    ),
    ("rational", "working_extension", 1): (
        "2241cd747079704ee510496f8a96432a39091db1afef1834b2ccf5c38cc77d3b"
    ),
    ("rational", "affine_definition", 1): (
        "dcfb035eed8415623e963ea5e0fc265af4233cbb348cde5e051f87dab66b4a46"
    ),
    ("rational", "two_thirds_definition", 1): (
        "8630690ff74806c8f5adcffdb9e51f438e038f73fb09c054789b1bf40244b81c"
    ),
}


@pytest.mark.parametrize(
    "case", list(Z_DIGESTS), ids=lambda case: "-".join(map(str, case))
)
def test_rationalize_output_bytes_are_pinned(case):
    result = rationalize(*_pinned_refutation(*case))
    assert _z_digest(result) == Z_DIGESTS[case]


# sha256 of the Q document and the line map that simulate_reslin_b gives
# each clausal case of Z_DIGESTS.
Q_DIGESTS = {
    ("splitting", 1, 1): (
        "4dcdfa865934396e84e5c8729e0aef0a16ea3ab90a6650ab63496d417ab1c942"
    ),
    ("splitting", 2, 1): (
        "05832fb2f046fdb3ce61b4ca26d157b2801c9c293a183245973935c1eba68e78"
    ),
    ("splitting", 3, 1): (
        "bef0bcbf002d182740688d020ac7b7239d4f5144e80ac4a9880c062089520f90"
    ),
    ("splitting", 4, 1): (
        "c698ef76840f19306cd53a2288ac95364572ac00a86fcf62e8bb6bbdadf24a89"
    ),
    ("splitting", 5, 1): (
        "9b6698892c52e2639267bab5780a1a68774d37da565f8a045f1c20d9671bfd19"
    ),
    ("splitting", 6, 1): (
        "9b83bf785338ec9824fdc2f2b566465db2fd8ed8f3c790485b3054c2a4f6b15a"
    ),
    ("splitting", 3, 3): (
        "555279814d8fa19b4f84aa7dc593c68c2b7b7f347c6bd86ea53b0f9c65aa3a12"
    ),
    ("splitting", 4, 5): (
        "acf5e9c1507b71ea13eeacc3dc2baf5941ab8f687f50eeb4e7938a40573f91a0"
    ),
    ("splitting", 3, 11): (
        "dc69501d0e8e83e518c067f5b1ac6abadaa79affbc5f613e5eb9d01a5b85aafd"
    ),
    ("splitting", 4, 17): (
        "e37e370649da96336f0ceaf70307fb307c2b3b96e0226757990b0ca3ef32fa2b"
    ),
    ("clausal", "zero_one", 1): (
        "2d342c77c55cfd7f1a763c8a7d97b77ff7581f1783cc76b47db0c63f793e0d9d"
    ),
    ("clausal", "all_rules", 1): (
        "c49a140dced27e924db688a3606e0b73c0c0a533b672bb1c7e05c774753ce382"
    ),
    ("clausal", "half_half", 1): (
        "b22eb856a35e2d5817dbd4cc143c3a66c09561c49541890b8821bb58cc7c6712"
    ),
    ("clausal", "sum_to_one", 1): (
        "460a886137a8b54023b9df27f377e60c6f110d7df7e1530952a097fd8bf871c7"
    ),
    ("clausal", "thirds", 1): (
        "da8fb3959016a4c0c0ffdcdbd9894ad74d3580476b6f9e247258006fb195bf68"
    ),
    ("clausal", "clause_pair", 1): (
        "4ee9e40215a4b5005d96a9ee88d752eccec6d5c44d20360298407e4ff6eba858"
    ),
}


@pytest.mark.parametrize(
    "case", list(Q_DIGESTS), ids=lambda case: "-".join(map(str, case))
)
def test_simulation_output_bytes_are_pinned(case):
    assert _q_digest(_simulated(*case)) == Q_DIGESTS[case]


# -- one line per step -----------------------------------------------------------


def _repeated_steps(proof):
    """The Axiom, LinComb and MulVar rules that more than one line holds."""
    seen, repeated = set(), []
    for line in proof:
        if not isinstance(line.rule, Sqrt):
            if line.rule in seen:
                repeated.append(line.rule)
            seen.add(line.rule)
    return repeated


SPLITTINGS = [("splitting", n, 1) for n in range(1, 8)] + [
    ("splitting", n, alpha) for n, alpha in ((3, 3), (4, 5), (3, 11), (4, 17))
]


@pytest.mark.parametrize(
    "case",
    SPLITTINGS + [("clausal", name, 1) for name, *_ in refutation_corpus()],
    ids=lambda case: "-".join(map(str, case)),
)
def test_no_simulated_or_lifted_proof_repeats_a_step(case):
    out = _simulated(*case)
    assert _repeated_steps(out.proof) == []
    assert _repeated_steps(rationalize(out.axioms, list(out.proof)).proof) == []


@pytest.mark.parametrize("name", [name for name, *_ in rational_corpus()])
def test_no_lift_of_the_rational_corpus_repeats_a_step(name):
    result = rationalize(*_pinned_refutation("rational", name, 1))
    assert _repeated_steps(result.proof) == []


@pytest.mark.parametrize("n", range(1, 7))
def test_no_oracle_refutation_repeats_a_step(n):
    assert _repeated_steps(brute_force_refutation(n)[1]) == []
