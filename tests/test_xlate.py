"""Tests for the two proof translators."""

import dataclasses
import functools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycal.bvp import audit_divisibility
from polycal.polyring import Polynomial, poly_parse, xvar, yvar
from polycal.proofcore import (
    Axiom,
    AxiomSet,
    LinComb,
    MulVar,
    ProofLine,
    Sqrt,
    SystemKind,
    check_refutation,
)
from polycal.reslin import (
    Disjunction,
    LinEq,
    RlAxiom,
    RlContraction,
    RlLine,
    product_monomial,
    build_registry,
)
from polycal.xlate import (
    InternalCheckFailure,
    InvalidInputProof,
    NonIntegerBaseAxiom,
    compute_scale_factors,
    rationalize,
    simulate_reslin_b,
    state_to_obj,
    verify_phase_one,
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
    y_variables,
)
from reslin_corpus import (
    bvp_splitting,
    refutation_corpus,
    rests_of_one_degree,
    thirds,
    zero_one,
)

X1 = xvar(1)


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
    assert len(out.proof) == 11


# Q lines of the splitting refutation of BVP_n, as upper bounds: each run of
# contractions takes one square root, and a resolution lifts its shorter rest.
SPLITTING_Q_LINES = {3: 275, 4: 667, 5: 1587, 6: 3739}


def _emitting_lines(out):
    """Index of the input line whose simulation emitted each output line."""
    owner, start = [], 0
    for i, target in enumerate(out.line_map):
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
        if isinstance(rl_line.rule, RlContraction):
            k = out.line_map[i]
            while isinstance(proof[k].rule, MulVar):
                k = proof[k].rule.k
            assert isinstance(proof[k].rule, Sqrt), (n, i)
    if n in SPLITTING_Q_LINES:
        assert len(proof) <= SPLITTING_Q_LINES[n]

    result = rationalize(out.axioms, list(proof))
    report = check_refutation(result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z)
    assert report.valid
    assert report.final_constant == math.factorial(2**n)
    assert audit_divisibility(report.final_constant, n).all_divide


# The same bounds once a run of contractions lifts its root line in the
# order the run removes disjuncts and resolutions share their swap line.
SHARED_SPLITTING_Q_LINES = {3: 255, 4: 591, 5: 1335, 6: 2975}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_splitting_runs_and_resolutions_share_their_lines(n):
    axioms, lines = bvp_splitting(n)
    out = simulate_reslin_b(axioms, lines)
    proof = out.proof
    contractions = sum(isinstance(line.rule, RlContraction) for line in lines)
    sqrts = sum(isinstance(line.rule, Sqrt) for line in proof)
    by_contractions = sum(
        isinstance(lines[i].rule, RlContraction) for i in _emitting_lines(out)
    )
    assert by_contractions == contractions + sqrts
    lincombs = [
        (line.rule.j, line.rule.k, line.rule.alpha, line.rule.beta)
        for line in proof
        if isinstance(line.rule, LinComb)
    ]
    assert len(set(lincombs)) == len(lincombs)
    if n in SHARED_SPLITTING_Q_LINES:
        assert len(proof) <= SHARED_SPLITTING_Q_LINES[n]


def test_resolution_with_equal_rests_adds_the_hats_first():
    axioms, lines = rests_of_one_degree()
    out = simulate_reslin_b(axioms, lines)
    hats = LinComb(out.line_map[0], out.line_map[7], 1, -1)
    assert [line.rule for line in out.proof].count(hats) == 1
    report = check_refutation(out.axioms, list(out.proof), SystemKind.EXTPCSQRT_Q)
    assert report.valid and report.final_constant == 1


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


def run_both_modes(axioms, proof):
    for faithful in (False, True):
        yield faithful, rationalize(axioms, proof, faithful_constants=faithful)


def test_rational_corpus_lifts_to_integers():
    for name, axioms, proof in rational_corpus():
        original = check_refutation(axioms, proof, SystemKind.EXTPCSQRT_Q)
        assert original.valid, (name, original.error)
        for faithful, result in run_both_modes(axioms, proof):
            final = check_refutation(
                result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z
            )
            assert final.valid, (name, faithful, final.error)
            ratio = Fraction(final.final_constant) / Fraction(original.final_constant)
            assert ratio > 0 and ratio.denominator == 1, (name, faithful, ratio)
            verify_phase_one(axioms, proof, result)


def test_phase_two_line_budget():
    splitting = simulate_reslin_b(*bvp_splitting(3))
    inputs = list(rational_corpus())
    inputs.append(("bvp_splitting(3)", splitting.axioms, list(splitting.proof)))
    for name, axioms, proof in inputs:
        for faithful, result in run_both_modes(axioms, proof):
            t = len(result.phase_one)
            assert len(result.proof) <= 2 * t * t + t, (name, faithful)
            # Each phase-1 line adds its own lines plus one rescale per cited
            # premise, and the final line adds at most one more.
            assert len(result.proof) <= 3 * t + 1, (name, faithful, len(result.proof))


# (F_final, final constant) of each corpus proof, in default and faithful mode.
CORPUS_CONSTANTS = {
    "negative_root": ((2, 1), (32, 16)),
    "negative_scalar": ((2, 1), (32, 16)),
    "unused_extension": ((2, 1), (32, 16)),
    "nested_extensions": ((2, 1), (32, 16)),
    "third_delta": ((2, -2), (32, -32)),
    "working_extension": ((32, -32), (1024, -1024)),
    "affine_definition": ((2, 1), (128, 64)),
    "two_thirds_definition": ((2, -2), (128, -128)),
}


def test_phase_two_adds_one_line_per_square_root():
    # Each integer line is g times its phase-1 line with g fixed at
    # emission, so phase 2 adds only one rescaling per square root and at
    # most one for the last line, and F and the constant are unchanged.
    cases = []
    for name, axioms, proof in rational_corpus():
        for faithful, result in run_both_modes(axioms, proof):
            cases.append(((name, faithful), result, CORPUS_CONSTANTS[name][faithful]))
    for n in range(2, 7):
        out = simulate_reslin_b(*bvp_splitting(n))
        for faithful in (False, True) if n <= 3 else (False,):
            result = rationalize(out.axioms, list(out.proof), faithful_constants=faithful)
            factor = result.state.final_factor
            if faithful:
                assert factor.bit_length() == {2: 688, 3: 15_346}[n]
            else:
                assert factor == math.factorial(2**n)
                assert audit_divisibility(factor, n).all_divide
            cases.append(((n, faithful), result, (factor, factor)))
    for label, result, constants in cases:
        roots = sum(isinstance(line.rule, Sqrt) for line in result.phase_one)
        assert len(result.proof) - len(result.phase_one) - roots in (0, 1), label
        state = result.state
        assert (state.final_factor, state.final_constant) == constants, label


def test_phase_one_is_a_valid_rational_proof():
    for name, axioms, proof in rational_corpus():
        result = rationalize(axioms, proof)
        replay = [ProofLine(p.poly, p.rule) for p in result.phase_one]
        report = check_refutation(result.axioms, replay, SystemKind.EXTPCSQRT_Q)
        assert report.valid, (name, report.error)


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
    faithful = rationalize(axioms, proof, faithful_constants=True)
    assert faithful.state.final_factor == 32
    assert faithful.state.final_constant == 16


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
    assert len(result.proof) == len(result.phase_one)


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
    assert state.final_factor == state.final_constant == math.factorial(8)


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
    assert state.final_factor == state.final_constant == math.factorial(64)

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


def test_verify_phase_one_catches_tampering():
    axioms, proof = negative_root()
    result = rationalize(axioms, proof)
    phase = list(result.phase_one)
    index = result.prime_of[-1]
    phase[index] = dataclasses.replace(phase[index], poly=Polynomial.constant(9))
    tampered = dataclasses.replace(result, phase_one=tuple(phase))
    with pytest.raises(InternalCheckFailure):
        verify_phase_one(axioms, proof, tampered)


def test_verify_phase_one_catches_foreign_scalars():
    from q_corpus import working_extension

    axioms, proof = working_extension()
    result = rationalize(axioms, proof)
    phase = list(result.phase_one)
    auxiliary = [
        i
        for i, line in enumerate(phase)
        if isinstance(line.rule, LinComb) and line.provenance is None
    ]
    assert auxiliary, "the corpus member is expected to carry rescaling lines"
    i = auxiliary[0]
    phase[i] = dataclasses.replace(
        phase[i], rule=dataclasses.replace(phase[i].rule, alpha=Fraction(1, 3))
    )
    tampered = dataclasses.replace(result, phase_one=tuple(phase))
    with pytest.raises(InternalCheckFailure):
        verify_phase_one(axioms, proof, tampered)


def test_verify_phase_one_ties_a_copy_to_the_scale_of_its_premise():
    from q_corpus import working_extension

    axioms, proof = working_extension()
    result = rationalize(axioms, proof)
    phase = list(result.phase_one)
    copy = next(
        i
        for i, line in enumerate(phase)
        if line.provenance is None and line.rule.alpha == Fraction(1, 2)
    )
    base_line = next(
        i
        for i, line in enumerate(phase)
        if isinstance(line.rule, Axiom) and line.rule.index < len(axioms.base)
    )
    # 1/2 undoes the scale T_1 = 2, not the scale 1 of a base axiom line.
    phase[copy] = dataclasses.replace(
        phase[copy], rule=dataclasses.replace(phase[copy].rule, j=base_line, k=base_line)
    )
    tampered = dataclasses.replace(result, phase_one=tuple(phase))
    with pytest.raises(InternalCheckFailure):
        verify_phase_one(axioms, proof, tampered)


def test_rationalize_runs_verify_phase_one(monkeypatch):
    def refuse(axioms, proof, result):
        raise InternalCheckFailure("phase 1 refused")

    monkeypatch.setattr("polycal.xlate.verify_phase_one", refuse)
    with pytest.raises(InternalCheckFailure, match="phase 1 refused"):
        rationalize(*nested_extensions())


def test_phase_one_copies_each_line_at_most_once():
    # Every T_j is 1 on the splitting chain, so phase 1 copies no line.
    for n in (3, 4, 5):
        out = simulate_reslin_b(*bvp_splitting(n))
        result = rationalize(out.axioms, list(out.proof))
        assert len(result.phase_one) == len(out.proof), n
        assert not any(line.provenance is None for line in result.phase_one), n
        if n == 4:
            assert result.state.final_constant == math.factorial(16)

    from q_corpus import working_extension

    result = rationalize(*working_extension())
    cited = [
        line.rule.j
        for line in result.phase_one
        if isinstance(line.rule, LinComb) and line.provenance is None
    ]
    assert cited and len(cited) == len(set(cited))
    # Each 1/2 copy doubles F; with the repeated copy F was 64.
    assert result.state.final_factor == 32


# -- extension numbering ---------------------------------------------------------

# Documents whose y-variables are not y1..ym, each with its counterpart
# numbered y1..ym (a free y multiplies as an x does), and the default F.
NUMBERING_CASES = {
    "y1, y3 and a y3 multiplication": (gapped_extensions(Y3), gapped_extensions(Y2, Y2), 4),
    "y1, y3 and no y multiplication": (gapped_extensions(X1), gapped_extensions(X1, Y2), 2),
    "a free y5 multiplication": (free_variable(), free_variable(X1), 2),
}


@pytest.mark.parametrize("name", sorted(NUMBERING_CASES))
def test_extension_numbering_leaves_the_integer_proof(name):
    document, consecutive, factor = NUMBERING_CASES[name]
    for faithful, result in run_both_modes(*document):
        report = check_refutation(result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z)
        assert report.valid, (name, faithful, report.error)
        expected = rationalize(*consecutive, faithful_constants=faithful)
        assert result.state == expected.state, (name, faithful)
        assert len(result.proof) == len(expected.proof), (name, faithful)
        if not faithful:
            assert result.state.final_factor == factor, name


@functools.cache
def _renumbering_cases():
    inputs = list(rational_corpus())
    for n in (2, 3):
        out = simulate_reslin_b(*bvp_splitting(n))
        inputs.append((f"bvp_splitting({n})", out.axioms, list(out.proof)))
    return [
        (name, axioms, proof, faithful, result)
        for name, axioms, proof in inputs
        for faithful, result in run_both_modes(axioms, proof)
    ]


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_renumbered_y_variables_rationalize_to_the_renamed_proof(rng):
    for name, axioms, proof, faithful, expected in _renumbering_cases():
        old = sorted(y_variables(axioms, proof))
        new = sorted(rng.sample(range(1, 3 * len(old) + 2), len(old)))
        mapping = dict(zip(old, map(yvar, new)))
        result = rationalize(*renumber(axioms, proof, mapping), faithful_constants=faithful)
        back = {renamed: y for y, renamed in mapping.items()}
        z_axioms, z_proof = renumber(result.axioms, result.proof, back)
        assert z_axioms == expected.axioms, (name, faithful)
        assert z_proof == list(expected.proof), (name, faithful)
        assert result.state == expected.state, (name, faithful)


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
