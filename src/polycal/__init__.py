"""Exact-arithmetic toolkit for algebraic refutations.

The package splits into five layers, each importable on its own:

  polyring    sparse polynomials over int and Fraction scalars
  proofcore   rule-checked refutations in the square-root systems
  reslin      clausal proofs over linear equations, plus their hat encoding
  bvp         the binary value instances, oracle refutations, audits, traces
  xlate       translations: clausal-to-algebraic and rational-to-integral

The most commonly used names are re-exported here; the `cli` module wires
everything to files and exit codes under the `polycal` console command.
"""

from .bvp import (
    AuditReport,
    BvpInstance,
    TraceReport,
    audit_divisibility,
    brute_force_refutation,
    factorial_bits,
    gen_bvp,
    primes_below,
    primorial_bits,
    trace_mod_check,
)
from .polyring import (
    FormatError,
    Monomial,
    Polynomial,
    Scalar,
    VarId,
    boolean_axiom,
    multilinear_reduce,
    poly_from_obj,
    poly_parse,
    poly_to_obj,
    xvar,
    yvar,
)
from .proofcore import (
    AxiomSet,
    CheckReport,
    ExtensionAxiom,
    ProofBuilder,
    ProofLine,
    SystemKind,
    check_refutation,
    measure,
    proof_from_obj,
    proof_to_obj,
)
from .reslin import (
    Disjunction,
    LinEq,
    Registry,
    check_reslin,
    reslin_from_obj,
    reslin_to_obj,
    size_binary,
    size_unary,
)
from .xlate import (
    SimulationOutput,
    rationalize,
    simulate_reslin_b,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "AxiomSet",
    "BvpInstance",
    "CheckReport",
    "Disjunction",
    "ExtensionAxiom",
    "FormatError",
    "LinEq",
    "Monomial",
    "Polynomial",
    "ProofBuilder",
    "ProofLine",
    "Registry",
    "Scalar",
    "SimulationOutput",
    "SystemKind",
    "TraceReport",
    "VarId",
    "audit_divisibility",
    "boolean_axiom",
    "brute_force_refutation",
    "check_refutation",
    "check_reslin",
    "factorial_bits",
    "gen_bvp",
    "measure",
    "multilinear_reduce",
    "poly_from_obj",
    "poly_parse",
    "poly_to_obj",
    "primes_below",
    "primorial_bits",
    "proof_from_obj",
    "proof_to_obj",
    "rationalize",
    "reslin_from_obj",
    "reslin_to_obj",
    "simulate_reslin_b",
    "size_binary",
    "size_unary",
    "trace_mod_check",
    "xvar",
    "yvar",
]
