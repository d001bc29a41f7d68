"""Clear every denominator out of a rational refutation.

The input proof works over the rationals: its extension variable is
defined as x/2, one linear combination uses the scalar -1/2, and a square
root has rational coefficients.  The conversion rescales each definition
to integer coefficients, multiplies each line by the least integer factor
that clears it, and certifies itself: the output checks under the integer-only
system, and the final constants relate by an exact positive integer.
"""

from fractions import Fraction

from polycal import SystemKind, check_refutation, rationalize
from polycal.xlate import state_to_obj

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from q_corpus import nested_extensions  # noqa: E402

axioms, proof = nested_extensions()
q_report = check_refutation(axioms, proof, SystemKind.EXTPCSQRT_Q)
assert q_report.valid
print("rational input:")
for ext in axioms.extensions:
    print(f"  {ext.var.name} := {ext.definition}")
print(f"  {q_report.line_count} lines, final constant {q_report.final_constant}")

result = rationalize(axioms, proof)
z_report = check_refutation(
    result.axioms, list(result.proof), SystemKind.EXTPCSQRT_Z
)
assert z_report.valid
print("\nintegral output:")
for ext in result.axioms.extensions:
    print(f"  {ext.var.name} := {ext.definition}")
print(f"  {z_report.line_count} lines, final constant {z_report.final_constant}")

ratio = Fraction(z_report.final_constant) / Fraction(q_report.final_constant)
assert ratio.denominator == 1 and ratio > 0
print(f"\nfinal-constant ratio: {ratio} (always a positive integer)")

# rationalize has already checked each integer line against its input line
# under the substitution; the Z checker above cannot see that identity.
print("lift verification: substitution identities hold on every line")

state = state_to_obj(result.state)
print("\nconversion state:")
print(f"  definition denominators M = {state['M']}")
print(f"  rescale factors        T = {state['T']}")
print(f"  scalar denominators    deltas = {state['deltas']}")
print(f"  input lines            {state['line_count']}")
print(f"  constant ratio         F = {state['F_final']}")
