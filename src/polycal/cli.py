"""Command line front end wiring the library into file-based pipelines.

Every subcommand reads and writes the JSON documents defined by the owning
modules, emits exactly one JSON value on stdout when it reaches its command
logic, and reports failures as a JSON object on stderr.  Exit codes follow a
three-way contract:

  0   success, or a checked proof that is valid
  1   well-formed input whose verdict is negative (invalid proof, failed
      divisibility audit, nonzero trace residue)
  2   unusable input: flag errors, unreadable files, malformed JSON,
      violated preconditions, guarded resource limits

Stdout is reserved for the primary artifact so that pipelines compose; the
`--out` flag additionally writes the same bytes to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterator, Optional, Sequence

from .bvp import (
    COST_LIMIT,
    CostGuard,
    KPlusOneNotPrime,
    NonIntegralExtensionValue,
    SieveGuard,
    ZeroConstant,
    audit_divisibility,
    audit_report_to_obj,
    brute_force_refutation,
    gen_bvp,
    instance_to_obj,
    primes_below,
    primorial_bits,
    trace_mod_check,
    trace_report_to_obj,
)
from .polyring import FormatError, int_from_str, int_to_str
from .proofcore import (
    SystemKind,
    check_refutation,
    measure,
    proof_from_obj,
    proof_to_obj,
    report_to_obj,
)
from .reslin import (
    UnregisteredForm,
    check_reslin,
    reslin_from_obj,
    size_binary,
    size_unary,
)
from .xlate import (
    InternalCheckFailure,
    InvalidInputProof,
    NonIntegerBaseAxiom,
    rationalize,
    simulate_reslin_b,
    state_to_obj,
)

SYSTEM_NAMES = tuple(kind.value for kind in SystemKind)


def canonical_json(obj: object) -> str:
    """Serialize with sorted keys and no whitespace; ends in a newline.

    Re-serializing any parsed output of this function reproduces it byte
    for byte, which is what makes the emitted artifacts safe to diff.
    """
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except ValueError:  # an integer past Python's int-to-str digit limit
        text = "".join(_json_chunks(obj))
    return text + "\n"


def _json_chunks(obj: object) -> Iterator[str]:
    """canonical_json's text, writing every integer through int_to_str."""
    if isinstance(obj, dict):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "") + json.dumps(key) + ":"
            yield from _json_chunks(obj[key])
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ","
            yield from _json_chunks(item)
        yield "]"
    elif isinstance(obj, int) and not isinstance(obj, bool):
        yield int_to_str(obj)
    else:
        yield json.dumps(obj)


class UsageError(Exception):
    """A flag or file problem that prevents the command from running."""


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable errors instead of usage text."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle, parse_int=int_from_str)


def _emit(obj: object, out_path: Optional[str] = None) -> None:
    text = canonical_json(obj)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)


def _is_reslin_doc(doc: object) -> bool:
    return isinstance(doc, dict) and "system" not in doc


def _check_system_flag(requested: Optional[str], actual: Optional[str]) -> None:
    if requested is not None and requested != actual:
        raise UsageError(
            f"--system {requested} does not match the document"
            + (f" ({actual})" if actual else " (no system field)")
        )


# -- subcommands -----------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _load_json(args.proof)
    if _is_reslin_doc(doc):
        _check_system_flag(args.system, None)
        axioms, lines = reslin_from_obj(doc)
        report = check_reslin(axioms, lines)
    else:
        kind, axioms, lines = proof_from_obj(doc)
        _check_system_flag(args.system, kind.value)
        report = check_refutation(axioms, lines, kind)
    _emit(report_to_obj(report))
    return 0 if report.valid else 1


def _cmd_gen_bvp(args: argparse.Namespace) -> int:
    _emit(instance_to_obj(gen_bvp(args.n)), args.out)
    return 0


def _cmd_oracle_refute(args: argparse.Namespace) -> int:
    axioms, proof = brute_force_refutation(args.n, force=args.force)
    _emit(proof_to_obj(SystemKind.PCSQRT_Z, axioms, proof), args.out)
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    doc = _load_json(args.reslin)
    if args.axioms is not None:
        ax_doc = _load_json(args.axioms)
        if not (isinstance(ax_doc, dict) and set(ax_doc) == {"axioms"}):
            raise UsageError("--axioms file must be an object with only 'axioms'")
        if not (isinstance(doc, dict) and set(doc) == {"lines"}):
            raise UsageError("--reslin file must hold only 'lines' when --axioms is given")
        doc = {"axioms": ax_doc["axioms"], "lines": doc["lines"]}
    axioms, lines = reslin_from_obj(doc)
    output = simulate_reslin_b(axioms, lines)
    text = canonical_json(
        proof_to_obj(SystemKind.EXTPCSQRT_Q, output.axioms, output.proof)
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    _emit({"line_map": list(output.line_map), "line_count": len(output.proof)})
    return 0


def _cmd_rationalize(args: argparse.Namespace) -> int:
    _kind, axioms, lines = proof_from_obj(_load_json(args.proof))
    result = rationalize(axioms, lines, faithful_constants=args.faithful_constants)
    text = canonical_json(
        proof_to_obj(SystemKind.EXTPCSQRT_Z, result.axioms, list(result.proof))
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    _emit(state_to_obj(result.state), args.state)
    return 0


def _checked_pc_doc(path: str):
    kind, axioms, lines = proof_from_obj(_load_json(path))
    report = check_refutation(axioms, lines, kind)
    if not report.valid:
        _emit(report_to_obj(report))
        return None
    return axioms, lines, report


def _cmd_audit(args: argparse.Namespace) -> int:
    checked = _checked_pc_doc(args.proof)
    if checked is None:
        return 1
    _axioms, _lines, report = checked
    constant = report.final_constant
    if constant != int(constant):
        raise UsageError(f"final constant {constant} is not an integer")
    audit = audit_divisibility(int(constant), args.n)
    _emit(audit_report_to_obj(audit))
    return 0 if audit.all_divide else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    checked = _checked_pc_doc(args.proof)
    if checked is None:
        return 1
    axioms, lines, _report = checked
    trace = trace_mod_check(axioms, lines, args.n, args.k)
    _emit(trace_report_to_obj(trace))
    return 0 if trace.all_zero else 1


def _cmd_measure(args: argparse.Namespace) -> int:
    doc = _load_json(args.proof)
    if _is_reslin_doc(doc):
        _axioms, lines = reslin_from_obj(doc)
        _emit(
            {
                "size_unary": size_unary(lines),
                "size_binary": size_binary(lines),
                "line_count": len(lines),
            }
        )
    else:
        _kind, _axioms, lines = proof_from_obj(doc)
        total, degree, count = measure(lines)
        _emit({"total_size": total, "degree": degree, "line_count": count})
    return 0


def _cmd_primes(args: argparse.Namespace) -> int:
    _emit(
        {
            "primes": primes_below(args.below),
            "primorial_bits": primorial_bits(args.below),
        }
    )
    return 0


# -- argument plumbing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polycal",
        description="Check, generate, translate, and audit algebraic refutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = command("check", _cmd_check, "verify a proof document and print its report")
    p.add_argument("--proof", required=True, help="proof document to check")
    p.add_argument(
        "--system",
        choices=SYSTEM_NAMES,
        help="expected system kind; mismatch with the document is an error",
    )

    p = command("gen-bvp", _cmd_gen_bvp, "write the n-bit binary value instance")
    p.add_argument("--n", type=int, required=True, help="bit width, at least 1")
    p.add_argument("--out", help="also write the instance to this file")

    p = command("oracle-refute", _cmd_oracle_refute, "refute the n-bit instance")
    p.add_argument("--n", type=int, required=True, help="bit width, at least 1")
    p.add_argument("--out", help="also write the proof document to this file")
    p.add_argument(
        "--force",
        action="store_true",
        help=f"allow n above the cost limit {COST_LIMIT}; n = 7 writes about 265 MB",
    )

    p = command("translate", _cmd_translate, "simulate a linear resolution proof")
    p.add_argument("--reslin", required=True, help="resolution proof document")
    p.add_argument(
        "--axioms",
        help="axioms in their own file; --reslin then holds only the lines",
    )
    p.add_argument("--out", required=True, help="file for the output proof document")

    p = command("rationalize", _cmd_rationalize, "clear denominators from a proof")
    p.add_argument("--proof", required=True, help="proof document over the rationals")
    p.add_argument("--out", required=True, help="file for the integral proof document")
    p.add_argument("--state", help="also write the conversion state to this file")
    p.add_argument(
        "--faithful-constants",
        action="store_true",
        help="use precomputed clearing factors instead of least denominators",
    )

    p = command("audit", _cmd_audit, "divide the final constant by small primes")
    p.add_argument("--proof", required=True, help="proof document to audit")
    p.add_argument("--n", type=int, required=True, help="bit width of the instance")

    p = command("trace", _cmd_trace, "evaluate a proof at one boolean point mod k+1")
    p.add_argument("--proof", required=True, help="proof document to trace")
    p.add_argument("--n", type=int, required=True, help="bit width of the instance")
    p.add_argument("--k", type=int, required=True, help="encoded value, k+1 prime")

    p = command("measure", _cmd_measure, "report size and degree of a proof")
    p.add_argument("--proof", required=True, help="proof document to measure")

    p = command("primes", _cmd_primes, "list primes below a bound")
    p.add_argument("--below", type=int, required=True, help="exclusive upper bound")

    return parser


_USAGE_ERRORS = (
    UsageError,
    OSError,
    json.JSONDecodeError,
    FormatError,
    ValueError,
    CostGuard,
    SieveGuard,
    ZeroConstant,
    KPlusOneNotPrime,
    NonIntegralExtensionValue,
    NonIntegerBaseAxiom,
    UnregisteredForm,
    InternalCheckFailure,
)


def _error_obj(exc: Exception) -> str:
    return canonical_json({"error": type(exc).__name__, "message": str(exc)})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except InvalidInputProof as exc:
        sys.stderr.write(_error_obj(exc))
        return 1
    except _USAGE_ERRORS as exc:
        sys.stderr.write(_error_obj(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
