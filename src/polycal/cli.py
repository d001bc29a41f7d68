"""Command line front end wiring the library into file-based pipelines.

Every subcommand reads and writes the JSON documents defined by the owning
modules, emits exactly one JSON value on stdout when it reaches its command
logic, and reports failures as a JSON object on stderr.  Exit codes follow a
three-way contract:

  0   success, or a checked proof that is valid
  1   well-formed input whose verdict is negative (invalid proof, failed
      divisibility audit, nonzero trace residue)
  2   unusable input: flag errors, unreadable files, malformed JSON,
      violated preconditions, guarded resource limits, running out of memory

Stdout is reserved for the primary artifact so that pipelines compose; the
`--out` flag additionally writes the same bytes to a file.

Every output file (`--out`, and `rationalize --state`) is rewritten in place
by `_output`, so a rerun reuses the old file's blocks.  On ext4 mounted with
`discard`, a truncating `open(path, "w")` of an existing file blocks while
the old blocks are freed, before a byte is written: 35-80 ms for 7 KB,
80-180 ms for 6 MB and 0.9-2.8 s for 100 MB, against under 13 ms to write
the same bytes over the old ones (`BENCH_11.json`).  Renaming a temporary
file over the target frees the old blocks the same way.  Only regular files
are trimmed; `/dev/null`, pipes and devices refuse `ftruncate`.  The
trade-off: a command killed mid-write leaves the new text followed by the
old file's tail, where a truncating open left the new text alone.  Either
way the file is incomplete, and `check` verifies whatever it reads.

`main` runs each command with the cyclic garbage collector paused and
restores the caller's setting on the way out.  Decoding a large document
allocates millions of container objects, and each collection the allocations
trigger walks the whole live JSON tree while finding nothing to free.  The
pause is safe because a command leaves no reference cycles behind: reference
counting frees all of its garbage.  A monomial's product memo is keyed by
the other factor's pairs and refers only to monomials of higher degree, and
the argument parser, which is full of cycles, is built once and kept.
`tests/test_cli.py::test_commands_leave_no_cyclic_garbage` runs every
subcommand and the exit-1 and exit-2 paths and requires `gc.collect()` to
find nothing after each.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import stat
import sys
from typing import Iterable, Iterator, Optional, Sequence, TextIO

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
    instance_text,
    primes_below,
    primorial_bits,
    trace_mod_check,
    trace_report_to_obj,
)
from .polyring import FormatError, int_to_str, json_parse
from .proofcore import (
    CheckError,
    SystemKind,
    check_refutation,
    measure,
    proof_chunks,
    proof_from_obj,
    refutation_verdict,
    report_to_obj,
    verdict_report,
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
    for byte, which is what makes the emitted artifacts safe to diff.  No int
    past the int-to-str digit limit may reach it: reports write big integers
    as decimal strings through `int_to_str`, or, like `measure` of a clausal
    document, as raw numbers through templates.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class UsageError(Exception):
    """A flag or file problem that prevents the command from running."""


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable errors instead of usage text."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _load_json(path: str) -> object:
    """The JSON document at path, read by `json_parse`."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json_parse(text)
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[Optional[TextIO]]:
    """The file at path, open to be rewritten in place; None without a path.

    The file is created if missing but not truncated, and writing starts at
    offset 0.  On the way out, even after an exception, a regular file that
    was written to is cut at the end of what was written, so it holds
    exactly the new text.  A file that nothing was written to keeps its old
    bytes: opening an output destroys nothing.  Callers open their outputs
    before printing anything, so a path that cannot be written fails with
    nothing on stdout.
    """
    if path is None:
        yield None
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        handle = open(fd, "w", encoding="utf-8")
    except BaseException:
        os.close(fd)
        raise
    with handle:
        try:
            yield handle
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode) and handle.tell():
                handle.truncate()


def _write(chunks: Iterable[str], out: Optional[TextIO]) -> None:
    """Print text piece by piece, writing each piece to out too if given."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    for chunk in chunks:
        out.write(chunk)
        sys.stdout.write(chunk)


def _emit(obj: object, out: Optional[TextIO] = None) -> None:
    _write((canonical_json(obj),), out)


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
    text = instance_text(gen_bvp(args.n))
    with _output(args.out) as out:
        _write((text,), out)
    return 0


def _cmd_oracle_refute(args: argparse.Namespace) -> int:
    axioms, proof = brute_force_refutation(args.n, force=args.force)
    with _output(args.out) as out:
        _write(proof_chunks(SystemKind.PCSQRT_Z, axioms, proof), out)
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
    with _output(args.out) as out:
        out.writelines(proof_chunks(SystemKind.EXTPCSQRT_Q, output.axioms, output.proof))
    _emit({"line_map": list(output.line_map), "line_count": len(output.proof)})
    return 0


def _one_file(first: str, second: str) -> bool:
    """Whether two paths name one regular file, or one file not yet made."""
    try:
        first_stat, second_stat = os.stat(first), os.stat(second)
    except OSError:
        return os.path.realpath(first) == os.path.realpath(second)
    return stat.S_ISREG(first_stat.st_mode) and os.path.samestat(first_stat, second_stat)


def _cmd_rationalize(args: argparse.Namespace) -> int:
    # One regular file may not be both outputs; refused before any work,
    # so a path not yet made is not created.
    if args.state is not None and _one_file(args.out, args.state):
        raise UsageError("--out and --state name the same file")
    _kind, axioms, lines = proof_from_obj(_load_json(args.proof))
    result = rationalize(axioms, lines)
    # Both files open before either is written, so an unwritable --state
    # leaves --out as it was.
    with _output(args.out) as out, _output(args.state) as state_out:
        out.writelines(proof_chunks(SystemKind.EXTPCSQRT_Z, result.axioms, result.proof))
        _emit(state_to_obj(result.state), state_out)
    return 0


def _checked_pc_doc(path: str):
    """(axioms, lines, final constant) of an accepted proof document; for a
    rejected one, None once its check report is written.  Only a rejection
    is measured: nothing reads the size of an accepted proof."""
    kind, axioms, lines = proof_from_obj(_load_json(path))
    verdict = refutation_verdict(axioms, lines, kind)
    if isinstance(verdict, CheckError):
        _emit(report_to_obj(verdict_report(verdict, lines)))
        return None
    return axioms, lines, verdict


def _cmd_audit(args: argparse.Namespace) -> int:
    checked = _checked_pc_doc(args.proof)
    if checked is None:
        return 1
    _axioms, _lines, constant = checked
    if constant != int(constant):
        raise UsageError(f"final constant {constant} is not an integer")
    audit = audit_divisibility(int(constant), args.n)
    _emit(audit_report_to_obj(audit))
    return 0 if audit.all_divide else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    checked = _checked_pc_doc(args.proof)
    if checked is None:
        return 1
    axioms, lines, _constant = checked
    trace = trace_mod_check(axioms, lines, args.n, args.k)
    _emit(trace_report_to_obj(trace))
    return 0 if trace.all_zero else 1


def _cmd_measure(args: argparse.Namespace) -> int:
    doc = _load_json(args.proof)
    if _is_reslin_doc(doc):
        _axioms, lines = reslin_from_obj(doc)
        sys.stdout.write(
            f'{{"line_count":{len(lines)},"size_binary":{size_binary(lines)},'
            f'"size_unary":{int_to_str(size_unary(lines))}}}\n'
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command parser, built on first use and then shared.

    A parser is a web of reference cycles, so building one per command would
    leave cyclic garbage behind.  It holds no handlers: `main` finds
    `_cmd_<command>` when the command runs.
    """
    parser = _Parser(
        prog="polycal",
        description="Check, generate, translate, and audit algebraic refutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a proof document and print its report")
    p.add_argument("--proof", required=True, help="proof document to check")
    p.add_argument(
        "--system",
        choices=SYSTEM_NAMES,
        help="expected system kind; mismatch with the document is an error",
    )

    p = sub.add_parser("gen-bvp", help="write the n-bit binary value instance")
    p.add_argument("--n", type=int, required=True, help="bit width, at least 1")
    p.add_argument("--out", help="also write the instance to this file")

    p = sub.add_parser("oracle-refute", help="refute the n-bit instance")
    p.add_argument("--n", type=int, required=True, help="bit width, at least 1")
    p.add_argument("--out", help="also write the proof document to this file")
    p.add_argument(
        "--force",
        action="store_true",
        help=f"allow n above the cost limit {COST_LIMIT}; n = 9 writes about 43 MB",
    )

    p = sub.add_parser("translate", help="simulate a linear resolution proof")
    p.add_argument("--reslin", required=True, help="resolution proof document")
    p.add_argument(
        "--axioms",
        help="axioms in their own file; --reslin then holds only the lines",
    )
    p.add_argument("--out", required=True, help="file for the output proof document")

    p = sub.add_parser("rationalize", help="clear denominators from a proof")
    p.add_argument("--proof", required=True, help="proof document over the rationals")
    p.add_argument("--out", required=True, help="file for the integral proof document")
    p.add_argument("--state", help="also write the conversion state to this file")

    p = sub.add_parser("audit", help="divide the final constant by small primes")
    p.add_argument("--proof", required=True, help="proof document to audit")
    p.add_argument("--n", type=int, required=True, help="bit width of the instance")

    p = sub.add_parser("trace", help="evaluate a proof at one boolean point mod k+1")
    p.add_argument("--proof", required=True, help="proof document to trace")
    p.add_argument("--n", type=int, required=True, help="bit width of the instance")
    p.add_argument("--k", type=int, required=True, help="encoded value, k+1 prime")

    p = sub.add_parser("measure", help="report size and degree of a proof")
    p.add_argument("--proof", required=True, help="proof document to measure")

    p = sub.add_parser("primes", help="list primes below a bound")
    p.add_argument("--below", type=int, required=True, help="exclusive upper bound")

    return parser


_USAGE_ERRORS = (
    UsageError,
    OSError,
    json.JSONDecodeError,
    FormatError,
    ValueError,
    MemoryError,
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
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except InvalidInputProof as exc:
        sys.stderr.write(_error_obj(exc))
        return 1
    except _USAGE_ERRORS as exc:
        sys.stderr.write(_error_obj(exc))
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
