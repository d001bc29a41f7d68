"""The three workloads: their job lists and each job's known answer.

A job is one ``polycal`` command line, run in-process through
``polycal.cli.main``.  Each job carries the known answer the benchmark
computed itself (exit code, verdict, constants, line indices and error
codes), and a workload is an ordered job list that one closed-loop client
runs one job at a time.  Later jobs read files that earlier jobs wrote;
``facts`` carries what earlier jobs of the same pass established (line
counts, final constants, F_final) to the checks of later ones.

Why these workloads (the reasons are also in BENCHMARK.json):

oracle_n4      the largest oracle instance that finishes today (n = 5 does
               not); a 16.4 MB document, so the codec and polynomial ring
               dominate.  No extensions or rationals: bypasses xlate and the
               checker's extension-axiom path.
clausal_chain  the paper's chain on a Res-Lin refutation: clausal check,
               simulation into Ext-PC-sqrt over Q, rationalization to Z,
               check and audit.  Dominated by reslin, xlate, Fraction
               arithmetic and extension axioms; bypasses the oracle and
               multilinear reduction.
cli_small      about 200 short commands, a third of them rejections, where
               the fixed cost per command and the first-error path dominate
               and the two big workloads hide them.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import inputs

# Known defect D1, reported rather than worked around: at n = 4 the
# rationalize state holds clearing constants L of up to about 48k bits,
# and state_to_obj hits Python's 4300-digit int-to-str limit, so the
# command exits 2 after writing the integral proof.  Lifting the limit in
# a throwaway process gives a 7.9 MB state document that takes about 1.3 s
# to serialize, so a D1 fix will raise this job's time and run_s.
D1_NOTE = "D1: rationalize state hits the 4300-digit int-to-str limit"


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    seconds: float
    crash: Optional[str]
    wall_seconds: float


@dataclass
class Job:
    label: str
    argv: list[str]
    expect_exit: int
    verify: Callable[[Outcome, dict], list[str]]
    derived: Optional["Derived"] = None
    writes: tuple[str, ...] = ()
    proof_doc: Optional[str] = None
    note: str = ""


@dataclass
class Workload:
    jobs: list[Job]
    known: dict


# -- known-answer checks ------------------------------------------------------------


def _bits(constant: str) -> int:
    num, _, den = constant.lstrip("-").partition("/")
    return (int(num) - 1).bit_length() + ((int(den) - 1).bit_length() if den else 0)


def check_valid(doc: str, final, lines=None) -> Callable[[Outcome, dict], list[str]]:
    """A valid report; ``final`` is the constant, None, or a facts key holding it."""

    def verify(outcome: Outcome, facts: dict) -> list[str]:
        report = json.loads(outcome.out)
        expected = facts.get(final, "<unknown>") if isinstance(final, tuple) else final
        problems = []
        if not report["valid"] or report["error"] is not None:
            problems.append(f"report not valid: {report['error']}")
        if expected != "<unknown>" and report["final_constant"] != expected:
            problems.append(f"final constant {report['final_constant']!r}, expected {expected!r}")
        want_lines = facts.get(lines) if isinstance(lines, tuple) else lines
        if want_lines is not None and report["line_count"] != want_lines:
            problems.append(f"line_count {report['line_count']}, expected {want_lines}")
        if report["valid"]:
            facts[doc] = report
        return problems

    return verify


def check_rejects(line: int, code: str) -> Callable[[Outcome, dict], list[str]]:
    def verify(outcome: Outcome, facts: dict) -> list[str]:
        report = json.loads(outcome.out)
        got = report["error"] and (report["error"]["line"], report["error"]["code"])
        if report["valid"] or got != (line, code):
            return [f"rejection {got}, expected {(line, code)}"]
        return []

    return verify


def error_named(name: str) -> Callable[[Outcome, dict], list[str]]:
    def verify(outcome: Outcome, facts: dict) -> list[str]:
        got = json.loads(outcome.err).get("error") if outcome.err else None
        if outcome.out or got != name:
            return [f"error {got!r} with {len(outcome.out)} stdout bytes, expected {name!r}"]
        return []

    return verify


def same_as_file(
    path: str, expected_text: Optional[str] = None
) -> Callable[[Outcome, dict], list[str]]:
    """Stdout and the --out file hold the same bytes (and the expected ones)."""

    def verify(outcome: Outcome, facts: dict) -> list[str]:
        with open(path, encoding="utf-8") as handle:
            written = handle.read()
        problems = []
        if written != outcome.out:
            problems.append(f"{os.path.basename(path)} differs from stdout")
        if expected_text is not None and outcome.out != expected_text:
            problems.append("output differs from the known document")
        return problems

    return verify


def audit_ok(doc: str, n: int) -> Callable[[Outcome, dict], list[str]]:
    def verify(outcome: Outcome, facts: dict) -> list[str]:
        report = json.loads(outcome.out)
        primes = [str(p) for p in inputs.primes_below((1 << n) + 1)]
        problems = []
        if not report["all_divide"] or [c["prime"] for c in report["checks"]] != primes:
            problems.append("audit does not find every prime <= 2^n dividing the constant")
        if doc in facts and report["constant"] != facts[doc]["final_constant"]:
            problems.append("audited constant differs from the checked final constant")
        return problems

    return verify


def trace_ok(doc: str, k: int) -> Callable[[Outcome, dict], list[str]]:
    def verify(outcome: Outcome, facts: dict) -> list[str]:
        report = json.loads(outcome.out)
        problems = []
        if not report["all_zero"] or report["modulus"] != str(k + 1):
            problems.append(f"trace at k={k} is not all zero mod {k + 1}")
        if doc in facts and len(report["residues"]) != facts[doc]["line_count"]:
            problems.append("one residue per line expected")
        return problems

    return verify


def measure_ok(doc: str, expected: Optional[dict] = None) -> Callable[[Outcome, dict], list[str]]:
    """Sizes equal the known ones, or those the check of the same document reported."""

    def verify(outcome: Outcome, facts: dict) -> list[str]:
        got = json.loads(outcome.out)
        want = expected or {key: facts[doc][key] for key in ("total_size", "degree", "line_count")}
        return [] if got == want else [f"measure {got}, expected {want}"]

    return verify


def translate_ok(q_doc: str, clausal_lines: int) -> Callable[[Outcome, dict], list[str]]:
    def verify(outcome: Outcome, facts: dict) -> list[str]:
        got = json.loads(outcome.out)
        facts[(q_doc, "lines")] = got["line_count"]
        line_map = got["line_map"]
        if len(line_map) != clausal_lines or line_map[-1] != got["line_count"] - 1:
            return ["line_map does not cover every clausal line and end at the last line"]
        return []

    return verify


def rationalize_ok(state: str, z_doc: str) -> Callable[[Outcome, dict], list[str]]:
    def verify(outcome: Outcome, facts: dict) -> list[str]:
        problems = same_as_file(state)(outcome, facts)
        f_final = json.loads(outcome.out)["F_final"]
        facts[(z_doc, "F_final")] = f_final
        if int(f_final) < 1:
            problems.append(f"F_final {f_final} is not a positive integer")
        return problems

    return verify


def stdout_is(text: str) -> Callable[[Outcome, dict], list[str]]:
    return lambda outcome, facts: [] if outcome.out == text else ["output is not the known text"]


# -- workloads ----------------------------------------------------------------------


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _clausal(
    work: str, n: int, rng: random.Random, known: dict
) -> tuple[str, inputs.ClausalProof]:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    proof = inputs.splitting_refutation(n, order)
    path = _write(os.path.join(work, f"rl{n}.json"), inputs.dump(proof.to_obj()))
    known[f"rl{n}.json"] = {
        "order": order,
        "lines": len(proof.lines),
        "size_unary": proof.size_unary(),
        "size_binary": proof.size_binary(),
        "extensions": proof.distinct_forms(),
    }
    return path, proof


def oracle_n4(work: str, rng: random.Random) -> Workload:
    k = rng.choice([1, 2, 4, 6, 10, 12])
    doc = os.path.join(work, "o4.json")
    known = {"o4.json": {"final_constant": str(math.factorial(16)), "trace_k": k}}
    jobs = [
        Job("oracle-refute", ["oracle-refute", "--n", "4", "--out", doc], 0,
            same_as_file(doc), writes=(doc,), proof_doc=doc),
        Job("check", ["check", "--system", "pcsqrt-z", "--proof", doc], 0,
            check_valid(doc, str(math.factorial(16)))),
        Job(f"trace.k{k}", ["trace", "--n", "4", "--k", str(k), "--proof", doc], 0,
            trace_ok(doc, k)),
    ]
    return Workload(jobs, known)


def clausal_chain(work: str, rng: random.Random) -> Workload:
    known: dict = {}
    rl8, proof8 = _clausal(work, 8, rng, known)
    q8 = os.path.join(work, "q8.json")
    jobs = [
        Job("n8.check", ["check", "--proof", rl8], 0, check_valid(rl8, None, len(proof8.lines))),
        Job("n8.translate", ["translate", "--reslin", rl8, "--out", q8], 0,
            translate_ok(q8, len(proof8.lines)), writes=(q8,), proof_doc=q8),
        Job("n8.check-q", ["check", "--system", "extpcsqrt-q", "--proof", q8], 0,
            check_valid(q8, "1", (q8, "lines"))),
    ]
    for n in (3, 4):
        rl, proof = _clausal(work, n, rng, known)
        q, z, state = (os.path.join(work, f"{p}{n}.json") for p in ("q", "z", "s"))
        jobs += [
            Job(f"n{n}.translate", ["translate", "--reslin", rl, "--out", q], 0,
                translate_ok(q, len(proof.lines)), writes=(q,), proof_doc=q),
            Job(f"n{n}.rationalize",
                ["rationalize", "--proof", q, "--out", z, "--state", state], 0,
                rationalize_ok(state, z), writes=(z, state), proof_doc=z,
                note=D1_NOTE if n == 4 else ""),
            Job(f"n{n}.check-z", ["check", "--system", "extpcsqrt-z", "--proof", z], 0,
                check_valid(z, (z, "F_final"))),
            Job(f"n{n}.audit", ["audit", "--proof", z, "--n", str(n)], 0, audit_ok(z, n)),
        ]
    # The Q documents are the refutations of the hat-encoded instance.
    known["q_final_constant"] = "1"
    known["z_final_constant"] = "equal to the state's F_final"
    return Workload(jobs, known)


class Derived:
    """A mutant or malformed copy of an artifact that an earlier job wrote.

    Built once, before the first job that reads it (untimed), from a seeded
    generator; the known answer is fixed when it is built.
    """

    def __init__(self, source: str, path: str, rng: random.Random, make: Callable):
        self.source, self.path, self.rng, self.make = source, path, rng, make
        self.answer: Optional[tuple] = None

    def prepare(self) -> None:
        if self.answer is None:
            with open(self.source, encoding="utf-8") as handle:
                text = handle.read()
            body, *self.answer = self.make(json.loads(text), text, self.rng)
            _write(self.path, body)

    def verify(self, outcome: Outcome, facts: dict) -> list[str]:
        kind, *rest = self.answer
        check = check_rejects(*rest) if kind == "mutant" else error_named(*rest)
        return check(outcome, facts)


def _mutant(stratum: tuple[int, int]) -> Callable:
    def make(doc: dict, text: str, rng: random.Random) -> tuple:
        mutate = inputs.algebraic_mutant if "system" in doc else inputs.clausal_mutant
        mutant, line, code = mutate(doc, rng, stratum)
        return inputs.dump(mutant), "mutant", line, code

    return make


def _malformed(kind: str, stratum: tuple[int, int]) -> Callable:
    def make(doc: dict, text: str, rng: random.Random) -> tuple:
        body = inputs.malformed(doc, text, kind, rng, stratum)
        return body, "malformed", inputs.MALFORMED_ERROR[kind]

    return make


def cli_small(work: str, rng: random.Random) -> Workload:
    known: dict = {}
    jobs: list[Job] = []
    oracle_docs, q_docs, clausal_docs = [], [], []
    for n in (2, 3):
        inst, doc = os.path.join(work, f"bvp{n}.json"), os.path.join(work, f"o{n}.json")
        constant = str(math.factorial(1 << n))
        bound = (1 << n) + 1
        primes = inputs.primes_below(bound)
        primes_text = json.dumps(
            {"primes": primes, "primorial_bits": (math.prod(primes) - 1).bit_length()},
            sort_keys=True, separators=(",", ":")) + "\n"
        points = [k for k in range(1 << n) if k + 1 in primes]
        known[f"o{n}.json"] = {"final_constant": constant, "prime_points": points}
        jobs += [
            Job(f"n{n}.gen-bvp", ["gen-bvp", "--n", str(n), "--out", inst], 0,
                same_as_file(inst, inputs.bvp_instance_text(n)), writes=(inst,)),
            Job(f"n{n}.oracle-refute", ["oracle-refute", "--n", str(n), "--out", doc], 0,
                same_as_file(doc), writes=(doc,), proof_doc=doc),
            Job(f"n{n}.check", ["check", "--proof", doc], 0, check_valid(doc, constant)),
            Job(f"n{n}.check-z", ["check", "--system", "pcsqrt-z", "--proof", doc], 0,
                check_valid(doc, constant)),
            Job(f"n{n}.audit", ["audit", "--proof", doc, "--n", str(n)], 0, audit_ok(doc, n)),
            *(Job(f"n{n}.trace.k{k}", ["trace", "--proof", doc, "--n", str(n), "--k", str(k)], 0,
                  trace_ok(doc, k)) for k in points),
            Job(f"n{n}.measure", ["measure", "--proof", doc], 0, measure_ok(doc)),
            Job(f"n{n}.primes", ["primes", "--below", str(bound)], 0,
                stdout_is(primes_text)),
        ]
        oracle_docs.append(doc)
    for n in (3, 4, 5):
        rl, proof = _clausal(work, n, rng, known)
        q = os.path.join(work, f"q{n}.json")
        jobs += [
            Job(f"n{n}.check", ["check", "--proof", rl], 0,
                check_valid(rl, None, len(proof.lines))),
            Job(f"n{n}.measure-clausal", ["measure", "--proof", rl], 0, measure_ok(rl, {
                "size_unary": proof.size_unary(), "size_binary": proof.size_binary(),
                "line_count": len(proof.lines)})),
            Job(f"n{n}.translate", ["translate", "--reslin", rl, "--out", q], 0,
                translate_ok(q, len(proof.lines)), writes=(q,), proof_doc=q),
            Job(f"n{n}.check-q", ["check", "--system", "extpcsqrt-q", "--proof", q], 0,
                check_valid(q, "1", (q, "lines"))),
            Job(f"n{n}.measure-q", ["measure", "--proof", q], 0, measure_ok(q)),
        ]
        q_docs.append(q)
        clausal_docs.append(rl)

    # Mutants: 15 per valid document, each checked by a command that reads it.
    sources = [(d, ("check", "audit", "trace")) for d in oracle_docs]
    sources += [(d, ("check", "audit")) for d in q_docs]
    sources += [(d, ("check",)) for d in clausal_docs]
    for source, commands in sources:
        n = os.path.basename(source)[1:-5]
        for i in range(15):
            command = commands[i % len(commands)]
            derived = Derived(source, os.path.join(work, f"mut-{i}-{os.path.basename(source)}"),
                              random.Random(rng.getrandbits(64)), _mutant((i, 15)))
            extra = {"audit": ["--n", n], "trace": ["--n", n, "--k", "1"]}.get(command, [])
            jobs.append(Job(f"mutant.{os.path.basename(source)}.{i}.{command}",
                            [command, "--proof", derived.path, *extra], 1,
                            derived.verify, derived))
    # Malformed documents: every kind, read by check and by measure.
    malformed_sources = [*oracle_docs, q_docs[0], *clausal_docs[:2]]
    for i, source in enumerate(malformed_sources):
        for kind in inputs.MALFORMED_KINDS:
            derived = Derived(source, os.path.join(work, f"bad-{kind}-{os.path.basename(source)}"),
                              random.Random(rng.getrandbits(64)),
                              _malformed(kind, (i, len(malformed_sources))))
            for command in ("check", "measure"):
                jobs.append(Job(f"malformed.{os.path.basename(source)}.{kind}.{command}",
                                [command, "--proof", derived.path], 2,
                                derived.verify, derived))
    return Workload(jobs, known)


WORKLOADS = {"oracle_n4": oracle_n4, "clausal_chain": clausal_chain, "cli_small": cli_small}


def proof_sizes(workload: Workload, facts: dict) -> tuple[int, int, int]:
    """(bytes, lines, final constant bits) of the proof documents the program wrote."""
    total_bytes = total_lines = bits = 0
    for job in workload.jobs:
        doc = job.proof_doc
        if doc is None or doc not in facts or not os.path.exists(doc):
            continue
        total_bytes += os.path.getsize(doc)
        total_lines += facts[doc]["line_count"]
        bits += _bits(facts[doc]["final_constant"])
    return total_bytes, total_lines, bits
