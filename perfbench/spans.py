"""Span recorder for the traced run, installed around polycal's public functions.

The benchmark wraps functions in every polycal module namespace they are
called through (``polycal.cli.check_refutation`` and
``polycal.xlate.check_refutation`` are both patched), so a span opens at each
layer boundary no matter which layer calls it.  A span records name, start,
end, parent span and job id; self time is a span's duration minus the time
its child spans cover.

Polynomial arithmetic is called hundreds of thousands of times per pass, so
its spans are aggregated (calls, self time) instead of stored one by one;
monomial construction is only counted.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

ARITH_METHODS = ("add", "scale", "mul", "mul_var", "square", "substitute", "evaluate")


class Recorder:
    """Spans and counters of one traced pass; ``job`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, Optional[int], str]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.stack: list[list] = []  # frames: [name, child seconds, kept span id]
        self.job = ""
        # inclusive seconds per (job label, span name), for stage cross-checks
        self.job_incl: defaultdict = defaultdict(float)

    def enclosing(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)


def _wrap(
    rec: Recorder, name: str, fn: Callable, keep: bool, after: Optional[Callable]
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        parent = stack[-1] if stack else None
        kept_parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
        span_id = None
        if keep:
            span_id = len(rec.spans)
            rec.spans.append((name, 0.0, 0.0, kept_parent, rec.job))
        frame = [name, 0.0, span_id]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            rec.calls[name] += 1
            rec.self_s[name] += duration - frame[1]
            rec.incl_s[name] += duration
            rec.job_incl[rec.job, name] += duration
            if keep:
                rec.spans[span_id] = (name, start, end, kept_parent, rec.job)
        if after is not None:
            after(rec, duration, args, result)
        return result

    return wrapper


def _patch_everywhere(polycal_modules: list, original: Callable, replacement: Callable) -> None:
    for module in polycal_modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# -- counters fed from call results ----------------------------------------------


def _after_check(rec: Recorder, duration: float, args: tuple, report) -> None:
    axioms, proof = args[0], args[1]
    rec.counts["proofcore.check.lines"] += len(proof)
    rec.counts["proofcore.extensions"] += len(axioms.extensions)
    for line in proof:
        rec.counts["proofcore.rule_mix." + type(line.rule).__name__.lower()] += 1
    if rec.enclosing("xlate.rationalize"):
        rec.counts["xlate.rationalize.check_s"] += duration


def _after_reduce(rec: Recorder, duration: float, args: tuple, result) -> None:
    rec.counts["polyring.multilinear_reduce.steps"] += len(result[1])


def _after_rationalize(rec: Recorder, duration: float, args: tuple, result) -> None:
    rec.counts["xlate.rationalize.lines_in"] += len(args[1])
    rec.counts["xlate.rationalize.lines_out"] += len(result.proof)
    rec.counts["xlate.rationalize.F_bits"] += result.state.final_factor.bit_length()


def _after_registry(rec: Recorder, duration: float, args: tuple, registry) -> None:
    rec.counts["reslin.registry_forms"] += len(registry)


def _after_load(rec: Recorder, duration: float, args: tuple, result) -> None:
    rec.counts["cli.bytes_in"] += os.path.getsize(args[0])


# -- installation ------------------------------------------------------------------

# (defining module, function, span name, keep every span, counter hook)
_FUNCTIONS = (
    ("polyring", "poly_from_obj", "polyring.poly_from_obj", True, None),
    ("polyring", "poly_to_obj", "polyring.poly_to_obj", True, None),
    ("polyring", "multilinear_reduce", "polyring.multilinear_reduce", True, _after_reduce),
    ("proofcore", "proof_from_obj", "proofcore.proof_from_obj", True, None),
    ("proofcore", "proof_to_obj", "proofcore.proof_to_obj", True, None),
    ("proofcore", "check_refutation", "proofcore.check_refutation", True, _after_check),
    ("proofcore", "measure", "proofcore.measure", True, None),
    ("bvp", "brute_force_refutation", "bvp.brute_force_refutation", True, None),
    ("bvp", "trace_mod_check", "bvp.trace_mod_check", True, None),
    ("bvp", "audit_divisibility", "bvp.audit_divisibility", True, None),
    ("xlate", "simulate_reslin_b", "xlate.simulate_reslin_b", True, None),
    ("xlate", "rationalize", "xlate.rationalize", True, _after_rationalize),
    ("xlate", "state_to_obj", "xlate.state_to_obj", True, None),
    ("reslin", "check_reslin", "reslin.check_reslin", True, None),
    ("reslin", "build_registry", "reslin.build_registry", True, _after_registry),
    ("cli", "_load_json", "cli.json_load", True, _after_load),
    ("cli", "canonical_json", "cli.canonical_json", True, None),
)

SUBCOMMANDS = {
    "check": "_cmd_check",
    "gen-bvp": "_cmd_gen_bvp",
    "oracle-refute": "_cmd_oracle_refute",
    "translate": "_cmd_translate",
    "rationalize": "_cmd_rationalize",
    "audit": "_cmd_audit",
    "trace": "_cmd_trace",
    "measure": "_cmd_measure",
    "primes": "_cmd_primes",
}


def install(rec: Recorder) -> Callable[[], None]:
    """Patch polycal in place; returns a function that restores it."""
    modules = [module for name, module in sorted(sys.modules.items())
               if name.split(".")[0] == "polycal"]
    undo: list[Callable[[], None]] = []

    def patch(original: Callable, replacement: Callable) -> None:
        _patch_everywhere(modules, original, replacement)
        undo.append(lambda: _patch_everywhere(modules, replacement, original))

    for module_name, attr, name, keep, after in _FUNCTIONS:
        original = getattr(sys.modules["polycal." + module_name], attr)
        patch(original, _wrap(rec, name, original, keep, after))
    cli = sys.modules["polycal.cli"]
    for sub, attr in SUBCOMMANDS.items():
        original = getattr(cli, attr)
        patch(original, _wrap(rec, f"cli.{sub}", original, True, None))
    patch(cli.main, _wrap(rec, "cli.main", cli.main, True, None))

    polyring = sys.modules["polycal.polyring"]
    for cls, attr in [(polyring.Polynomial, m) for m in ARITH_METHODS]:
        original = vars(cls)[attr]
        setattr(cls, attr, _wrap(rec, "polyring.arith", original, False, None))
        undo.append(functools.partial(setattr, cls, attr, original))

    monomial_init = vars(polyring.Monomial)["__init__"]

    @functools.wraps(monomial_init)
    def counted_init(self, *args, **kwargs):
        rec.counts["polyring.monomials_built"] += 1
        monomial_init(self, *args, **kwargs)

    polyring.Monomial.__init__ = counted_init
    undo.append(functools.partial(setattr, polyring.Monomial, "__init__", monomial_init))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed by BENCHMARK.json per_layer names."""
    s, calls, counts = rec.self_s, rec.calls, rec.counts
    metrics = {
        "polyring.poly_from_obj.s": s["polyring.poly_from_obj"],
        "polyring.poly_from_obj.calls": calls["polyring.poly_from_obj"],
        "proofcore.proof_from_obj.s": s["proofcore.proof_from_obj"],
        "cli.json_load.s": s["cli.json_load"],
        "polyring.poly_to_obj.s": s["polyring.poly_to_obj"],
        "proofcore.proof_to_obj.s": s["proofcore.proof_to_obj"],
        "cli.canonical_json.s": s["cli.canonical_json"],
        "polyring.arith.s": s["polyring.arith"],
        "polyring.arith.calls": calls["polyring.arith"],
        "polyring.monomials_built": counts["polyring.monomials_built"],
        "polyring.multilinear_reduce.s": s["polyring.multilinear_reduce"],
        "polyring.multilinear_reduce.steps": counts["polyring.multilinear_reduce.steps"],
        "proofcore.check_refutation.s": s["proofcore.check_refutation"],
        "proofcore.check_refutation.calls": calls["proofcore.check_refutation"],
        "proofcore.check.lines_per_s": _ratio(
            counts["proofcore.check.lines"], rec.incl_s["proofcore.check_refutation"]
        ),
        "proofcore.measure.s": s["proofcore.measure"],
        "proofcore.extensions": counts["proofcore.extensions"],
        "bvp.brute_force_refutation.s": s["bvp.brute_force_refutation"],
        "bvp.trace_mod_check.s": s["bvp.trace_mod_check"],
        "bvp.audit_divisibility.s": s["bvp.audit_divisibility"],
        "xlate.simulate_reslin_b.s": s["xlate.simulate_reslin_b"],
        "xlate.rationalize.s": s["xlate.rationalize"],
        "xlate.rationalize.check_s": counts["xlate.rationalize.check_s"],
        "xlate.rationalize.line_ratio": _ratio(
            counts["xlate.rationalize.lines_out"], counts["xlate.rationalize.lines_in"]
        ),
        "xlate.rationalize.lines_in": counts["xlate.rationalize.lines_in"],
        "xlate.rationalize.lines_out": counts["xlate.rationalize.lines_out"],
        "xlate.rationalize.F_bits": counts["xlate.rationalize.F_bits"],
        "xlate.state_to_obj.s": s["xlate.state_to_obj"],
        "reslin.check_reslin.s": s["reslin.check_reslin"],
        "reslin.registry_forms": counts["reslin.registry_forms"],
        "cli.self_s": s["cli.main"],
        "cli.bytes_in": counts["cli.bytes_in"],
        "cli.bytes_out": counts["cli.bytes_out"],
    }
    for rule in ("axiom", "lincomb", "mulvar", "sqrt"):
        metrics[f"proofcore.rule_mix.{rule}"] = counts[f"proofcore.rule_mix.{rule}"]
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.s"] = s[f"cli.{sub}"]
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
