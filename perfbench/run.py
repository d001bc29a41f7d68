"""Benchmark of the polycal command line on generated JSON documents.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle_n4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one process each

One closed-loop client runs a workload's job list one job at a time, in this
process, through ``polycal.cli.main(argv)`` with stdout and stderr captured.
With one client nothing ever waits for a busy resource, so waiting time is
zero by construction and is not reported.  The job list is repeated while
another pass is expected to end within ``--seconds`` (at least one pass).
Each job is checked against the known answer the benchmark computed itself.

With ``--trace 0`` the last line holds the end-to-end metrics, with job
times in reference seconds (see speed.py).  With ``--trace 1`` one untraced
pass runs first, then traced passes with spans around polycal's public
functions (see spans.py), and the last line holds the per-layer metrics in
wall seconds, including the tracing overhead (traced minus untraced run_s).
Job outcomes, known answers, artifact hashes and spans go to
``.perfbench_out/`` in the checkout.  Inputs live in ``.perfbench_work/``
and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans
import workloads
from speed import SpeedProbe
from workloads import Outcome

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 9

# ROADMAP Direction 1 baseline for the oracle at n = 4, in seconds.
ROADMAP_STAGES = {"generate": 1.34, "check": 1.14, "serialize": 2.70, "parse": 6.77, "trace": 0.32}


def import_program():
    """Import polycal from the checkout's source tree; None if it is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import polycal.cli
    except ImportError as exc:
        print(f"cannot import polycal from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    return polycal.cli


def set_up(name: str, work: str, seed: int):
    """Inputs and known answers, then one fresh interpreter importing the CLI.

    The fresh start is what every real command pays and in-process jobs do
    not, so work moved to import time shows in setup_s.
    """
    workload = workloads.WORKLOADS[name](work, random.Random(seed))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import polycal.cli"], env=env, cwd=ROOT,
                   check=True, timeout=60)
    return workload


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(job: workloads.Job, cli, probe) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    crash = None

    def call():
        try:
            return cli.main(job.argv)
        except Exception as exc:  # a traceback out of main is a finding, not a harness error
            nonlocal crash
            crash = f"uncaught {type(exc).__name__}: {exc}"
            return None

    with redirect_stdout(out), redirect_stderr(err):
        if probe is not None:
            code, raw, scaled = probe.measure(call)
        else:
            start = perf_counter()
            code = call()
            raw = scaled = perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), scaled, crash, raw)


def run_pass(workload: workloads.Workload, cli, probe=None, rec=None) -> dict:
    """Run the job list once; verification and bookkeeping stay outside job times."""
    facts: dict = {}
    jobs, artifacts = [], {}
    for job in workload.jobs:
        try:
            if job.derived is not None:
                job.derived.prepare()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # The artifact it derives from is missing or unreadable: the job cannot run.
            outcome = Outcome(None, "", "", 0.0, f"no input: {type(exc).__name__}: {exc}", 0.0)
        else:
            gc.collect()
            if rec is not None:
                rec.job = job.label
            outcome = run_job(job, cli, probe)
        if outcome.crash is not None:
            problems = [outcome.crash]
        elif outcome.code != job.expect_exit:
            problems = [f"exit {outcome.code}, expected {job.expect_exit}: "
                        f"{outcome.err.strip()[:160]}"]
        else:
            try:
                problems = job.verify(outcome, facts)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        written = 0
        for path in job.writes:
            if os.path.exists(path):
                data = Path(path).read_bytes()
                artifacts[os.path.basename(path)] = [_digest(data), len(data)]
                written += len(data)
        if rec is not None:
            rec.counts["cli.bytes_out"] += len(outcome.out) + len(outcome.err) + written
        jobs.append({
            "label": job.label,
            "exit": outcome.code,
            "seconds": outcome.seconds,
            "wall_seconds": outcome.wall_seconds,
            "stdout_sha256": _digest(outcome.out.encode()),
            "problems": problems,
            # A wrong verdict or wrong content; a refusal (exit 2) or a crash only fails.
            "incorrect": bool(problems) and outcome.code in (0, 1),
            "note": job.note,
        })
    for job in workload.jobs:
        name = job.proof_doc and os.path.basename(job.proof_doc)
        if name in artifacts and job.proof_doc in facts:
            artifacts[name].append(facts[job.proof_doc]["line_count"])
    return {"jobs": jobs, "artifacts": artifacts, "sizes": workloads.proof_sizes(workload, facts),
            "run_s": sum(j["seconds"] for j in jobs),
            "wall_s": sum(j["wall_seconds"] for j in jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def tail(times: list[float]) -> tuple[float, int, int]:
    """(value, percentile, jobs beyond): the highest percentile with ten jobs beyond it.

    Where no percentile from the median up has ten jobs beyond it, the slowest
    job is reported as p100 with none beyond.
    """
    ordered = sorted(times)
    for q in range(99, 49, -1):
        rank = math.ceil(q * len(ordered) / 100)
        if len(ordered) - rank >= 10:
            return ordered[rank - 1], q, len(ordered) - rank
    return ordered[-1], 100, 0


def end_to_end(passes: list[dict], setup_times: list[float]) -> dict[str, float]:
    jobs = [j for p in passes for j in p["jobs"]]
    per_pass = [[j["seconds"] for j in p["jobs"]] for p in passes]
    size_bytes, lines, bits = passes[-1]["sizes"]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "job_p50_s": statistics.median(statistics.median(times) for times in per_pass),
        "job_tail_s": statistics.median(tail(times)[0] for times in per_pass),
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "ok_share": 1 - sum(bool(j["problems"]) for j in jobs) / len(jobs),
        "artifact_bytes": size_bytes,
        "proof_lines": lines,
        "final_constant_bits": bits,
    }


def stage_crosscheck(rec: spans.Recorder) -> dict[str, float]:
    """Inclusive n = 4 oracle stage times of one traced pass, under ROADMAP's stage names."""

    def incl(job_prefix: str, *names: str) -> float:
        return sum(v for (job, name), v in rec.job_incl.items()
                   if job.startswith(job_prefix) and name in names)

    return {
        "generate": incl("oracle-refute", "bvp.brute_force_refutation"),
        "check": incl("check", "proofcore.check_refutation"),
        "serialize": incl("oracle-refute", "proofcore.proof_to_obj", "cli.canonical_json"),
        "parse": incl("check", "cli.json_load", "proofcore.proof_from_obj"),
        "trace": incl("trace", "bvp.trace_mod_check"),
    }


def passes_within(seconds: float, run_one) -> list[dict]:
    """Repeat a pass while the next one is expected to end within the budget."""
    start = perf_counter()
    done = []
    while True:
        done.append(run_one())
        elapsed = perf_counter() - start
        if elapsed * (len(done) + 1) / len(done) > seconds:
            return done


def byte_stability(passes: list[dict]) -> list[str]:
    """Every pass must write the same artifacts and print the same stdout."""
    problems = []
    stdout = [[j["stdout_sha256"] for j in p["jobs"]] for p in passes]
    for later, later_stdout in zip(passes[1:], stdout[1:]):
        if later["artifacts"] != passes[0]["artifacts"]:
            problems.append("artifacts differ between passes")
        if later_stdout != stdout[0]:
            problems.append("stdout differs between passes")
    return problems


def layer_report(args, passes: list[dict], traced: list[tuple[dict, spans.Recorder]]) -> dict:
    runs = [spans.layer_metrics(rec) for _, rec in traced]
    metrics = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    untraced_s = passes[0]["wall_s"]
    traced_s = statistics.median(p["wall_s"] for p, _ in traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    print(f"  run_s untraced {untraced_s:.3f} s, traced {traced_s:.3f} s (wall seconds)")
    if args.workload == "oracle_n4":
        for stage, seconds in stage_crosscheck(traced[-1][1]).items():
            baseline = ROADMAP_STAGES[stage]
            print(f"  stage {stage:<10} {seconds:8.3f} s traced, ROADMAP {baseline:.2f} s,"
                  f" ratio {seconds / baseline:.2f}")
        parse = sum(metrics[m] for m in ("cli.json_load.s", "proofcore.proof_from_obj.s",
                                         "polyring.poly_from_obj.s"))
        print(f"  parse spans (self time) {parse:.3f} s of traced run_s {traced_s:.3f} s"
              f" = {parse / traced_s:.0%}")
    return metrics


def run_workload(args, spec: dict, cli) -> int:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work")
    try:
        setup_times = []
        with SpeedProbe() as probe:
            for _ in range(SETUP_REPEATS):
                workload, _raw, scaled = probe.measure(
                    lambda: set_up(args.workload, work, args.seed))
                setup_times.append(scaled)
            traced: list[tuple[dict, spans.Recorder]] = []

            def traced_pass() -> dict:
                rec = spans.Recorder()
                uninstall = spans.install(rec)
                try:
                    result = run_pass(workload, cli, rec=rec)
                finally:
                    uninstall()
                traced.append((result, rec))
                return result

            if args.trace:
                start = perf_counter()
                passes = [run_pass(workload, cli)]
                passes += passes_within(args.seconds - (perf_counter() - start), traced_pass)
            else:
                passes = passes_within(args.seconds, lambda: run_pass(workload, cli, probe))
        record = summarize(args, spec, workload, passes, setup_times, traced, work)
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record["result"], sort_keys=True))
    return 0


def summarize(args, spec, workload, passes, setup_times, traced, work) -> dict:
    jobs = [j for p in passes for j in p["jobs"]]
    unstable = byte_stability(passes)
    failed = sum(bool(j["problems"]) for j in jobs)
    correct = not unstable and not any(j["incorrect"] for j in jobs)
    artifacts = {name: dict(zip(("sha256", "bytes", "proof_lines"), value))
                 for name, value in passes[-1]["artifacts"].items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(passes)} passes of "
          f"{len(workload.jobs)} jobs, one closed-loop client, one job at a time "
          f"(waiting is zero by construction)")
    failures = Counter((j["label"], j["note"], "; ".join(j["problems"]))
                       for j in jobs if j["problems"])
    for (label, note, problems), times in failures.items():
        note = f" [{note}]" if note else ""
        print(f"  FAILED {label}{note} in {times} of {len(passes)} passes: {problems}")
    for problem in unstable:
        print(f"  INCORRECT: {problem}")
    print(f"  attempted {len(jobs)}  failed {failed}  correct {correct}")
    print(f"  artifacts sha256 of all: {_digest(json.dumps(artifacts, sort_keys=True).encode())}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = layer_report(args, passes, traced)
        declared = [m["name"] for m in spec["per_layer"]]
        notes = {}
    else:
        metrics = end_to_end(passes, setup_times)
        declared = [m["name"] for m in spec["end_to_end"]]
        _, q, beyond = tail([j["seconds"] for j in passes[0]["jobs"]])
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "run_s": "median over passes of the summed job times; "
                     f"wall {statistics.median(p['wall_s'] for p in passes):.3f} s",
            "job_tail_s": f"p{q} of {len(workload.jobs)} jobs per pass, {beyond} beyond it",
            "peak_rss_mb": "at the end of the first pass",
            "ok_share": f"{len(jobs) - failed} of {len(jobs)} jobs match their known answer",
        }
    if sorted(metrics) != sorted(declared):
        mismatch = sorted(set(metrics) ^ set(declared))
        raise RuntimeError(f"metrics {mismatch} disagree with BENCHMARK.json")
    for name in declared:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {metrics[name]:.6g} {units[name]}{note}")

    known_jobs = [{"label": j.label, "argv": [a.replace(work, "<work>") for a in j.argv],
                   "expect_exit": j.expect_exit, "answer": j.derived and j.derived.answer}
                  for j in workload.jobs]
    return {
        "result": {
            "correct": correct,
            "attempted": len(jobs),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in declared},
        },
        "known_answers": {"documents": workload.known, "jobs": known_jobs},
        "artifacts": artifacts,
        "passes": [[{k: j[k] for k in ("label", "exit", "seconds", "wall_seconds", "problems")}
                    for j in p["jobs"]] for p in passes],
        "spans": traced[-1][1].spans if traced else [],
    }


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS belongs to that workload."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            status = child.returncode
            continue
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = import_program()
    if cli is None:
        return 3
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec, cli)


if __name__ == "__main__":
    sys.exit(main())
