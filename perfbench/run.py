"""Benchmark for cocyclelab: time to a certified report.

    python3 perfbench/run.py --workload adding --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``
and driven in-process through its public CLI entry point
(``cocyclelab.cli.main``), as one client in a closed loop: a pass runs
every job of the workload, each a construction command with ``--out``
followed by ``certify`` on the report it wrote, and the next pass starts
when the previous one ends.  Passes repeat for about ``--seconds``: at
least one, and no pass starts that would end more than half a pass
after the deadline.

Every operation is checked: it fails when it raises, exits non-zero,
when certify does not report the recorded verdict, or when the report's
sha256 differs from the digest recorded in ``digests.json`` for that
config.  The result is the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end, with tracing off:
  run_s        median over passes of the construction commands' time
  certify_s    median over passes of the certify calls' time (in each
               pass, per job, the fastest of at least three calls)
  setup_s      median, over fresh processes, of the time from process
               start to ready for the first timed call (import of the
               CLI, generating and loading the configs)
  peak_rss_mb  peak resident memory of this process
The three times are wall times scaled to a reference processor speed
that `speed.SpeedProbe` samples while they run, because a shared
machine's speed drifts by tens of percent; the unscaled wall times are
printed and kept in ``result.json``.

With ``--trace 1`` traced and untraced passes alternate; the metrics are
the per-layer medians over traced passes (see `PER_LAYER`), the share of
traced run time the spans cover, and the tracing overhead.  Spans go to
``perfbench/out/<run>/spans.jsonl``, never into a report.

Per-run details (every sample, tail percentiles with sample counts, the
environment) are written to ``perfbench/out/<run>/result.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from speed import SpeedProbe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
SETUP_PROBES = 5
CERTIFY_MIN_CALLS = 3
CERTIFY_MIN_S = 0.5

END_TO_END = {"run_s": "s", "certify_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}

# per-layer metric -> unit; calls and self times are per pass, summed
# over the run and certify phases
PER_LAYER = {
    "measure.canon.calls": "count",
    "measure.canon.words_in": "count",
    "measure.canon.self_s": "s",
    "measure.canon.share_of_run": "ratio",
    "measure.cylinder.calls": "count",
    "measure.cylinder.self_s": "s",
    "measure.cylinder.share_of_run": "ratio",
    "measure.setops.self_s": "s",
    "odometer.involution.self_s": "s",
    "odometer.overflow.self_s": "s",
    "groups.covering.self_s": "s",
    "groups.closure.self_s": "s",
    "groups.mul.calls": "count",
    "cocycles.increment.calls": "count",
    "cocycles.increment.words": "count",
    "cocycles.increment.self_s": "s",
    "cocycles.partial_check.self_s": "s",
    "cocycles.agreement.self_s": "s",
    "cocycles.distance.self_s": "s",
    "cocycles.within.self_s": "s",
    "evc.search.calls": "count",
    "evc.search.exhausted": "count",
    "evc.search.hit_ratio": "ratio",
    "evc.search.self_s": "s",
    "evc.validate.self_s": "s",
    "evc.connectivity.self_s": "s",
    "stepper.construct.self_s": "s",
    "stepper.validate.self_s": "s",
    "stepper.rounds": "count",
    "driver.self_s": "s",
    "driver.checkpoint.self_s": "s",
    "driver.checkpoint.bytes": "B",
    "driver.report.bytes": "B",
    "driver.certify.self_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.certify_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.error_rate": "ratio",
}


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def sha256_file(path: str) -> Optional[str]:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

@dataclass
class JobResult:
    run_s: float  # scaled to the reference speed (speed.py)
    certify_s: float  # fastest of this job's certify calls, scaled
    run_wall_s: float
    certify_wall_s: float
    report_bytes: int
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


def call_cli(cli, argv: list) -> tuple[float, Optional[int], str, str]:
    """Run ``cli.main(argv)`` with its output captured; returns (wall
    seconds, exit code or None when it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def run_job(cli, job, config_path: str, work_dir: str,
            expected: Optional[dict], tracer=None, probe=None) -> JobResult:
    """One construction command, then certify on its report.  Untraced,
    certify repeats until it has run `CERTIFY_MIN_CALLS` times and for
    `CERTIFY_MIN_S`, and the fastest call counts, because the machine's
    noise only ever adds time; traced, it runs once, so per-layer numbers
    count one certify per job.  Every call is checked.  With a speed
    probe each call's wall time is also scaled to the reference speed."""
    def timed(argv):
        mark = probe.mark() if probe else 0
        wall, code, out, err = call_cli(cli, argv)
        return wall, wall * (probe.speed(mark) if probe else 1.0), code, out, err

    shutil.rmtree(work_dir, ignore_errors=True)
    report = os.path.join(work_dir, "report.jsonl")
    problems = []
    if expected is None:
        problems.append(f"{job.name}: no recorded digest for config {job.key()}")
    if tracer is not None:
        tracer.phase = "run"
    run_wall, run_s, code, _, err = timed(
        [job.command, "--config", config_path, "--out", work_dir])
    digest = sha256_file(report)
    if code != 0:
        problems.append(f"{job.name}: {job.command} exited {code}: {err.strip()}")
    elif expected is not None and digest != expected["report_sha256"]:
        problems.append(f"{job.name}: report sha256 {digest} differs from the "
                        f"recorded {expected['report_sha256']}")
    run_failed = bool(problems)

    if tracer is not None:
        tracer.phase = "certify"
    walls, scaled = [], []
    certify_failed = 0
    calls, least = (1, 0.0) if tracer is not None \
        else (CERTIFY_MIN_CALLS, CERTIFY_MIN_S)
    while len(walls) < calls or sum(walls) < least:
        wall, certify_s, code, out, err = timed(["certify", report])
        walls.append(wall)
        scaled.append(certify_s)
        verdict = None
        if code == 0:
            with contextlib.suppress(ValueError, IndexError):
                verdict = json.loads(out.strip().splitlines()[-1])
        if code != 0 or expected is None or verdict != expected["certify"]:
            certify_failed += 1
            problems.append(f"{job.name}: certify exited {code} with {verdict}: "
                            f"{err.strip()[:2000]}")
            break
    size = os.path.getsize(report) if os.path.exists(report) else 0
    return JobResult(run_s, min(scaled), run_wall, min(walls), size,
                     attempted=1 + len(walls),
                     failed=run_failed + certify_failed, problems=problems)


@dataclass
class Pass:
    run_s: float  # scaled; equal to wall time in traced passes
    certify_s: float
    run_wall_s: float
    certify_wall_s: float
    attempted: int
    failed: int
    problems: list
    layers: Optional[dict] = None


def run_pass(cli, jobs, config_paths, work_dir, digests, tracer=None) -> Pass:
    """One pass over the jobs.  Untraced passes sample the processor's
    speed; traced ones do not, so the tracer times only the program."""
    results = []
    probe = SpeedProbe() if tracer is None else None
    with probe.sampling() if probe else contextlib.nullcontext():
        for job, path in zip(jobs, config_paths):
            expected = digests.get(job.key())
            result = run_job(cli, job, path, os.path.join(work_dir, job.name),
                             expected, tracer, probe)
            if tracer is not None:
                tracer.phase = "run"
                tracer.count("driver.report.bytes", result.report_bytes)
            results.append(result)
    return Pass(run_s=sum(r.run_s for r in results),
                certify_s=sum(r.certify_s for r in results),
                run_wall_s=sum(r.run_wall_s for r in results),
                certify_wall_s=sum(r.certify_wall_s for r in results),
                attempted=sum(r.attempted for r in results),
                failed=sum(r.failed for r in results),
                problems=[p for r in results for p in r.problems])


def layer_metrics(tracer, p: Pass) -> dict:
    """Per-layer numbers of one traced pass, by the suffix of each name."""
    run_only = ("run",)
    values = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = tracer.total(layer, "self")
        elif kind == "calls":
            values[name] = tracer.total(layer, "calls")
        elif kind in ("words_in", "words", "exhausted", "bytes"):
            values[name] = tracer.counter(name)
        elif kind == "share_of_run":
            values[name] = tracer.total(layer, "self", run_only) / p.run_s
    searches = values["evc.search.calls"]
    values.update({
        "evc.search.hit_ratio":
            (searches - values["evc.search.exhausted"]) / searches
            if searches else 0.0,
        "stepper.rounds": tracer.total("stepper.construct", "calls", run_only),
        "trace.run_s": p.run_s,
        "trace.certify_s": p.certify_s,
        # time inside the CLI spent in traced layers below it
        "trace.coverage": (tracer.total("cli", "total", run_only)
                           - tracer.total("cli", "self", run_only)) / p.run_s,
    })
    return values


# ---------------------------------------------------------------------------
# Set-up time and environment
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, directory: str) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported the
    CLI and generated and loaded the configs, once per probe, scaled to
    the reference processor speed."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    samples = []
    for i in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed),
             os.path.join(directory, f"probe{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        # both sides read the same monotonic clock
        ready, speed = map(float, done.stdout.split()[-2:])
        samples.append((ready - start) * speed)
    return samples


def environment(args) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "cocyclelab"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(values: list[float]) -> Optional[dict]:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"percentile": math.floor(100 * (n - 10) / n),
            "value": ordered[n - 11], "samples": n}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cocyclelab", "cli.py")):
        sys.stderr.write(f"no program to benchmark: {SRC}/cocyclelab is "
                         f"missing; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    from cocyclelab import cli
    import workloads
    from tracer import Tracer

    jobs = workloads.jobs_for(args.workload, args.seed)
    run_dir = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    config_paths = workloads.write_configs(jobs, os.path.join(run_dir, "configs"))
    digests = load_digests()
    work_dir = os.path.join(run_dir, "work")

    setup = measure_setup(args.workload, args.seed,
                          os.path.join(run_dir, "setup"))

    passes: list[Pass] = []
    untraced: list[Pass] = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        if tracer is None:
            passes.append(run_pass(cli, jobs, config_paths, work_dir, digests))
        else:
            untraced.append(run_pass(cli, jobs, config_paths, work_dir, digests))
            tracer.reset()
            tracer.pass_index = len(passes)
            tracer.install()
            try:
                p = run_pass(cli, jobs, config_paths, work_dir, digests, tracer)
            finally:
                tracer.uninstall()
            p.layers = layer_metrics(tracer, p)
            passes.append(p)
        # stop once less than half a pass remains: the next one would
        # overrun the deadline by more than it fills before it
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 >= args.seconds:
            break

    every = passes + untraced
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    for problem in dict.fromkeys(q for p in every for q in p.problems):
        sys.stderr.write(f"FAILED {problem}\n")

    run_samples = [p.run_s for p in passes]
    certify_samples = [p.certify_s for p in passes]
    if tracer is None:
        values = {
            "run_s": statistics.median(run_samples),
            "certify_s": statistics.median(certify_samples),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        values = {name: statistics.median(p.layers[name] for p in passes)
                  for name in passes[0].layers}
        # wall against wall: traced passes are not speed-scaled
        values["trace.overhead_s"] = (
            statistics.median(p.run_wall_s for p in passes)
            - statistics.median(p.run_wall_s for p in untraced))
        values["trace.error_rate"] = sum(p.failed for p in passes) / \
            sum(p.attempted for p in passes)
        units = PER_LAYER
        tracer.write_spans(os.path.join(run_dir, "spans.jsonl"))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    detail = {
        "environment": environment(args),
        "jobs": [{"name": j.name, "command": j.command, "config_key": j.key()}
                 for j in jobs],
        "samples": {"run_s": run_samples, "certify_s": certify_samples,
                    "setup_s": setup,
                    "wall_run_s": [p.run_wall_s for p in passes],
                    "wall_certify_s": [p.certify_wall_s for p in passes],
                    "untraced_wall_run_s": [p.run_wall_s for p in untraced]},
        "tails": {"run_s": tail(run_samples),
                  "certify_s": tail(certify_samples)},
        "error_rate": failed / attempted,
        "metrics": metrics,
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  env {json.dumps(detail['environment'])}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name in ("run_s", "certify_s"):
        samples = detail["samples"][name]
        t = detail["tails"][name]
        extra = (f"p{t['percentile']} {t['value']:.6g} s" if t
                 else "no percentile has ten samples above it")
        wall = statistics.median(detail["samples"][f"wall_{name}"])
        print(f"  {name} over {len(samples)} passes: median "
              f"{statistics.median(samples):.6g} s, {extra}; "
              f"unscaled wall median {wall:.6g} s")
    print(f"  {'error_rate':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
