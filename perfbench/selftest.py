"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Checks that:
  1. every metric name, in BENCHMARK.json and in run.py, uses only
     [A-Za-z0-9_.-], and that BENCHMARK.json declares exactly the
     metrics and workloads run.py and workloads.py produce;
  2. the config generator is deterministic for each seed, that seed 0
     reproduces the shipped presets, and that every config any seed can
     produce has a recorded digest;
  3. every traced function records at least one call on some workload,
     so a renamed function fails here instead of reporting zero; the
     traced passes must also reproduce the recorded report digests
     (tracing may not change a report);
  4. uninstalling the tracer restores every original function.

Takes about a minute: it runs one traced pass of each workload.
"""
from __future__ import annotations

import json
import os
import re
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEEDS = range(200)


def check_names(errors: list) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "workloads": [w["name"] for w in spec["workloads"]],
    }
    produced = {
        "end_to_end": list(run.END_TO_END),
        "per_layer": list(run.PER_LAYER),
        "workloads": list(workloads.WORKLOADS),
    }
    for kind in declared:
        for name in declared[kind] + produced[kind]:
            if not NAME.match(name):
                errors.append(f"{kind} name {name!r} is not [A-Za-z0-9_.-]")
        if declared[kind] != produced[kind]:
            errors.append(f"BENCHMARK.json {kind} {declared[kind]} differ "
                          f"from the code's {produced[kind]}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        if units.get(name, unit) != unit:
            errors.append(f"unit of {name}: {units[name]} in BENCHMARK.json, "
                          f"{unit} in run.py")


def check_generator(errors: list) -> None:
    from cocyclelab.driver import PRESETS
    for name, preset in workloads.PRESETS.items():
        if PRESETS.get(name) != preset:
            errors.append(f"preset {name} no longer matches the program's")
    digests = run.load_digests()
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs_for(workload, 0):
            if job.name in PRESETS and job.config != PRESETS[job.name]:
                errors.append(f"{workload}: seed 0 does not reproduce {job.name}")
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as a, \
                    tempfile.TemporaryDirectory(dir=run.OUT_DIR) as b:
                first = workloads.write_configs(workloads.jobs_for(workload, seed), a)
                second = workloads.write_configs(workloads.jobs_for(workload, seed), b)
                for p, q in zip(first, second):
                    with open(p) as fp, open(q) as fq:
                        if fp.read() != fq.read():
                            errors.append(f"{workload} seed {seed}: {p} differs")
        for job in workloads.all_jobs(workload):
            if job.key() not in digests:
                errors.append(f"{workload}: no recorded digest for {job.name} "
                              f"{job.config['bases']} {job.config['family']}")


def check_tracing(errors: list) -> None:
    from cocyclelab import cli
    t = tracer.Tracer()
    t.install()
    patched = list(t._patches)
    t.uninstall()
    for owner, attr, original in patched:
        if vars(owner)[attr] is not original:
            errors.append(f"uninstall left {owner!r}.{attr} wrapped")

    digests = run.load_digests()
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for workload in workloads.WORKLOADS:
            jobs = workloads.jobs_for(workload, 0)
            paths = workloads.write_configs(jobs, os.path.join(tmp, workload))
            t.install()
            try:
                p = run.run_pass(cli, jobs, paths, os.path.join(tmp, "work"),
                                 digests, t)
            finally:
                t.uninstall()
            for problem in p.problems:
                errors.append(f"traced {workload}: {problem}")
            print(f"traced pass of {workload}: {p.run_s:.2f} s run, "
                  f"{p.certify_s:.2f} s certify, {p.failed} failed", flush=True)
    for layer, module, owner, attr, _ in tracer.TRACED:
        target = tracer.target_name(module, owner, attr)
        if not t.target_calls.get(target):
            errors.append(f"{target} ({layer}) recorded no call on any workload")
    for layer, module, base, attr in tracer.COUNTED:
        if not any(k.startswith(f"{module}.") and k.endswith(f".{attr}")
                   and v for k, v in t.target_calls.items()):
            errors.append(f"{layer} recorded no call on any workload")


def main() -> int:
    errors: list[str] = []
    os.makedirs(run.OUT_DIR, exist_ok=True)
    check_names(errors)
    check_generator(errors)
    check_tracing(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
