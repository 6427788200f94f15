"""Record the expected output of every config the generator can produce.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs each distinct job of the named workloads (all by default) once,
untraced, and writes its report's sha256 and the verdict `certify`
printed into ``perfbench/digests.json``, keyed by the config's digest.
Entries of other workloads are kept; entries no seed can reach are
dropped.  The benchmark fails any operation
whose output differs from these records, so rerun this only when a
change to the reports is intended (reports are otherwise byte-identical
by contract).  Prints each job's wall times as it goes.
"""
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from cocyclelab import cli  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main(names: list[str]) -> int:
    digests = run.load_digests() if os.path.exists(run.DIGESTS) else {}
    scratch = os.path.join(run.OUT_DIR, "record")
    shutil.rmtree(scratch, ignore_errors=True)
    status = 0
    for workload in names or list(workloads.WORKLOADS):
        for job in workloads.all_jobs(workload):
            path = workloads.write_configs([job], scratch)[0]
            work = os.path.join(scratch, "work")
            shutil.rmtree(work, ignore_errors=True)
            report = os.path.join(work, "report.jsonl")
            run_s, code, _, err = run.call_cli(
                cli, [job.command, "--config", path, "--out", work])
            certify_s, code2, out, err2 = run.call_cli(cli, ["certify", report])
            if code != 0 or code2 != 0:
                sys.stderr.write(f"{workload} {job.name} {job.key()}: exit "
                                 f"{code}/{code2}\n{err}{err2}\n")
                status = 1
                continue
            digests[job.key()] = {
                "workload": workload,
                "job": job.name,
                "bases": job.config["bases"],
                "family": job.config["family"],
                "report_sha256": run.sha256_file(report),
                "certify": json.loads(out.strip().splitlines()[-1]),
            }
            print(f"{workload:10s} {job.name:15s} {job.key()[:12]} "
                  f"run {run_s:8.3f} s  certify {certify_s:7.3f} s  "
                  f"bases {job.config['bases']} family {job.config['family']}",
                  flush=True)
            with open(run.DIGESTS, "w") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
    shutil.rmtree(scratch, ignore_errors=True)
    reachable = {job.key() for w in workloads.WORKLOADS
                 for job in workloads.all_jobs(w)}
    with open(run.DIGESTS, "w") as fh:
        json.dump({k: v for k, v in digests.items() if k in reachable}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
