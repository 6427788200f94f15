"""Set-up probe: one fresh process doing what a run does before its
first timed call.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY

Imports the CLI, writes the workload's configs for SEED into DIRECTORY,
loads each back as the CLI would, and prints two numbers on its last
line: the monotonic clock (`time.perf_counter`) when it is ready, which
`run.py` subtracts the moment it spawned the process from, and the
processor speed sampled meanwhile (see speed.py).
"""
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from speed import SpeedProbe  # noqa: E402


def main(workload: str, seed: int, directory: str) -> None:
    probe = SpeedProbe()
    with probe.sampling():
        import yaml

        import cocyclelab.cli  # noqa: F401
        from cocyclelab.driver import PipelineConfig

        import workloads
        paths = workloads.write_configs(workloads.jobs_for(workload, seed),
                                        directory)
        for path in paths:
            with open(path) as fh:
                PipelineConfig.from_mapping(yaml.safe_load(fh))
        ready = time.perf_counter()
    print(ready, probe.speed())


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
