"""Seeded workload configs for the cocyclelab benchmark.

Each workload is a list of jobs.  A job is one construction command of
the public CLI (`run`, `run-infinite` or `norm-bounded`) on one config,
followed by `certify` on the report it wrote.  The seed picks one
variant of every job's config; the program sees only the YAML file the
generator writes, never the seed.

Variants are finite lists built from the shipped presets, with the
preset itself first, so seed 0 reproduces the presets exactly.  For a
workload with several jobs the seed is read in mixed radix: the first
job's variant is ``seed % len(first)``, the next job's is taken from
``seed // len(first)``, and so on.

The preset mappings are copied here, not read from the program, so a
change to the program's presets cannot change the benchmark's inputs;
the self-test checks that the copies still equal the shipped presets.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass

import yaml

PRESETS: dict[str, dict] = {
    "z2-flips": {
        "name": "z2-flips",
        "group": {"kind": "cyclic", "order": 2},
        "measure": {"kind": "uniform"},
        "action": {"kind": "flips", "coords": [1, 2]},
        "family": ["1"],
        "bases": ["", "0", "1"],
        "u_indices": [1],
        "rounds": 6,
    },
    "z3-flips": {
        "name": "z3-flips",
        "group": {"kind": "cyclic", "order": 3},
        "measure": {"kind": "uniform"},
        "action": {"kind": "flips", "coords": [1, 2]},
        "family": ["1", "2"],
        "bases": ["", "0", "1"],
        "u_indices": [1],
        "rounds": 6,
    },
    "z2-adding": {
        "name": "z2-adding",
        "group": {"kind": "cyclic", "order": 2},
        "measure": {"kind": "uniform"},
        "action": {"kind": "adding-machine", "depth": 12},
        "family": ["1"],
        "bases": [""],
        "u_indices": [1],
        "rounds": 1,
    },
    "z2-flip-stream": {
        "name": "z2-flip-stream",
        "group": {"kind": "cyclic", "order": 2},
        "measure": {"kind": "uniform"},
        "action": {"kind": "flip-stream"},
        "family": ["1"],
        "bases": ["", "0"],
        "u_indices": [1],
        "rounds": 4,
    },
    "sum-z": {
        "name": "sum-z",
        "group": {"kind": "direct-sum-z", "generator_span": 2},
        "measure": {"kind": "uniform"},
        "action": {"kind": "flips", "coords": [1, 2]},
        "family": ["1", "-1", "0/1", "0/-1"],
        "bases": ["", "0"],
        "u_indices": [1],
        "rounds": 3,
    },
}

# z2-flips over S3 with a period-2 nonuniform measure: six group
# elements for the connectivity ladder, unequal cylinder masses for the
# exchange involution
S3_FLIPS: dict = {
    **PRESETS["z2-flips"],
    "name": "s3-flips",
    "group": {"kind": "symmetric", "n": 3},
    "measure": {"kind": "schedule", "cycle": [["1/2", "1/2"], ["1/3", "2/3"]]},
    "family": ["t01"],
    "rounds": 4,
}


@dataclass(frozen=True)
class Job:
    """One construction command and the certify call that follows it."""

    name: str
    command: str
    config: dict

    def key(self) -> str:
        """Digest of the config; indexes the recorded report digests."""
        text = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def yaml_text(self) -> str:
        return yaml.safe_dump(self.config, sort_keys=True)


def _permutations(values: list) -> list[list]:
    return [list(p) for p in itertools.permutations(values)]


def _reordered(name: str) -> list[dict]:
    """The preset with its bases and its family in every order."""
    preset = PRESETS[name]
    return [{**preset, "bases": bases, "family": family}
            for bases in _permutations(preset["bases"])
            for family in _permutations(preset["family"])]


def _adding_variants() -> list[dict]:
    # the preset only: base "0" or "1" changes certify time by 10-33 %
    return [dict(PRESETS["z2-adding"])]


def _evc_variants() -> list[dict]:
    """sum-z with its two candidate pairs (1, -1) and (0/1, 0/-1) in
    either order, each pair in either order, and "0" or "1" as the second
    base.  Keeping a pair adjacent at the front keeps the schedule's three
    rounds on one pair, so the sweep's searches for the other pair fail
    down to the depth budget, which is what this workload measures; an
    order that splits the pairs schedules both and finishes in 0.1 s."""
    preset = PRESETS["sum-z"]
    pairs = (preset["family"][:2], preset["family"][2:])
    orders = [a + b for first, then in (pairs, pairs[::-1])
              for a in _permutations(first) for b in _permutations(then)]
    return [{**preset, "family": family, "bases": ["", second]}
            for second in ("0", "1") for family in orders]


def _s3_variants() -> list[dict]:
    return [{**S3_FLIPS, "bases": bases}
            for bases in _permutations(S3_FLIPS["bases"])]


# workload -> [(job name, command, variants)]; variant 0 is the preset
WORKLOADS: dict[str, list[tuple[str, str, list[dict]]]] = {
    "adding": [("z2-adding", "run", _adding_variants())],
    "evc-sweep": [("sum-z", "norm-bounded", _evc_variants())],
    "rounds": [
        ("z2-flips", "run", _reordered("z2-flips")),
        ("z3-flips", "run", _reordered("z3-flips")),
        ("z2-flip-stream", "run-infinite", _reordered("z2-flip-stream")),
        ("s3-flips", "run", _s3_variants()),
    ],
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass of `workload` under `seed`."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r} "
                       f"(workloads: {', '.join(WORKLOADS)})")
    if seed < 0:
        raise ValueError("the seed must be a non-negative integer")
    jobs = []
    rest = seed
    for name, command, variants in WORKLOADS[workload]:
        rest, index = divmod(rest, len(variants))
        jobs.append(Job(name, command, variants[index]))
    return jobs


def all_jobs(workload: str) -> list[Job]:
    """Every job any seed can produce for `workload`, without repeats."""
    return [Job(name, command, config)
            for name, command, variants in WORKLOADS[workload]
            for config in variants]


def write_configs(jobs: list[Job], directory: str) -> list[str]:
    """Write one YAML file per job; returns the paths in job order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for job in jobs:
        path = os.path.join(directory, f"{job.name}.yaml")
        with open(path, "w") as fh:
            fh.write(job.yaml_text())
        paths.append(path)
    return paths
