"""Command line front end.

Subcommands: `step` runs a single construction step from a config's
first scheduled triple; `run` and `run-infinite` drive the fixed-family
and enumerated-stream recursions; `bounded` and `norm-bounded` add the
compact-range and norm-bound certificates; `certify` re-validates a
stored report; `export` writes CSV artifacts.

Configs are YAML files or built-in preset names.  The pipeline is
deterministic by construction; `--seedless` is accepted for symmetry and
changes nothing.  Errors exit nonzero with a machine-readable record on
stderr: exit 2 for configuration problems, 1 for everything else,
including failed certification (which names the violated clause).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import yaml

from .driver import (PRESETS, PipelineConfig, Schedule, bounded_cocycle_pipeline,
                     certify_report, export_report, initial_function,
                     load_report, norm_bounded_pipeline, round_eps,
                     run_theorem_02i, run_theorem_02ii, step_input)
from .errors import CocycleLabError, ConfigError
from .stepper import construct_step


# libyaml's parser when PyYAML was built with it; the same mappings
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_config(text: str, rounds: Optional[int],
                 depth: Optional[int]) -> PipelineConfig:
    if os.path.exists(text):
        with open(text) as fh:
            try:
                raw = yaml.load(fh, Loader=YAML_LOADER)
            except yaml.YAMLError as exc:
                raise ConfigError(f"{text} is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{text} does not hold a mapping")
    elif text in PRESETS:
        raw = dict(PRESETS[text])
    else:
        raise ConfigError(
            f"{text!r} is neither a file nor a preset "
            f"(presets: {', '.join(sorted(PRESETS))})")
    if rounds is not None:
        raw = {**raw, "rounds": rounds}
    if depth is not None:
        raw = {**raw, "depth_budget": depth}
    return PipelineConfig.from_mapping(raw)


def _cmd_step(args) -> int:
    config = _load_config(args.config, None, args.depth)
    model = config.build_model()
    mu = config.build_measure()
    action = config.build_action(1)
    triple = Schedule.from_config(config).round_triple(0)
    eps, _ = round_eps(config, model, mu, triple, ())
    inp = step_input(config, model, mu, action, triple,
                     initial_function(config, model), config.start_level, eps)
    out = construct_step(inp)
    checks = out.check.validator_certificates()
    record = {
        "triple": triple.to_mapping(),
        "level": config.start_level,
        "refined_level": out.m,
        "working_depth": out.f_tilde.depth,
        "eps": str(eps),
        "delta": str(out.delta),
        "conjugate": model.format(out.h),
        "certificates": [c.to_mapping() for c in out.certificates],
        "validator": [c.to_mapping() for c in checks],
    }
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    ok = all(c.ok for c in out.certificates) and all(c.ok for c in checks)
    return 0 if ok else 1


def _cmd_run(args, pipeline) -> int:
    """Run a pipeline; name the report it wrote to --out, or print it."""
    config = _load_config(args.config, args.rounds, args.depth)
    # only `run` and `run-infinite` take --resume
    options = {"resume": args.resume} if "resume" in args else {}
    report = pipeline(config, out_dir=args.out, **options)
    if args.out:
        print(f"report written to {os.path.join(args.out, 'report.jsonl')}")
    else:
        sys.stdout.write(report.text())
    return 0


def _cmd_certify(args) -> int:
    records = load_report(args.report)
    failures = certify_report(records)
    if failures:
        for f in failures:
            sys.stderr.write(json.dumps(f, sort_keys=True) + "\n")
        return 1
    print(json.dumps({"ok": True, "records": len(records)}))
    return 0


def _cmd_export(args) -> int:
    records = load_report(args.report)
    written = export_report(records, args.out or ".")
    for path in written:
        print(path)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cocyclelab",
        description="exact-arithmetic construction and certification of "
                    "bounded cocycles over the dyadic tail relation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="YAML config path or preset name")
        p.add_argument("--depth", type=int, default=None,
                       help="depth budget override")
        p.add_argument("--seedless", action="store_true",
                       help="no-op; runs are deterministic already")

    def add_pipeline(p):
        # the commands that run rounds and write their report under --out
        add_common(p)
        p.add_argument("--rounds", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p_step = sub.add_parser("step", help="run one construction step")
    add_common(p_step)

    p_run = sub.add_parser("run", help="finitely generated recursion")
    add_pipeline(p_run)
    p_run.add_argument("--resume", action="store_true",
                       help="resume from a checkpoint in --out")

    p_inf = sub.add_parser("run-infinite", help="enumerated-stream recursion")
    add_pipeline(p_inf)
    p_inf.add_argument("--resume", action="store_true")

    p_bnd = sub.add_parser("bounded", help="recursion plus compact-range certificate")
    add_pipeline(p_bnd)

    p_norm = sub.add_parser("norm-bounded", help="recursion plus norm bound")
    add_pipeline(p_norm)

    p_cert = sub.add_parser("certify", help="re-validate a stored report")
    p_cert.add_argument("report", help="path to a report.jsonl")

    p_exp = sub.add_parser("export", help="write CSV artifacts from a report")
    p_exp.add_argument("report", help="path to a report.jsonl")
    p_exp.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "step":
            return _cmd_step(args)
        if args.command == "run":
            return _cmd_run(args, run_theorem_02i)
        if args.command == "run-infinite":
            return _cmd_run(args, run_theorem_02ii)
        if args.command == "bounded":
            return _cmd_run(args, bounded_cocycle_pipeline)
        if args.command == "norm-bounded":
            return _cmd_run(args, norm_bounded_pipeline)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "export":
            return _cmd_export(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        sys.stderr.write(json.dumps(exc.record(), sort_keys=True) + "\n")
        return 2
    except CocycleLabError as exc:
        sys.stderr.write(json.dumps(exc.record(), sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
