"""Multi-round recursion driving the construction step over a schedule.

A run starts from the constant-identity step function and repeatedly
applies the single construction step to scheduled (base set, candidate,
neighborhood) triples, with a tolerance schedule that strictly halves,
respects the admission rule of the step, and never exceeds the
robustness reserve of the witnesses already stored.  Each round records
the step's certificate bundle, the independent validator's verdict, and
an essential-value witness check; the terminal report adds a value
boundedness certificate, essential-value sweeps over the scheduled
triples, the skew-product connectivity ladder with its trivial control,
a stabilization ledger, and exact distance bounds from each round's
increments to the terminal ones.

Reports are line-delimited JSON with all rationals rendered exactly and
keys sorted, so identical configurations produce byte-identical output.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .cocycles import (KERNEL_EXPORT_DEPTH, StepFunction, coboundary_increment,
                       cocycle_distance, increment_agreement,
                       increments_within, kernel_csv)
from .errors import (CocycleLabError, ConfigError, DepthMismatch,
                     MalformedInput, SearchExhausted)
from .evc import (check_evc, delta_for, essential_value_certificate,
                  skew_connectivity, target_set, within_skew_budget)
from .groups import (GroupModel, closure_norm_bound, conjugate_closure,
                     model_from_config)
from .measure import ZERO, CylinderSet, ProductMeasure, all_words
from .odometer import (FiniteDepthMap, GammaAction, adding_machine_action,
                       coordinate_flip, flip_action)
from .stepper import (StepArtifacts, StepCheck, StepInput, admission_bound,
                      construct_step, discard_set, image_safe_tolerance,
                      overflow_hull, select_core_and_conjugate,
                      validate_step_output)

SCHEDULE_SHRINK = Fraction(7, 8)  # makes the halving strict

_REQUIRED = object()  # `PipelineConfig.from_mapping`: a key with no default


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of a run; see PRESETS for examples."""

    group: Mapping
    measure: Mapping
    action: Mapping
    family: tuple[str, ...]
    bases: tuple[tuple[str, ...], ...]
    u_indices: tuple[int, ...]
    rounds: int
    depth_budget: int = 14
    start_level: int = 1
    eps_start: Optional[str] = None  # reduced fraction text: 0.01 is "1/100"
    name: str = "run"

    @staticmethod
    def from_mapping(raw: Mapping) -> "PipelineConfig":
        """The config a mapping describes.  Its model, measure and action
        are built once here, so that a value of the wrong type or form
        fails now as a :class:`ConfigError` naming it (a word or element
        label that does not parse stays :class:`MalformedInput`)."""
        def read(key: str, convert: Callable, default=_REQUIRED):
            if default is _REQUIRED and key not in raw:
                raise ConfigError(f"missing config key: {key}")
            value = raw.get(key, default)
            try:
                return convert(value)
            except MalformedInput:
                raise
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"config key {key!r} cannot take {value!r} "
                                  f"({type(exc).__name__}: {exc})") from None

        def word_tuples(entries) -> tuple:
            return tuple((e,) if isinstance(e, str) else tuple(str(w) for w in e)
                         for e in entries)

        config = PipelineConfig(
            group=read("group", dict),
            measure=read("measure", dict, {"kind": "uniform"}),
            action=read("action", dict),
            family=read("family", lambda v: tuple(str(h) for h in v)),
            bases=read("bases", word_tuples, [""]),
            u_indices=read("u_indices", lambda v: tuple(int(k) for k in v), [1]),
            rounds=read("rounds", int, 1),
            depth_budget=read("depth_budget", int, 14),
            start_level=read("start_level", int, 1),
            eps_start=read("eps_start", lambda v: v if v is None
                           else str(Fraction(str(v))), None),
            name=read("name", str, "run"),
        )
        read("group", lambda _: config.build_model())
        read("measure", lambda _: config.build_measure(), None)
        read("action", lambda _: config.build_action())
        return config

    def to_mapping(self) -> dict:
        return {
            "group": dict(self.group),
            "measure": dict(self.measure),
            "action": dict(self.action),
            "family": list(self.family),
            "bases": [list(b) for b in self.bases],
            "u_indices": list(self.u_indices),
            "rounds": self.rounds,
            "depth_budget": self.depth_budget,
            "start_level": self.start_level,
            "eps_start": self.eps_start,
            "name": self.name,
        }

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_mapping(), sort_keys=True).encode()).hexdigest()

    def build_model(self) -> GroupModel:
        return model_from_config(self.group)

    def build_measure(self) -> ProductMeasure:
        kind = self.measure.get("kind", "uniform")
        if kind == "uniform":
            return ProductMeasure.uniform()
        if kind == "iid":
            return ProductMeasure.iid(Fraction(str(self.measure["p0"])))
        if kind == "schedule":
            head = [tuple(Fraction(str(x)) for x in p)
                    for p in self.measure.get("head", [])]
            cycle = [tuple(Fraction(str(x)) for x in p)
                     for p in self.measure["cycle"]]
            return ProductMeasure.from_schedule(head, cycle)
        raise ConfigError(f"unknown measure kind {kind!r}")

    def build_action(self, round_index: Optional[int] = None) -> GammaAction:
        kind = self.action.get("kind")
        if kind == "adding-machine":
            return adding_machine_action(int(self.action.get("depth", 12)))
        if kind == "flips":
            return flip_action(tuple(int(c) for c in self.action["coords"]))
        if kind == "flip-stream":
            # enumerated generator branch: round n sees the first n flips
            if round_index is None:
                round_index = self.rounds
            return flip_action(tuple(range(1, max(round_index, 1) + 1)))
        raise ConfigError(f"unknown action kind {kind!r}")

    @property
    def enumerated(self) -> bool:
        return self.action.get("kind") == "flip-stream"


PRESETS: dict[str, dict] = {
    # coordinate flips keep every refinement level one step above the
    # previous working depth, so six rounds fit far inside depth 14
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
    # one adding-machine round; the truncated odometer's overflow mass
    # floors at its declared depth, which caps how many rounds fit
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
    "sum-z-wide": {
        "name": "sum-z-wide",
        "group": {"kind": "direct-sum-z", "generator_span": 2},
        "measure": {"kind": "uniform"},
        "action": {"kind": "flips", "coords": [1, 2]},
        "family": ["5", "-5", "0/5", "0/-5"],
        "bases": [""],
        "u_indices": [1],
        "rounds": 2,
    },
}


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Triple:
    base_words: tuple[str, ...]
    candidate: str
    u_index: int

    def base(self) -> CylinderSet:
        return CylinderSet.of(self.base_words)

    def label(self) -> str:
        words = "+".join(self.base_words) or "X"
        return f"({words}, {self.candidate}, U{self.u_index})"

    def to_mapping(self) -> dict:
        return {"base": list(self.base_words), "candidate": self.candidate,
                "u_index": self.u_index}


@dataclass(frozen=True)
class Schedule:
    """Prefix-block enumeration of the base triple list: the flattened
    sequence of its prefixes, so the k-th base triple occurs in every
    block from the k-th on and hence infinitely often in the idealized
    extension."""

    triples: tuple[Triple, ...]

    @staticmethod
    def from_config(config: PipelineConfig) -> "Schedule":
        base = [Triple(words, g, u)
                for words in config.bases
                for g in config.family
                for u in config.u_indices]
        if not base:
            raise ConfigError("the schedule needs at least one triple")
        return Schedule(tuple(base))

    def round_triple(self, index: int) -> Triple:
        """Triple for 0-based round `index` of the flattened sequence."""
        block = 1
        pos = index
        while True:
            size = min(block, len(self.triples))
            if pos < size:
                return self.triples[pos]
            pos -= size
            block += 1

    def next_occurrence(self, triple: Triple, after: int) -> int:
        pos = after + 1
        while True:
            if self.round_triple(pos) == triple:
                return pos
            pos += 1

    def recurrence_record(self, executed: int) -> dict:
        seen = []
        for i in range(executed):
            t = self.round_triple(i)
            if t not in seen:
                seen.append(t)
        return {
            "record": "recurrence",
            "executed": executed,
            "distinct": [t.label() for t in seen],
            "next_occurrence": {
                t.label(): self.next_occurrence(t, executed - 1) for t in seen},
        }


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def _function_table(f: StepFunction) -> dict:
    return dict(zip(all_words(f.depth), map(f.model.format, f.values)))


def _parse_table(model: GroupModel, table: Mapping[str, str]) -> StepFunction:
    """The step function a stored table renders (see `_function_table`);
    its depth is the length of its words."""
    if not isinstance(table, Mapping) or not all(
            isinstance(v, str) for v in table.values()):
        raise MalformedInput("a function table must map words to label text")
    parsed = {w: model.parse(v) for w, v in table.items()}
    try:
        return StepFunction.from_table(model, parsed)
    except DepthMismatch as exc:
        raise MalformedInput(f"a function table must hold the words of one "
                             f"depth ({exc})") from None


@dataclass(frozen=True)
class RunReport:
    records: tuple[dict, ...]

    def lines(self) -> list[str]:
        return [json.dumps(r, sort_keys=True, separators=(",", ":"))
                for r in self.records]

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.text())

    def by_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r.get("record") == kind]


def _reads_report(read: Callable) -> Callable:
    """`read`, failing with :class:`MalformedInput` where a report lacks
    a field or holds one of the wrong form or type, as
    `PipelineConfig.from_mapping` does for configs; the report boundary
    is the loader and the two readers of loaded records."""
    @functools.wraps(read)
    def reading(*args, **kwargs):
        try:
            return read(*args, **kwargs)
        except MalformedInput:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise MalformedInput(f"the report is malformed "
                                 f"({type(exc).__name__}: {exc})") from None
    return reading


@_reads_report
def load_report(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# The recursion
# ---------------------------------------------------------------------------

def _closure(config: PipelineConfig, model: GroupModel) -> tuple:
    """The conjugate closure of the config's value family."""
    return conjugate_closure(model, tuple(model.parse(h) for h in config.family))


def _header(config: PipelineConfig, model: GroupModel, closure: tuple) -> dict:
    """The report's first record."""
    return {
        "record": "header",
        "format": 1,
        "config": config.to_mapping(),
        "config_digest": config.digest(),
        "schedule": [t.to_mapping() for t in Schedule.from_config(config).triples],
        "closure": sorted(model.format(h) for h in closure),
    }


def initial_function(config: PipelineConfig,
                     model: GroupModel) -> StepFunction:
    """The constant-identity step function a run starts from."""
    level = max(config.start_level, 1)
    return StepFunction(model, level, (model.identity(),) * (1 << level))


def round_eps(config: PipelineConfig, model: GroupModel, mu: ProductMeasure,
              triple: Triple, rounds: Sequence[dict]) -> tuple[Fraction, dict]:
    """A round's tolerance and its rule, from the round records before it.

    The first round takes the admission bound, or the configured
    ``eps_start`` when that is smaller.  A later round takes
    SCHEDULE_SHRINK times the least of half the previous tolerance, the
    admission bound and the least witness reserve stored so far."""
    _, cover = delta_for(model, model.parse(triple.candidate), triple.u_index)
    admission = admission_bound(triple.base().measure(mu), cover.number)
    if not rounds:
        eps = admission
        if config.eps_start is not None:
            eps = min(Fraction(config.eps_start), admission)
        return eps, {"admission": _frac(admission), "chosen": _frac(eps)}
    candidates = {
        "previous_half": Fraction(rounds[-1]["eps"]) / 2,
        "admission": admission,
        "min_reserve": min(Fraction(r["witness"]["reserve"]) for r in rounds),
    }
    eps = SCHEDULE_SHRINK * min(candidates.values())
    rule = {k: _frac(v) for k, v in candidates.items()}
    rule["shrink"] = _frac(SCHEDULE_SHRINK)
    rule["chosen"] = _frac(eps)
    return eps, rule


def _change_sets(action: GammaAction, agreement: Mapping[str, CylinderSet]
                 ) -> dict[tuple[str, ...], CylinderSet]:
    """Each generator group's change set: where the increment of some
    generator in the group changed, from the per-generator agreement sets."""
    change_sets = {}
    for labels in action.inverse_groups():
        agree = CylinderSet.full()
        for label in labels:
            agree = agree.intersection(agreement[label])
        change_sets[labels] = agree.complement()
    return change_sets


def _checked_fields(inp: StepInput, rule: dict, check: StepCheck,
                    f_tilde: StepFunction, closure: tuple,
                    changes: Mapping[tuple[str, ...], CylinderSet],
                    z0: CylinderSet, b_set: CylinderSet
                    ) -> dict[tuple[Optional[str], str], object]:
    """The round record's fields that the round's input, its tolerance
    rule, the step check, the update, the selected set z0 and the
    discard set determine, keyed by (section, field), section None being
    the record itself and ``certificates`` its list keyed by clause; a
    run writes them and certify compares them."""
    verdicts = check.verdicts()
    fields = {
        (None, "level"): inp.n,
        (None, "working_depth"): f_tilde.depth,
        (None, "eps"): rule["chosen"],
        (None, "eps_rule"): rule,
        (None, "eps_prime"): _frac(image_safe_tolerance(inp.action, inp.mu,
                                                        inp.eps)),
        (None, "admission"): check.admission().to_mapping(),
        (None, "validator"): [c.to_mapping()
                              for c in check.validator_certificates()],
        ("conditions", "inner"): verdicts["inner"],
        ("conditions", "agreement"): _frac(check.agreement_mass),
        ("conditions", "agreement_ok"): verdicts["agreement"],
        ("conditions", "distance"): _frac(check.distance),
        ("conditions", "distance_ok"): verdicts["distance"],
        ("conditions", "evc_witness_ok"): check.witness.ok,
        ("conditions", "incremental"):
            increments_within(f_tilde, inp.action, closure),
        ("conditions", "finite_values"): len(f_tilde.value_set()),
        ("witness", "measure_slack"): _frac(check.witness.measure_slack),
        ("witness", "reserve"): _frac(check.witness_reserve),
        ("artifacts", "core_mass"): _frac(check.core_mass),
        ("artifacts", "change_mass"): {"+".join(k): _frac(v.measure(inp.mu))
                                       for k, v in changes.items()},
        ("artifacts", "z0"): list(z0.words),
        ("artifacts", "b_set"): list(b_set.words),
    }
    for c in check.step_certificates():
        fields["certificates", c.clause] = c.to_mapping()
    return fields


def step_input(config: PipelineConfig, model: GroupModel, mu: ProductMeasure,
               action: GammaAction, triple: Triple, f: StepFunction, n: int,
               eps: Fraction) -> StepInput:
    """The construction step's input for a scheduled round."""
    return StepInput(f=f, n=n, action=action,
                     family=tuple(model.parse(h) for h in config.family),
                     target=triple.base(),
                     candidate=model.parse(triple.candidate),
                     u_index=triple.u_index, eps=eps, mu=mu,
                     depth_budget=config.depth_budget)


def _replay_rounds(config: PipelineConfig, model: GroupModel,
                   records: Sequence[dict]
                   ) -> tuple[list[StepFunction], list[Fraction], int]:
    """Rebuild the round loop's state from its round records: the step
    functions (the initial one first), the tolerances and the current
    level."""
    rounds = [r for r in records if r.get("record") == "round"]
    functions = [initial_function(config, model)]
    functions += [_parse_table(model, r["artifacts"]["f"]) for r in rounds]
    eps_history = [Fraction(r["eps"]) for r in rounds]
    level = rounds[-1]["refined_level"] if rounds else config.start_level
    return functions, eps_history, level


def _run_recursion(config: PipelineConfig,
                   out_dir: Optional[str] = None,
                   resume: bool = False,
                   closing: Optional[Callable] = None) -> RunReport:
    """Run the rounds and the terminal records; `closing`, if given, is
    one of the CLOSING builders and adds one more record.  With `out_dir`
    each round is checkpointed and the finished report written there."""
    model = config.build_model()
    mu = config.build_measure()
    schedule = Schedule.from_config(config)
    closure = _closure(config, model)

    records = [_header(config, model, closure)]
    if resume and out_dir:
        records = _load_checkpoint(config, out_dir) or records
    functions, eps_history, n = _replay_rounds(config, model, records)
    # per round, each generator group's change set; a resumed run
    # rebuilds those of its replayed rounds
    change_history = []
    for t in range(1, len(functions)):
        action = config.build_action(t)
        change_history.append(_change_sets(action, increment_agreement(
            functions[t - 1], functions[t], action)))

    for t in range(len(eps_history), config.rounds):
        action = config.build_action(t + 1)
        triple = schedule.round_triple(t)
        eps, rule = round_eps(config, model, mu, triple,
                              [r for r in records if r["record"] == "round"])
        if eps <= 0:
            raise ConfigError(f"round {t + 1}: tolerance collapsed to {eps}")

        inp = step_input(config, model, mu, action, triple, functions[-1], n,
                         eps)
        out = construct_step(inp)
        check = out.check

        targets = target_set(model, inp.candidate, triple.u_index)
        try:
            fresh = check_evc(out.f_tilde, triple.base(), targets,
                              out.delta, mu, search_depth=config.depth_budget)
            fresh_rec = {"ok": True, "mass": _frac(fresh.part.measure(mu)),
                         "measure_slack": _frac(fresh.measure_slack)}
        except SearchExhausted as exc:
            fresh_rec = {"ok": False, "failure": str(exc)}

        changes = _change_sets(action, check.agreement)
        change_history.append(changes)
        eps_history.append(eps)
        functions.append(out.f_tilde)

        record = {
            "record": "round",
            "round": t + 1,
            "triple": triple.to_mapping(),
            "refined_level": out.m,
            "delta": _frac(out.delta),
            "conjugate": model.format(out.h),
            "certificates": {c.clause: c.to_mapping() for c in out.certificates},
            "conditions": {"evc_search": fresh_rec},
            "witness": {"core": list(out.core.words),
                        "moves": out.theta.word_moves()},
            "artifacts": {"f": _function_table(out.f_tilde)},
        }
        for (section, field), value in _checked_fields(
                inp, rule, check, out.f_tilde, closure, changes, out.z0,
                out.b_set).items():
            (record[section] if section else record)[field] = value
        record["certificates"] = list(record["certificates"].values())
        records.append(record)

        n = out.m
        if out_dir:
            _save_checkpoint(config, out_dir, records)

    records.extend(_terminal_records(config, model, mu, closure, functions,
                                     change_history, eps_history, n, {}))
    if closing is not None:
        records.append(closing(config, model, closure, functions[-1], records))
    report = RunReport(tuple(records))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        report.write(os.path.join(out_dir, "report.jsonl"))
    return report


def _terminal_records(config: PipelineConfig, model: GroupModel,
                      mu: ProductMeasure, closure: tuple,
                      functions: Sequence[StepFunction],
                      change_history: Sequence[dict],
                      eps_history: Sequence[Fraction],
                      final_level: int,
                      searched: Mapping[str, dict]) -> list[dict]:
    """The records after the rounds; a record whose kind is in `searched`
    is taken from there instead of computed (certify passes SEARCHED)."""
    f_final = functions[-1]
    action = config.build_action(config.rounds)
    records = [Schedule.from_config(config).recurrence_record(config.rounds)]

    # value boundedness: all increments inside {identity} u closure
    records.append({
        "record": "boundedness",
        "closure": sorted(model.format(h) for h in closure),
        "ok": increments_within(f_final, action, closure),
        "per_generator": {
            label: sorted(model.format(v)
                          for v in coboundary_increment(f_final, g).value_set())
            for label, g in action.generators},
    })

    if config.enumerated:
        records.append(_stream_record(config, model, functions, closure))

    # essential-value sweep over the scheduled triples, terminal kernel
    sweep = searched.get("essential_values")
    if sweep is None:
        base_sets = [CylinderSet.of(words) for words in config.bases]
        sweeps = []
        for h_text in config.family:
            report = essential_value_certificate(
                f_final, model.parse(h_text), mu, base_sets,
                list(config.u_indices), search_depth=config.depth_budget)
            sweeps.append({
                "candidate": h_text,
                "verdict": report.verdict,
                "entries": [{
                    "base": list(e.base.words),
                    "u_index": e.u_index,
                    "delta": _frac(e.delta),
                    "ok": e.ok,
                    "mass": (_frac(e.witness.part.measure(mu))
                             if e.witness else None),
                } for e in report.entries],
            })
        sweep = {"record": "essential_values", "sweeps": sweeps}
    records.append(sweep)

    # connectivity ladder (finite groups only); the deepest rung stops
    # one short of the kernel depth, where fibers can still interact, or
    # at the deepest depth whose skew graph fits the connectivity budget
    if model.elements() is not None:
        order = len(model.elements())
        rung_depths = [d for d in range(1, f_final.depth) or [f_final.depth]
                       if within_skew_budget(order, d)]
        # the control is the coboundary of the constant identity
        trivial = StepFunction(model, 0, (model.identity(),))
        rungs = [skew_connectivity(f_final, d) for d in rung_depths]
        control = [skew_connectivity(trivial, d) for d in rung_depths]
        records.append({
            "record": "ladder",
            "kernel_depth": f_final.depth,
            "rung_depths": rung_depths,
            "components": rungs,
            "control_components": control,
            "nonincreasing": all(b <= a for a, b in zip(rungs, rungs[1:])),
            "terminal_components": rungs[-1] if rungs else None,
            "control_constant": control == [len(model.elements())] * len(control),
        })

    # stabilization ledger: changes after round n stay under the eps tail
    # (the suffix unions are built once, from the last round back)
    ledger = {}
    for labels in action.inverse_groups():
        rows = []
        union = CylinderSet.empty()
        bound = ZERO
        for n_idx in reversed(range(len(change_history))):
            changes = change_history[n_idx]
            # rounds before a generator joins contribute no changes
            if labels in changes:
                union = union.union(changes[labels])
            bound += eps_history[n_idx]
            mass = union.measure(mu)
            rows.append({
                "after_round": n_idx,
                "change_mass": _frac(mass),
                "eps_tail": _frac(bound),
                "ok": mass <= bound,
            })
        ledger["+".join(labels)] = rows[::-1]
    records.append({"record": "stabilization", "ledger": ledger})

    # exact distances from each round's increments to the terminal ones
    rows = []
    for idx in range(len(functions) - 1):
        act = config.build_action(max(idx, 1)) if config.enumerated else action
        old = [coboundary_increment(functions[idx], g) for g in act.maps()]
        new = [coboundary_increment(f_final, g) for g in act.maps()]
        dist = cocycle_distance(old, new, mu)
        tail = sum(eps_history[idx:], ZERO)
        rows.append({
            "from_round": idx,
            "distance": _frac(dist),
            "eps_tail": _frac(tail),
            "ok": dist <= tail or dist == 0,
        })
    records.append({"record": "distances", "rows": rows})

    records.append({
        "record": "final",
        "depth": f_final.depth,
        "level": final_level,
        "f": _function_table(f_final),
        "eps_history": [_frac(e) for e in eps_history],
        # strict halving: the tolerances after the last round sum below it
        "tail_bound": _frac(eps_history[-1]) if eps_history else "0",
        "halving_ok": all(b < a / 2 for a, b in zip(eps_history, eps_history[1:])),
    })
    return records


def _stream_record(config: PipelineConfig, model: GroupModel,
                   functions: Sequence[StepFunction], closure: tuple) -> dict:
    """For the enumerated-generator branch: the per-generator value
    certificate with K_j built from the value set F_j of the function
    present when generator j joined."""
    f_final = functions[-1]
    rows = []
    for j in range(1, config.rounds + 1):
        f_j = functions[min(j, len(functions) - 1)]
        values = f_j.value_set()
        k_j = sorted({model.key(model.mul(a, model.inv(b)))
                      for a in values for b in values})
        allowed = set(k_j) | {model.key(h) for h in closure}
        allowed.add(model.key(model.identity()))
        inc = coboundary_increment(f_final, coordinate_flip(j))
        realized = sorted(model.key(v) for v in inc.value_set())
        rows.append({
            "generator": f"s{j}",
            "f_values": len(values),
            "k_size": len(k_j),
            "k_size_bound_ok": len(k_j) <= len(values) ** 2,
            "realized": [str(k) for k in realized],
            "ok": all(k in allowed for k in realized),
        })
    return {"record": "stream_bounds", "rows": rows,
            "ok": all(r["ok"] for r in rows)}


# ---------------------------------------------------------------------------
# Public pipelines
# ---------------------------------------------------------------------------

def run_theorem_02i(config: PipelineConfig, out_dir: Optional[str] = None,
                    resume: bool = False) -> RunReport:
    """Finitely many generators, fixed for the whole run."""
    if config.enumerated:
        raise ConfigError("use run_theorem_02ii for enumerated generator streams")
    return _run_recursion(config, out_dir, resume)


def run_theorem_02ii(config: PipelineConfig, out_dir: Optional[str] = None,
                     resume: bool = False) -> RunReport:
    """Enumerated generator stream; round n works with the first n
    generators and their inverses."""
    if not config.enumerated:
        raise ConfigError("run_theorem_02ii needs an enumerated generator stream")
    return _run_recursion(config, out_dir, resume)


def _compact_range(config: PipelineConfig, model: GroupModel, closure: tuple,
                   f_final: StepFunction, records: Sequence[dict]) -> dict:
    """The compact-range certificate, read off the boundedness record:
    every generator's increments stay in {identity} u closure."""
    bound = next(r for r in records if r["record"] == "boundedness")
    return {
        "record": "compact_range",
        "range_set": (["0" if not bound["closure"] else "identity"]
                      + bound["closure"]),
        "ok": bound["ok"],
        "rounds": config.rounds,
    }


def _norm_bounds(config: PipelineConfig, model: GroupModel, closure: tuple,
                 f_final: StepFunction, records: Sequence[dict]) -> dict:
    """The per-generator norm bound c with norm(increment) <= c(generator)
    everywhere defined, against the sup norm of the closure."""
    sup = closure_norm_bound(model, closure)
    if sup is None:
        raise ConfigError("the group model carries no norm")
    rows = {}
    worst = ZERO
    for label, g in config.build_action(config.rounds).generators:
        inc = coboundary_increment(f_final, g)
        c = max((model.norm(v) for v in inc.value_set()), default=ZERO)
        worst = max(worst, c)
        rows[label] = {"c": _frac(c), "ok": c <= sup}
    return {
        "record": "norm_bounds",
        "sup_family_norm": _frac(sup),
        "per_generator": rows,
        "max_c": _frac(worst),
        "ok": worst <= sup,
    }


# the closing record a pipeline adds, by kind; certify rebuilds the ones
# a report holds
CLOSING = {"compact_range": _compact_range, "norm_bounds": _norm_bounds}


def bounded_cocycle_pipeline(config: PipelineConfig,
                             out_dir: Optional[str] = None) -> RunReport:
    """Run the recursion and close with the compact-range certificate."""
    return _run_recursion(config, out_dir, closing=_compact_range)


def norm_bounded_pipeline(config: PipelineConfig,
                          out_dir: Optional[str] = None) -> RunReport:
    """Recursion over a normed model, closed with the per-generator norm
    bounds."""
    model = config.build_model()
    if closure_norm_bound(model, _closure(config, model)) is None:
        raise ConfigError("the group model carries no norm")
    return _run_recursion(config, out_dir, closing=_norm_bounds)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _save_checkpoint(config: PipelineConfig, out_dir: str,
                     records: Sequence[dict]) -> None:
    """Write the config digest and the records so far; everything else a
    resumed run needs is rebuilt from the round records."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {"digest": config.digest(), "records": records}
    tmp = os.path.join(out_dir, "checkpoint.json.tmp")
    with open(tmp, "w") as fh:
        # json.dump would stream through the pure-Python encoder
        fh.write(json.dumps(payload, sort_keys=True))
    os.replace(tmp, os.path.join(out_dir, "checkpoint.json"))


def _load_checkpoint(config: PipelineConfig,
                     out_dir: str) -> Optional[list[dict]]:
    """The records of the checkpoint in `out_dir`, or None when there is
    none, it belongs to another config, or it cannot be read (another
    layout included); in each of those cases the run starts afresh."""
    path = os.path.join(out_dir, "checkpoint.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if (set(payload) != {"digest", "records"}
                or payload["digest"] != config.digest()):
            return None
        return list(payload["records"])
    except (ValueError, TypeError):
        return None


# ---------------------------------------------------------------------------
# Report certification
# ---------------------------------------------------------------------------

# terminal records that certify takes from the report: rebuilding them
# would rerun their witness searches
SEARCHED = ("essential_values",)


def _first_difference(stored: Mapping, rebuilt: Mapping) -> Optional[str]:
    """The first key, in sorted order, on which two records differ."""
    return next((key for key in sorted(set(stored) | set(rebuilt))
                 if key not in stored or key not in rebuilt
                 or stored[key] != rebuilt[key]), None)


@_reads_report
def certify_report(records: Sequence[dict]) -> list[dict]:
    """Re-validate a stored report from its embedded artifacts; returns a
    list of failure records (empty means the report is sound).

    Each round is replayed through the step check; every other record
    is rebuilt by the builder the run used and compared whole, except
    the SEARCHED ones."""
    failures: list[dict] = []

    def fail(clause: str, where: str, detail: str = "") -> None:
        failures.append({"clause": clause, "where": where, "detail": detail})

    headers = [r for r in records if r.get("record") == "header"]
    if len(headers) != 1:
        return [{"clause": "header", "where": "report",
                 "detail": "expected exactly one header record"}]
    config = PipelineConfig.from_mapping(headers[0]["config"])
    model = config.build_model()
    mu = config.build_measure()
    schedule = Schedule.from_config(config)
    closure = _closure(config, model)
    header = _header(config, model, closure)
    if headers[0].get("config_digest") != header["config_digest"]:
        fail("config_digest", "header", "config does not match its digest")

    rounds = [r for r in records if r.get("record") == "round"]
    functions, eps_history, _ = _replay_rounds(config, model, rounds)
    change_history = []
    n = config.start_level
    for i, rec in enumerate(rounds):
        t = rec["round"]
        where = f"round {t}"
        action = config.build_action(t)
        triple = schedule.round_triple(t - 1)
        if triple.to_mapping() != rec["triple"]:
            fail("schedule", where, "triple differs from the configured schedule")
        eps = eps_history[i]
        if i and not eps < eps_history[i - 1] / 2:
            fail("eps_halving", where,
                 f"{eps} is not below half of {eps_history[i - 1]}")
        _, rule = round_eps(config, model, mu, triple, rounds[:i])

        f = functions[i + 1]
        theta = FiniteDepthMap.from_moves(f.depth, rec["witness"]["moves"])
        core = CylinderSet.of(rec["witness"]["core"])
        delta = Fraction(rec["delta"])
        replay = StepArtifacts(f, theta, core, rec["refined_level"],
                               model.parse(rec["conjugate"]), delta)
        inp = step_input(config, model, mu, action, triple, functions[i], n,
                         eps)
        try:
            check = validate_step_output(inp, replay)
            z0 = select_core_and_conjugate(inp.f, inp.target, inp.candidate,
                                           inp.u_index, mu).z0
            _, b_set = discard_set(inp, overflow_hull(action, n, replay.m, mu))
        except CocycleLabError as exc:
            fail("validator", where, str(exc))
            # the report fails already; its ledger is rebuilt without
            # this round's changes
            change_history.append({})
        else:
            changes = _change_sets(action, check.agreement)
            change_history.append(changes)
            fields = _checked_fields(inp, rule, check, f, closure, changes,
                                     z0, b_set)
            for c in fields[None, "validator"]:
                if not c["ok"]:
                    fail(c["clause"], where, c["detail"])
            view = {**rec, "certificates": {
                c.get("clause"): c for c in rec.get("certificates", ())}}
            for (section, field), value in fields.items():
                found = (view.get(section, {}) if section else view).get(field)
                if found != value:
                    fail(f"{section}.{field}" if section else field, where,
                         f"stored {found!r}, recomputed {value!r}")
            if not check.witness.ok:
                fail(f"evc-{check.witness.clause}", where,
                     check.witness.detail or "")

        n = rec["refined_level"]

    # the first record of each kind
    stored = {r.get("record"): r for r in reversed(records)}
    rebuilt = _terminal_records(
        config, model, mu, closure, functions, change_history, eps_history, n,
        {kind: stored.get(kind, {"record": kind}) for kind in SEARCHED})
    rebuilt += [build(config, model, closure, functions[-1], rebuilt)
                for kind, build in CLOSING.items() if kind in stored]
    if not next(r for r in rebuilt if r["record"] == "boundedness")["ok"]:
        fail("boundedness", "report", "increments leave {identity} u closure")
    kinds = ["header"] + ["round"] * len(rounds) + [r["record"] for r in rebuilt]
    if [r.get("record") for r in records] != kinds:
        fail("records", "report", "record kinds or their order differ from a run's")
    for record in [header] + rebuilt:
        kind = record["record"]
        if kind not in stored:
            fail(kind, "report", "record missing")
        elif (key := _first_difference(stored[kind], record)) is not None:
            fail(kind, "report", f"{key!r} differs from the rebuilt record")
    return failures


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

@_reads_report
def export_report(records: Sequence[dict], out_dir: str) -> list[str]:
    """Write CSV artifacts for a stored report; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    headers = [r for r in records if r.get("record") == "header"]
    if not headers:
        raise ConfigError("report has no header record")
    config = PipelineConfig.from_mapping(headers[0]["config"])
    model = config.build_model()
    mu = config.build_measure()
    written: list[str] = []

    def emit(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)

    finals = [r for r in records if r.get("record") == "final"]
    if finals:
        f = _parse_table(model, finals[0]["f"])
        emit("final_function.csv", f.to_csv())
        if f.depth <= KERNEL_EXPORT_DEPTH:
            emit("terminal_kernel.csv", kernel_csv(f))
    for rec in (r for r in records if r.get("record") == "round"):
        core = CylinderSet.of(rec["witness"]["core"])
        emit(f"round_{rec['round']:02d}_core.csv", core.to_csv(mu))
    ladders = [r for r in records if r.get("record") == "ladder"]
    if ladders:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["depth", "components", "control_components"])
        for row in zip(ladders[0]["rung_depths"], ladders[0]["components"],
                       ladders[0]["control_components"]):
            writer.writerow(row)
        emit("ladder.csv", buf.getvalue())
    return written
