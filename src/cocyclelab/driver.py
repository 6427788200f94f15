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

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, repeat
from operator import lt, ne
from typing import Callable, Mapping, Optional, Sequence

from .cocycles import (KERNEL_EXPORT_DEPTH, StepFunction, coboundary_increment,
                       cocycle_distance, increment_agreement,
                       increments_within, kernel_csv)
from .errors import (CocycleLabError, ConfigError, DepthMismatch,
                     MalformedInput, SearchExhausted)
from .evc import (check_evc, delta_for, skew_connectivity, target_set,
                  within_skew_budget)
from .groups import (GroupModel, closure_norm_bound, conjugate_closure,
                     model_from_config)
from .measure import ZERO, CylinderSet, ProductMeasure, all_words, kept
from .odometer import (FiniteDepthMap, Flip, GammaAction,
                       adding_machine_action, flip_action)
from .stepper import (ADMISSION_FACTOR, StepArtifacts, StepCheck, StepInput,
                      StepOutput, admission_bound, construct_step,
                      validate_step_output)

SCHEDULE_SHRINK = Fraction(7, 8)  # makes the halving strict

_REQUIRED = object()  # `PipelineConfig.from_mapping`: a key with no default

# `PipelineConfig.from_mapping`: a report holds no floats, so a YAML float
# is read as its integer when it is whole, else as its text (.inf and
# .nan too), which a measure weight reads and a count refuses
_EXACT = json.JSONDecoder(parse_float=lambda text: int(float(text))
                          if float(text).is_integer() else text,
                          parse_constant=str)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _refuse_booleans(data) -> None:
    """Raise TypeError if JSON data holds a boolean, which Python would
    read as the number 1 or 0."""
    if isinstance(data, bool):
        raise TypeError("a boolean is not a number")
    if isinstance(data, (dict, list)):
        for item in data.values() if isinstance(data, dict) else data:
            _refuse_booleans(item)


def _digest(mapping: Mapping) -> str:
    """The sha256 of a config's JSON data, as its header stores it."""
    return hashlib.sha256(json.dumps(mapping, sort_keys=True).encode()).hexdigest()


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

        def count(value) -> int:
            # a float as the mappings read it: a non-whole one as its text
            _refuse_booleans(value)
            n = int(_EXACT.decode(json.dumps(value)))
            if n < 0:
                raise ValueError("must be >= 0")
            return n

        def listed(value):
            # a string is iterable too, but would read as its characters
            if isinstance(value, str):
                raise TypeError("a list is required, not a string")
            return value

        def word_tuples(entries) -> tuple:
            return tuple((e,) if isinstance(e, str) else tuple(str(w) for w in e)
                         for e in listed(entries))

        def exact(value) -> dict:
            data = _EXACT.decode(json.dumps(dict(value)))
            _refuse_booleans(data)
            return data

        config = PipelineConfig(
            group=read("group", exact),
            measure=read("measure", exact, {"kind": "uniform"}),
            action=read("action", exact),
            family=read("family", lambda v: tuple(map(str, listed(v)))),
            bases=read("bases", word_tuples, [""]),
            u_indices=read("u_indices", lambda v: tuple(map(count, listed(v))), [1]),
            rounds=read("rounds", count, 1),
            depth_budget=read("depth_budget", count, 14),
            start_level=read("start_level", count, 1),
            eps_start=read("eps_start", lambda v: v if v is None
                           else str(Fraction(str(v))), None),
            name=read("name", str, "run"),
        )
        read("group", lambda _: config.model)
        read("measure", lambda _: config.mu, None)
        action = read("action", lambda _: config.build_action())
        # a generator's remainder, a cylinder of its depth, enters the
        # agreement and change sets, which so stay within the budget; so
        # does the initial function, of depth max(start_level, 1)
        deepest = max(action.generators, key=lambda g: g.max_depth)
        if deepest.max_depth > config.depth_budget:
            raise ConfigError(f"config key 'action' cannot take generator "
                              f"{deepest.label} of depth {deepest.max_depth} "
                              f"within depth_budget {config.depth_budget}")
        if max(config.start_level, 1) > config.depth_budget:
            raise ConfigError(f"config key 'start_level' cannot take "
                              f"{config.start_level} within depth_budget "
                              f"{config.depth_budget}")
        return config

    def to_mapping(self) -> dict:
        """The config's fields as JSON data, as its header stores them."""
        return json.loads(json.dumps(
            {name: getattr(self, name) for name in self.__dataclass_fields__}))

    def digest(self) -> str:
        return _digest(self.to_mapping())

    @functools.cached_property
    def model(self) -> GroupModel:
        return model_from_config(self.group)

    @functools.cached_property
    def mu(self) -> ProductMeasure:
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
        """The action of round `round_index` (None: the last round), one
        instance per equal action, so what an action keeps is kept once."""
        # enumerated generator branch: round n sees the first n flips
        n = max(self.rounds if round_index is None else round_index, 1)
        return self._action(n if self.enumerated else None)

    @kept
    def _action(self, n: Optional[int]) -> GammaAction:
        kind, spec = self.action.get("kind"), self.action
        if kind == "adding-machine":
            return adding_machine_action(int(spec.get("depth", 12)))
        if kind == "flips":
            return flip_action(tuple(int(c) for c in spec["coords"]))
        if kind == "flip-stream":
            return flip_action(tuple(range(1, n + 1)))
        raise ConfigError(f"unknown action kind {kind!r}")

    @functools.cached_property
    def closure(self) -> tuple:
        """The conjugate closure of the value family."""
        return conjugate_closure(
            self.model, tuple(self.model.parse(h) for h in self.family))

    @functools.cached_property
    def schedule(self) -> "Schedule":
        return Schedule.from_config(self)

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

    @functools.cached_property
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
        for block in count(1):
            size = min(block, len(self.triples))
            if index < size:
                return self.triples[index]
            index -= size

    def next_occurrence(self, triple: Triple, after: int) -> int:
        return next(pos for pos in count(after + 1)
                    if self.round_triple(pos) == triple)

    def recurrence_record(self, executed: int) -> dict:
        seen = dict.fromkeys(map(self.round_triple, range(executed)))
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
    return str(x if type(x) is Fraction else Fraction(x))


def _function_table(f: StepFunction) -> dict:
    """Each word's label; each distinct value is formatted once."""
    labels = {v: f.model.format(v) for v in dict.fromkeys(f.values)}
    return dict(zip(all_words(f.depth), map(labels.__getitem__, f.values)))


def _parse_table(model: GroupModel, table: Mapping[str, str]) -> StepFunction:
    """The step function a stored table renders (see `_function_table`);
    its depth is the length of its words.  Each label is parsed once."""
    if not isinstance(table, Mapping) or not all(
            map(isinstance, table.values(), repeat(str))):
        raise MalformedInput("a function table must map words to label text")
    elements = {v: model.parse(v) for v in dict.fromkeys(table.values())}
    parsed = dict(zip(table, map(elements.__getitem__, table.values())))
    try:
        return StepFunction.from_table(model, parsed)
    except DepthMismatch as exc:
        raise MalformedInput(f"a function table must hold the words of one "
                             f"depth ({exc})") from None


def _report_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass(frozen=True)
class RunReport:
    records: tuple[dict, ...]

    def text(self) -> str:
        return "".join(map(_report_line, self.records))


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


def _no_float(text: str):
    raise MalformedInput(f"a report holds no floats, and {text} is one")


# no run writes a float, so a report line that holds one is malformed
_REPORT_LINE = json.JSONDecoder(parse_float=_no_float, parse_constant=_no_float)


@_reads_report
def load_report(path: str) -> list[dict]:
    try:
        with open(path) as fh:
            return [_REPORT_LINE.decode(line) for line in fh if line.strip()]
    except OSError as exc:
        raise MalformedInput(f"cannot read the report {path!r} "
                             f"({type(exc).__name__}: {exc.strerror})") from None


# ---------------------------------------------------------------------------
# The recursion
# ---------------------------------------------------------------------------

def _header(config: PipelineConfig) -> dict:
    """The report's first record."""
    mapping = config.to_mapping()
    return {
        "record": "header",
        "format": 1,
        "config": mapping,
        "config_digest": _digest(mapping),
        "schedule": [t.to_mapping() for t in config.schedule.triples],
        "closure": sorted(map(config.model.format, config.closure)),
    }


def initial_function(config: PipelineConfig) -> StepFunction:
    """The constant-identity step function a run starts from."""
    model, level = config.model, max(config.start_level, 1)
    return StepFunction(model, level, (model.identity(),) * (1 << level))


def round_eps(config: PipelineConfig, triple: Triple,
              rounds: Sequence[dict]) -> tuple[Fraction, dict]:
    """A round's tolerance and its rule, from the round records before it.

    The first round takes the admission bound, or the configured
    ``eps_start`` when that is smaller.  A later round takes
    SCHEDULE_SHRINK times the least of half the previous tolerance, the
    admission bound and the least witness reserve stored so far."""
    model = config.model
    _, cover = delta_for(model, model.parse(triple.candidate), triple.u_index)
    admission = admission_bound(triple.base.measure(config.mu), cover.number)
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
    return {labels: functools.reduce(CylinderSet.intersection, map(
                agreement.__getitem__, labels)).complement()
            for labels in action.inverse_groups()}


def _round_record(config: PipelineConfig, t: int, rule: dict,
                  step: StepArtifacts, check: StepCheck,
                  given: Mapping) -> dict:
    """Round t's record, the one writer of a round record's fields, from
    its tolerance rule, artifacts and step check (the conjugate and z0
    are the input's selection, the discard set its `discard` at the
    step's level).  The certificate and validator lists are the check's
    clause table, each clause in the lists that word it.  `given` holds,
    by section, what a run renders or searches and certify reads back:
    the table `artifacts.f`, the witness's `core` and `moves` and
    `conditions.evc_search` (see `run_round`)."""
    inp, verdicts, f = check.inp, check.verdicts(), step.f_tilde
    admission = admission_bound(inp.target_mass, inp.cover.number)
    return {
        "record": "round",
        "round": t,
        "triple": config.schedule.round_triple(t - 1).to_mapping(),
        "level": inp.n,
        "refined_level": step.m,
        "working_depth": f.depth,
        "eps": rule["chosen"],
        "eps_rule": rule,
        "eps_prime": _frac(inp.eps_prime),
        "delta": _frac(step.delta),
        "conjugate": config.model.format(inp.selection.h),
        "admission": {"clause": "admission", "ok": inp.eps <= admission,
                      "detail": f"eps = {inp.eps} vs target mass/"
                                f"({ADMISSION_FACTOR} covering) = {admission} "
                                f"(advisory)"},
        "certificates": [{"clause": clause, "ok": ok, "detail": wording}
                         for clause, (ok, wording, _) in check.clauses.items()
                         if wording is not None],
        "validator": [{"clause": clause, "ok": ok, "detail": wording}
                      for clause, (ok, _, wording) in check.clauses.items()
                      if wording is not None],
        "conditions": {
            **given.get("conditions", {}),
            "inner": verdicts["inner"],
            "agreement": _frac(check.agreement_mass),
            "agreement_ok": verdicts["agreement"],
            "distance": _frac(check.distance),
            "distance_ok": verdicts["distance"],
            "evc_witness_ok": check.witness.ok,
            "incremental": increments_within(f, inp.action, config.closure),
            "finite_values": len(f.value_set()),
        },
        "witness": {**given.get("witness", {}),
                    "measure_slack": _frac(check.witness.measure_slack),
                    "reserve": _frac(check.witness_reserve)},
        "artifacts": {**given.get("artifacts", {}),
                      "core_mass": _frac(check.core_mass),
                      "change_mass": {"+".join(k): _frac(v.measure(inp.mu))
                                      for k, v in _change_sets(
                                          inp.action, check.agreement).items()},
                      "z0": list(inp.selection.z0.words),
                      "b_set": list(inp.discard(step.m)[1].words)},
    }


def _replay_rounds(config: PipelineConfig,
                   rounds: Sequence[dict]) -> list[StepFunction]:
    """The step functions of a run's round records, the initial one first:
    with the records, a run's whole state."""
    return [initial_function(config)] + [
        _parse_table(config.model, r["artifacts"]["f"]) for r in rounds]


def _level_after(config: PipelineConfig, rounds: Sequence[dict]) -> int:
    """The level after the round records: the last one's refined level."""
    return int(rounds[-1]["refined_level"]) if rounds else config.start_level


def round_input(config: PipelineConfig, t: int, rounds: Sequence[dict],
                f: StepFunction) -> tuple[StepInput, dict]:
    """Round t's step input and tolerance rule, from the round records
    before it and the last function `f`: the run builds the round from
    them, and certify replays it under them."""
    triple = config.schedule.round_triple(t - 1)
    eps, rule = round_eps(config, triple, rounds)
    if eps <= 0:
        raise ConfigError(f"round {t}: tolerance collapsed to {eps}")
    return StepInput(f=f, n=_level_after(config, rounds),
                     action=config.build_action(t), family=config.closure,
                     target=triple.base,
                     candidate=config.model.parse(triple.candidate),
                     u_index=triple.u_index, eps=eps, mu=config.mu,
                     depth_budget=config.depth_budget), rule


def run_round(config: PipelineConfig, t: int, rounds: Sequence[dict],
              f: StepFunction, searched: bool = True) -> tuple[dict, StepOutput]:
    """Round t of a run from the round records before it and the last
    function `f`: its record and its step's output.  Unless `searched`,
    the record lacks the table, the witness's core and moves and the
    fresh witness search, which `cocyclelab step` does not print (at
    working depth 19 they take about as long as the step)."""
    inp, rule = round_input(config, t, rounds, f)
    out = construct_step(inp)
    given: dict = {}
    if searched:
        try:
            fresh = check_evc(out.f_tilde, inp.target, inp.targets, inp.delta,
                              inp.mu, search_depth=config.depth_budget)
            evc_search = {"ok": True, "mass": _frac(fresh.part.measure(inp.mu)),
                          "measure_slack": _frac(fresh.measure_slack)}
        except SearchExhausted as exc:
            evc_search = {"ok": False, "failure": str(exc)}
        given.update(conditions={"evc_search": evc_search},
                     witness={"core": list(out.check.core.words),
                              "moves": out.theta.word_moves()},
                     artifacts={"f": _function_table(out.f_tilde)})
    return _round_record(config, t, rule, out, out.check, given), out


def _run_recursion(config: PipelineConfig,
                   out_dir: Optional[str] = None,
                   resume: bool = False,
                   closing: Optional[Callable] = None) -> RunReport:
    """Run the rounds and the terminal records; `closing`, if given, is
    one of the CLOSING builders and adds one more record.  With `out_dir`
    each record is appended to the checkpoint there, which becomes the report."""
    records = _restart_checkpoint(config, out_dir, resume) if out_dir else []

    def emit(record: dict) -> None:
        records.append(record)
        if out_dir:
            _save_checkpoint(record, out_dir)

    if not records:
        emit(_header(config))
    # the state: the round records and their step functions
    functions = _replay_rounds(config, records[1:])
    for t in range(len(functions), config.rounds + 1):
        record, out = run_round(config, t, records[1:], functions[-1])
        functions.append(out.f_tilde)
        emit(record)

    for record in _terminal_records(config, functions, records[1:], {}):
        emit(record)
    if closing is not None:
        emit(closing(config, functions[-1], records))
    if out_dir:
        os.replace(os.path.join(out_dir, "checkpoint.json"),
                   os.path.join(out_dir, "report.jsonl"))
    return RunReport(tuple(records))


def _terminal_records(config: PipelineConfig,
                      functions: Sequence[StepFunction],
                      rounds: Sequence[dict],
                      searched: Mapping[str, dict]) -> list[dict]:
    """The records after the rounds, from the round records and their
    step functions (the initial one first); a record whose kind is in
    `searched` is taken from there instead of computed (certify passes
    SEARCHED)."""
    model, mu, closure = config.model, config.mu, config.closure
    f_final = functions[-1]
    action = config.build_action(config.rounds)
    eps_history = [Fraction(r["eps"]) for r in rounds]
    # each round's change sets, from the step check's kept agreement
    change_history = [
        _change_sets(act, increment_agreement(old, new, act))
        for act, old, new in zip(map(config.build_action, count(1)),
                                 functions, functions[1:])]
    records = [config.schedule.recurrence_record(config.rounds)]

    # value boundedness: all increments inside {identity} u closure
    records.append({
        "record": "boundedness",
        "closure": sorted(model.format(h) for h in closure),
        "ok": increments_within(f_final, action, closure),
        "per_generator": {
            g.label: sorted(model.format(v)
                            for v in coboundary_increment(f_final, g).value_set())
            for g in action.generators},
    })

    if config.enumerated:
        records.append(_stream_record(config, functions))

    # essential-value sweep over the scheduled triples, terminal kernel:
    # per candidate, a witness search for each neighborhood and nonempty
    # base with the tolerance 1/(3 * covering number); the verdict is
    # certified only if every search finds a witness
    sweep = searched.get("essential_values")
    if sweep is None:
        base_sets = [b for b in map(CylinderSet.of, config.bases)
                     if not b.is_empty()]
        sweeps = []
        for h_text in config.family:
            g = model.parse(h_text)
            entries = []
            for k in config.u_indices:
                delta, _ = delta_for(model, g, k)
                target = target_set(model, g, k)
                for base in base_sets:
                    try:
                        witness = check_evc(f_final, base, target, delta, mu,
                                            config.depth_budget)
                        mass = _frac(witness.part.measure(mu))
                    except SearchExhausted:
                        mass = None
                    entries.append({"base": list(base.words), "u_index": k,
                                    "delta": _frac(delta),
                                    "ok": mass is not None, "mass": mass})
            sweeps.append({
                "candidate": h_text,
                "verdict": ("certified" if all(e["ok"] for e in entries)
                            else "inconclusive"),
                "entries": entries,
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
        rows, union, bound = [], CylinderSet.empty(), ZERO
        for n_idx, changes in reversed([*enumerate(change_history)]):
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
        act = config.build_action(max(idx, 1))
        dist = cocycle_distance(
            increment_agreement(functions[idx], f_final, act), mu)
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
        "level": _level_after(config, rounds),
        # the last round's table, which certify checks as one
        "f": rounds[-1]["artifacts"]["f"] if rounds else _function_table(f_final),
        "eps_history": [_frac(e) for e in eps_history],
        # strict halving: the tolerances after the last round sum below it
        "tail_bound": _frac(eps_history[-1]) if eps_history else "0",
        "halving_ok": all(b < a / 2 for a, b in zip(eps_history, eps_history[1:])),
    })
    return records


def _stream_record(config: PipelineConfig,
                   functions: Sequence[StepFunction]) -> dict:
    """For the enumerated-generator branch: the per-generator value
    certificate with K_j built from the value set F_j of the function
    present when generator j joined."""
    model, f_final = config.model, functions[-1]
    rows = []
    for j in range(1, config.rounds + 1):
        f_j = functions[min(j, len(functions) - 1)]
        values = f_j.value_set()
        k_j = sorted({model.key(model.mul(a, model.inv(b)))
                      for a in values for b in values})
        allowed = set(k_j) | {model.key(h) for h in config.closure}
        allowed.add(model.key(model.identity()))
        inc = coboundary_increment(f_final, Flip(j))
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


def _compact_range(config: PipelineConfig, f_final: StepFunction,
                   records: Sequence[dict]) -> dict:
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


def _norm_bounds(config: PipelineConfig, f_final: StepFunction,
                 records: Sequence[dict]) -> dict:
    """The per-generator norm bound c with norm(increment) <= c(generator)
    everywhere defined, against the sup norm of the closure."""
    sup = closure_norm_bound(config.model, config.closure)
    if sup is None:
        raise ConfigError("the group model carries no norm")
    rows = {}
    worst = ZERO
    for g in config.build_action(config.rounds).generators:
        inc = coboundary_increment(f_final, g)
        c = max((config.model.norm(v) for v in inc.value_set()), default=ZERO)
        worst = max(worst, c)
        rows[g.label] = {"c": _frac(c), "ok": c <= sup}
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
    if closure_norm_bound(config.model, config.closure) is None:
        raise ConfigError("the group model carries no norm")
    return _run_recursion(config, out_dir, closing=_norm_bounds)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _save_checkpoint(record: dict, out_dir: str) -> None:
    """Append `record` to the checkpoint in `out_dir` as its report line."""
    with open(os.path.join(out_dir, "checkpoint.json"), "a") as fh:
        fh.write(_report_line(record))


def _restart_checkpoint(config: PipelineConfig, out_dir: str,
                        resume: bool) -> list[dict]:
    """The records a run in `out_dir` starts from, which replace its
    checkpoint atomically: none when fresh; when resumed, the complete
    lines (ending in a newline) of the checkpoint, or else of the report,
    while they read as the config's header and then round records."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "checkpoint.json")
    source = path if os.path.exists(path) else os.path.join(out_dir, "report.jsonl")
    records: list[dict] = []
    # AttributeError: a line that holds JSON but not a record
    with contextlib.suppress(OSError, ValueError, AttributeError), \
            open(source) as fh:
        for line in fh if resume else ():
            record = json.loads(line)
            if (not line.endswith("\n")
                    or record.get("record") != ("round" if records else "header")
                    or not records and record.get("config_digest") != config.digest()):
                break
            records.append(record)
    with open(path + ".tmp", "w") as fh:
        fh.writelines(map(_report_line, records))
    os.replace(path + ".tmp", path)
    return records


# ---------------------------------------------------------------------------
# Report certification
# ---------------------------------------------------------------------------

# terminal records that certify takes from the report: rebuilding them
# would rerun their witness searches
SEARCHED = ("essential_values",)

# a round record's sections, whose fields are compared one by one
_SECTIONS = ("conditions", "witness", "artifacts")

_ABSENT = object()  # `_differences`: a field a record lacks


def _search_problem(stored, delta: Fraction,
                    base_mass: Fraction) -> Optional[str]:
    """What a round's stored witness-search outcome gets wrong, or None.
    The record keeps no witness, so the search is not rerun: a found
    witness must hold its slack mass - delta * mu(base) and a mass in
    (0, mu(base)], an exhausted search only its keys."""
    keys = sorted(stored) if isinstance(stored, Mapping) else None
    if (keys not in (["failure", "ok"], ["mass", "measure_slack", "ok"])
            or stored["ok"] is not ("mass" in stored)):
        return "neither a found witness's nor an exhausted search's keys and ok"
    if stored["ok"]:
        mass, slack = Fraction(stored["mass"]), Fraction(stored["measure_slack"])
        if slack != mass - delta * base_mass or not 0 < mass <= base_mass:
            return (f"mass {mass} and slack {slack}, against mu(base) "
                    f"{base_mass} and delta {delta}")
        spelled = {"mass": _frac(mass), "measure_slack": _frac(slack), "ok": True}
        if stored != spelled:
            return f"stored {stored}, which a run writes as {spelled}"
    return None


def _round_fields(record: Mapping) -> dict:
    """A round's fields by name: ``section.field``,
    ``certificates.<clause>``, and ``certificates``, the clause order."""
    fields = dict(record)
    for key in _SECTIONS:
        section = fields.pop(key, {})
        fields.update(zip(map(f"{key}.".__add__, section), section.values()))
    certificates = fields.pop("certificates", ())
    fields.update((f"certificates.{c.get('clause')}", c) for c in certificates)
    fields["certificates"] = [c.get("clause") for c in certificates]
    return fields


def _differences(stored: Mapping, rebuilt: Mapping) -> list[tuple[str, str]]:
    """(clause, detail) for each field, in name order, in which a stored
    record differs from the rebuilt one: a field differs unless it has
    the rebuilt value's type and equals it, so ``1`` is not ``true``.  A
    round names the field (`_round_fields`), or a key no run writes as
    "not a field of a round record"; another record fails under its
    kind, the detail naming the key."""
    kind = rebuilt["record"]
    # a record equal to the rebuilt one, with the same field types, is
    # read in C by one comparison and one type list per level; naming
    # each field of every record cost an in-process certify 1-5 % more
    if stored == rebuilt and all(
            list(map(type, map(found.__getitem__, want)))
            == list(map(type, want.values())) for found, want in [
                (stored, rebuilt), *((stored[key], rebuilt[key]) for key in
                                     _SECTIONS if kind == "round")]):
        return []
    if kind == "round":
        stored, rebuilt = _round_fields(stored), _round_fields(rebuilt)
    names = [name for name in sorted(stored.keys() | rebuilt.keys())
             if type(stored.get(name, _ABSENT)) is not type(
                 want := rebuilt.get(name, _ABSENT)) or stored[name] != want]
    if kind != "round":
        return [(kind, f"{name!r} differs from the rebuilt record")
                for name in names]
    return [(name, f"stored {stored.get(name)!r}, recomputed {rebuilt[name]!r}"
             if name in rebuilt else "not a field of a round record")
            for name in names]


@_reads_report
def certify_report(records: Sequence[dict]) -> list[dict]:
    """Re-validate a stored report from its embedded artifacts; returns a
    list of failure records (empty means the report is sound).

    Each round is replayed through the step check, and every record
    but the SEARCHED ones is rebuilt by the run's builder and compared
    with the stored one by `_differences`."""
    failures: list[dict] = []

    def fail(clause: str, where: str, detail: str = "") -> None:
        failures.append({"clause": clause, "where": where, "detail": detail})

    headers = [r for r in records if r.get("record") == "header"]
    if len(headers) != 1:
        return [{"clause": "header", "where": "report",
                 "detail": "expected exactly one header record"}]
    # nothing is rebuilt from a config that does not match its digest
    if headers[0].get("config_digest") != _digest(headers[0]["config"]):
        return [{"clause": "config_digest", "where": "header",
                 "detail": "config does not match its digest"}]
    config = PipelineConfig.from_mapping(headers[0]["config"])

    rounds = [r for r in records if r.get("record") == "round"]
    functions = _replay_rounds(config, rounds)
    _certify_rounds(config, rounds, functions, fail)

    # the first record of each kind
    stored = {r.get("record"): r for r in reversed(records)}
    rebuilt = _terminal_records(
        config, functions, rounds,
        {kind: stored.get(kind, {"record": kind}) for kind in SEARCHED})
    # norm bounds over a model without a norm fail under their kind
    for kind in (kind for kind in CLOSING if kind in stored):
        try:
            rebuilt.append(CLOSING[kind](config, functions[-1], rebuilt))
        except ConfigError as exc:
            fail(kind, "report", str(exc))
    if not next(r for r in rebuilt if r["record"] == "boundedness")["ok"]:
        fail("boundedness", "report", "increments leave {identity} u closure")
    kinds = ["header"] + ["round"] * len(rounds) + [r["record"] for r in rebuilt]
    if [r.get("record") for r in records] != kinds:
        fail("records", "report", "record kinds or their order differ from a run's")
    for record in [_header(config)] + rebuilt:
        kind = record["record"]
        if kind not in stored:
            fail(kind, "report", "record missing")
        else:
            for clause, detail in _differences(stored[kind], record):
                fail(clause, "report", detail)
    return failures


def _certify_rounds(config: PipelineConfig, rounds: Sequence[dict],
                    functions: Sequence[StepFunction], fail: Callable) -> None:
    """Replay the round records through the step check, naming failures
    to `fail`.  A function so that the last round's artifacts die before
    `_terminal_records`."""
    for i, rec in enumerate(rounds):
        t, where = i + 1, f"round {i + 1}"
        # a round number or level that does not read as an integer is
        # malformed; one stored as another type differs from the rebuilt
        int(rec["round"])
        m = int(rec["refined_level"])
        # a run writes only certificates and validator entries that hold;
        # ``ok: 1`` equals the rebuilt ``true``, so this is checked apart
        for section in ("certificates", "validator"):
            for c in rec.get(section, ()):
                if c.get("ok") is not True:
                    fail(f"{section}.{c.get('clause')}", where, "stored as not held")

        f, table = functions[i + 1], rec["artifacts"]["f"]
        moves = rec["witness"]["moves"]
        delta = Fraction(rec["delta"])
        evc_search = rec.get("conditions", {}).get("evc_search")
        # the table must be a run's rendering of what was read from it;
        # its words were checked when it was read
        for label in dict.fromkeys(table.values()):
            spelled = config.model.format(config.model.parse(label))
            if spelled != label:
                fail("artifacts.f", where, f"stored {label!r}, which the "
                     f"model spells {spelled!r}")
                break
        try:
            # a tolerance rule that collapses, and moves that are not a
            # map's, fail when they are read
            inp, rule = round_input(config, t, rounds[:i], functions[i])
            theta = FiniteDepthMap.from_moves(f.depth, moves)
            replay = StepArtifacts(f, theta, m, delta)
            check = validate_step_output(inp, replay)
            # what is checked below as a run writes it is passed through;
            # a level the step never chooses has no discard set
            rebuilt = _round_record(config, t, rule, replay, check, {
                "conditions": {"evc_search": evc_search},
                "witness": {"core": list(check.core.words), "moves": moves},
                "artifacts": {"f": table}})
        except CocycleLabError as exc:
            fail("validator", where, str(exc))
        else:
            if (problem := _search_problem(evc_search, delta,
                                           inp.target_mass)) is not None:
                fail("conditions.evc_search", where, problem)
            # moves that ascend, as many as theta moves, are its
            # `word_moves`: a repeated word or a listed fixed one would
            # leave one uncounted
            if not (all(map(lt, moves, islice(moves, 1, None)))
                    and len(moves) == sum(map(ne, theta.table, count()))):
                fail("witness.moves", where, "not the map's moves in word order")
            for clause, (ok, step, validator) in check.clauses.items():
                if not ok:
                    fail(clause, where, validator or step)
            for clause, detail in _differences(rec, rebuilt):
                fail(clause, where, detail)
            if not check.witness.ok:
                fail(f"evc-{check.witness.clause}", where,
                     check.witness.detail or "")


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
    written: list[str] = []

    def emit(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)

    finals = [r for r in records if r.get("record") == "final"]
    if finals:
        f = _parse_table(config.model, finals[0]["f"])
        emit("final_function.csv", f.to_csv())
        if f.depth <= KERNEL_EXPORT_DEPTH:
            emit("terminal_kernel.csv", kernel_csv(f))
    # by position, as certify numbers rounds: a stored number is unchecked
    for t, rec in enumerate((r for r in records
                             if r.get("record") == "round"), 1):
        core = CylinderSet.of(rec["witness"]["core"])
        emit(f"round_{t:02d}_core.csv", core.to_csv(config.mu))
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
