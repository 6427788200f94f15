"""Span tracer for the cocyclelab benchmark, installed from the outside.

`Tracer.install()` replaces each traced function of the program with a
wrapper that times the call and records a span (name, start, end,
parent).  A function is rebound in every `cocyclelab` module that holds
it, so a name imported with ``from .x import f`` is traced too; a method
is replaced on its class.  `uninstall()` puts the originals back, so
traced and untraced passes can alternate in one process.

Spans stay in memory until `write_spans`.  Functions called about a
hundred thousand times per pass are only aggregated: cylinder masses
are counted and timed and their time is charged to the enclosing span,
but no span is kept for each call; group products are only counted.

A layer's self time is its wrapped calls' duration minus the time of
the traced calls made inside them.  Every statistic is kept per phase
(``run`` for construction commands, ``certify`` for certify calls).
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

clock = time.perf_counter

# (layer, module, owner, attribute, keep spans); owner None means a
# module-level function, else the name of a class in that module
TRACED = (
    ("cli", "cli", None, "main", True),
    ("driver", "driver", None, "run_theorem_02i", True),
    ("driver", "driver", None, "run_theorem_02ii", True),
    ("driver", "driver", None, "norm_bounded_pipeline", True),
    ("driver.checkpoint", "driver", None, "_save_checkpoint", True),
    ("driver.certify", "driver", None, "certify_report", True),
    ("stepper.construct", "stepper", None, "construct_step", True),
    ("stepper.validate", "stepper", None, "validate_step_output", True),
    ("evc.search", "evc", None, "check_evc", True),
    ("evc.validate", "evc", None, "validate_witness", True),
    ("evc.connectivity", "evc", None, "skew_connectivity", True),
    ("cocycles.increment", "cocycles", None, "coboundary_increment", True),
    ("cocycles.partial_check", "cocycles", "PartialStepFunction",
     "__post_init__", True),
    ("cocycles.agreement", "cocycles", None, "increment_agreement", True),
    ("cocycles.distance", "cocycles", None, "cocycle_distance", True),
    ("cocycles.within", "cocycles", None, "increments_within", True),
    ("groups.covering", "groups", None, "covering_number", True),
    ("groups.closure", "groups", None, "conjugate_closure", True),
    ("odometer.involution", "odometer", None, "exchange_involution", True),
    ("odometer.overflow", "odometer", None, "orbit_overflow", True),
    ("measure.setops", "measure", "CylinderSet", "union", True),
    ("measure.setops", "measure", "CylinderSet", "intersection", True),
    ("measure.setops", "measure", "CylinderSet", "difference", True),
    ("measure.setops", "measure", "CylinderSet", "saturate", True),
    ("measure.setops", "measure", "CylinderSet", "prepend_free", True),
    ("measure.canon", "measure", "CylinderSet", "of", True),
    ("measure.cylinder", "measure", "ProductMeasure", "cylinder", False),
)

# counted, not timed: a timer around each group product would cost more
# than the product itself
COUNTED = (("groups.mul", "groups", "GroupModel", "mul"),)


class Tracer:
    """Wraps the traced functions and accumulates spans and statistics."""

    def __init__(self) -> None:
        self.phase = "run"
        self.pass_index = 0
        # phase -> layer -> [calls, self seconds, total seconds]
        self.stats: dict[str, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        # phase -> counter name -> amount
        self.counts: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.spans: list[tuple] = []
        # "module.attribute" or "module.Class.attribute" -> calls, all passes
        self.target_calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, time of traced children]
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- statistics ---------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: clear the statistics, keep the spans."""
        self.stats.clear()
        self.counts.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.phase][name] += amount

    def total(self, layer: str, field: str,
              phases: tuple[str, ...] = ("run", "certify")) -> float:
        """Calls (``calls``), self time (``self``) or inclusive time
        (``total``) of `layer`, summed over `phases`."""
        i = ("calls", "self", "total").index(field)
        return sum(self.stats[p][layer][i] for p in phases if p in self.stats
                   and layer in self.stats[p])

    def counter(self, name: str,
                phases: tuple[str, ...] = ("run", "certify")) -> int:
        return sum(self.counts[p].get(name, 0) for p in phases
                   if p in self.counts)

    # -- wrappers -----------------------------------------------------

    def _timed(self, layer: str, target: str, fn: Callable, keep: bool,
               after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        tracer = self
        target_calls = self.target_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            target_calls[target] += 1
            parent = stack[-1][0] if stack else 0
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            failed = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failed = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat = tracer.stats[tracer.phase][layer]
                stat[0] += 1
                stat[1] += duration - frame[1]
                stat[2] += duration
                if keep:
                    tracer.spans.append((span_id, parent, layer, start, end,
                                         tracer.phase, tracer.pass_index,
                                         type(failed).__name__ if failed else None))
                if after is not None:
                    after(tracer, args,
                          result if failed is None else None, failed)
            return result

        return wrapper

    def _counted(self, layer: str, target: str, fn: Callable) -> Callable:
        tracer = self
        target_calls = self.target_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            target_calls[target] += 1
            tracer.stats[tracer.phase][layer][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, module, owner, attr, keep in TRACED:
                mod = importlib.import_module(f"cocyclelab.{module}")
                target = target_name(module, owner, attr)
                after = _AFTER.get(layer)
                if layer == "measure.canon":
                    self._patch_method(
                        mod, owner, attr,
                        lambda fn: self._canon(target, fn, keep))
                elif owner is None:
                    self._patch_function(mod, attr, self._timed(
                        layer, target, _lookup(mod, attr), keep, after))
                else:
                    self._patch_method(
                        mod, owner, attr,
                        lambda fn, layer=layer, target=target, keep=keep,
                        after=after: self._timed(layer, target, fn, keep, after))
            for layer, module, base, attr in COUNTED:
                mod = importlib.import_module(f"cocyclelab.{module}")
                classes = [c for c in _subclasses(_lookup(mod, base))
                           if attr in vars(c)]
                if not classes:
                    raise AttributeError(
                        f"no subclass of {module}.{base} defines {attr!r}; "
                        f"update the benchmark's trace map")
                for cls in classes:
                    self._patch_method(
                        mod, cls, attr,
                        lambda fn, layer=layer,
                        target=target_name(module, cls.__name__, attr):
                        self._counted(layer, target, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _canon(self, target: str, fn: Callable, keep: bool) -> Callable:
        """`CylinderSet.of` also counts its input words; the iterable is
        materialized first, which `of` does itself anyway."""
        timed = self._timed("measure.canon", target, fn, keep)
        tracer = self

        @functools.wraps(fn)
        def wrapper(words):
            words = list(words)
            tracer.counts[tracer.phase]["measure.canon.words_in"] += len(words)
            return timed(words)

        return wrapper

    def _patch_function(self, mod, attr: str, wrapper: Callable) -> None:
        original = wrapper.__wrapped__
        prefix = mod.__name__.split(".")[0] + "."
        for name, module in list(sys.modules.items()):
            if module is None or not (name + ".").startswith(prefix):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def _patch_method(self, mod, owner, attr: str,
                      make: Callable[[Callable], Callable]) -> None:
        cls = _lookup(mod, owner) if isinstance(owner, str) else owner
        if attr not in vars(cls):
            raise AttributeError(
                f"{cls.__module__}.{cls.__name__} defines no {attr!r}; "
                f"update the benchmark's trace map")
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    # -- output -------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON object per kept span; times are seconds on the
        process's monotonic clock."""
        with open(path, "w") as fh:
            for span_id, parent, layer, start, end, phase, pass_index, error \
                    in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": layer,
                    "start": start, "end": end, "phase": phase,
                    "pass": pass_index, "error": error,
                }, sort_keys=True) + "\n")


def target_name(module: str, owner: Optional[str], attr: str) -> str:
    """Key of a traced function in `Tracer.target_calls`."""
    return ".".join(x for x in (module, owner, attr) if x)


def _lookup(mod, name: str):
    if not hasattr(mod, name):
        raise AttributeError(
            f"{mod.__name__} has no {name!r}; update the benchmark's trace map")
    return getattr(mod, name)


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _after_increment(tracer: Tracer, args, result, failed) -> None:
    if result is not None:
        tracer.count("cocycles.increment.words", 2 ** result.depth)


def _after_search(tracer: Tracer, args, result, failed) -> None:
    if failed is not None and type(failed).__name__ == "SearchExhausted":
        tracer.count("evc.search.exhausted")


def _after_checkpoint(tracer: Tracer, args, result, failed) -> None:
    if failed is None:
        path = os.path.join(args[1], "checkpoint.json")
        tracer.count("driver.checkpoint.bytes", os.path.getsize(path))


_AFTER = {
    "cocycles.increment": _after_increment,
    "evc.search": _after_search,
    "driver.checkpoint": _after_checkpoint,
}
