"""Group-valued step functions on the sequence space and their cocycles.

A step function assigns a group element to every word of a fixed depth.
Its values are one dense tuple indexed by `measure.word_index`, so every
loop here runs over integer indices; words appear only where tables are
read or written.  Its coboundary increments f(sigma x) f(x)^-1 along the
generators are step functions too, whose values are None exactly on the
generators' truncation remainders.  Predicates count that undefined mass
explicitly instead of silently passing it.

The two-point cocycle that witnesses and connectivity read is always
the coboundary c(a, b) = f(a) f(b)^-1 of the current step function f,
on pairs of words that agree beyond the depth of f; it is read off the
potential's table directly, never stored.  `kernel_csv` writes it out.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

from .errors import DepthMismatch
from .groups import GroupModel, Element
from .measure import (ONE, ZERO, CylinderSet, ProductMeasure, Word, all_words,
                      word_index)
from .odometer import Flip, GammaAction, Odometer

HALF = Fraction(1, 2)

KERNEL_EXPORT_DEPTH = 8  # deepest potential whose kernel is exported as CSV


@dataclass(frozen=True)
class StepFunction:
    """A total map from depth-`depth` words to group elements: `values`
    holds the value of each word at its `word_index`."""

    model: GroupModel
    depth: int
    values: tuple

    def __post_init__(self):
        expected = 1 << self.depth
        if len(self.values) != expected:
            raise DepthMismatch(
                f"table has {len(self.values)} entries, needs {expected} at depth {self.depth}")

    @staticmethod
    def from_table(model: GroupModel,
                   table: Mapping[Word, Element]) -> "StepFunction":
        """The step function of a word-keyed table, whose keys must be
        exactly the words of one depth."""
        if not table:
            raise DepthMismatch("table has no words")
        depth = len(next(iter(table)))
        values = [None] * (1 << depth)
        for w, v in table.items():
            if len(w) != depth or w.strip("01"):
                raise DepthMismatch(
                    f"table key {w!r} is not a 0/1 word of depth {depth}")
            values[word_index(w)] = v
        if len(table) != len(values):
            missing = next(w for w in all_words(depth) if w not in table)
            raise DepthMismatch(f"table lacks the word {missing!r}")
        return StepFunction(model, depth, tuple(values))

    @cached_property
    def _increments(self) -> dict:
        """`coboundary_increment`'s results for this function, keyed by
        generator; they live exactly as long as the function."""
        return {}

    @cached_property
    def _witnesses(self) -> dict:
        """`evc.check_evc`'s outcomes on this function's kernel, keyed by
        the search's inputs."""
        return {}

    @cached_property
    def _refinements(self) -> dict:
        return {}

    def values_at(self, depth: int) -> tuple:
        """The values restated at `depth`, at least this function's own,
        by word index: each value repeated over the extensions of its
        word.  Kept per depth on the function."""
        if depth == self.depth:
            return self.values
        values = self._refinements.get(depth)
        if values is None:
            if depth < self.depth:
                raise DepthMismatch(
                    f"cannot restate depth {self.depth} at depth {depth}")
            values = self._refinements[depth] = tuple(chain.from_iterable(
                repeat(v, 1 << (depth - self.depth)) for v in self.values))
        return values

    def value_set(self) -> tuple:
        """The distinct values, by canonical key; None is no value."""
        model = self.model
        seen = {model.key(v): v for v in dict.fromkeys(self.values)
                if v is not None}
        return tuple(seen[k] for k in sorted(seen))

    def level_set(self, value: Element) -> CylinderSet:
        return CylinderSet.from_indices(
            self.depth, [i for i, v in enumerate(self.values) if v == value])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["word", "value"])
        writer.writerows(zip(all_words(self.depth),
                             map(self.model.format, self.values)))
        return buf.getvalue()


def kernel_csv(f: StepFunction) -> str:
    """The kernel c(a, b) = f(a) f(b)^-1 of `f` as CSV: one row per pair
    of words of its depth, in word order."""
    model = f.model
    words = tuple(all_words(f.depth))
    inverses = [model.inv(v) for v in f.values]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["source", "target", "value"])
    for a, fa in zip(words, f.values):
        writer.writerows(
            (a, b, model.format(model.mul(fa, fb_inv)))
            for b, fb_inv in zip(words, inverses))
    return buf.getvalue()


@dataclass(frozen=True)
class PartialStepFunction(StepFunction):
    """A coboundary increment: a step function whose `values` hold None
    exactly on its generator's truncation remainder, where the increment
    is unknown.  Predicates must count those entries and report them."""

    def __post_init__(self):
        # the table-length check, defined on this class so that
        # perfbench/tracer.py can time increment construction through it
        super().__post_init__()


def coboundary_increment(f: StepFunction,
                         sigma: Odometer | Flip) -> PartialStepFunction:
    """The increment x -> f(sigma x) f(x)^-1 at the depth of `f` or of
    `sigma`, whichever is deeper, None on the remainder of the
    truncated `sigma`.

    Computed once per generator and kept on `f`, so a repeated call
    returns the same object, whose values are a tuple.  The generator is
    keyed by value: actions are rebuilt every round."""
    memo = f._increments
    part = memo.get(sigma)
    if part is None:
        e = max(f.depth, sigma.max_depth)
        mul, inv = f.model.mul, f.model.inv
        values = f.values_at(e)
        part = memo[sigma] = PartialStepFunction(f.model, e, tuple(
            None if j < 0 else mul(values[j], inv(v))
            for j, v in zip(sigma.index_map(e), values)))
    return part


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def trivial_on_overflow(f: StepFunction, over: CylinderSet) -> bool:
    """Whether `f` is the identity on `over`, the action's
    `orbit_overflow` at some level: that is what makes `f` inner at that
    level.  The overflow includes the generators' undefined remainders,
    so a non-identity value there fails too."""
    one = f.model.identity()
    depth = max(f.depth, over.max_depth)
    values = f.values_at(depth)
    return all(values[i] == one for i in over.indices(depth))


def increments_within(f: StepFunction, action: GammaAction,
                      allowed: Iterable[Element]) -> bool:
    """Whether every defined increment value lies in {identity} + allowed;
    truncation remainders are not judged."""
    keys = {f.model.key(f.model.identity())}
    keys.update(f.model.key(h) for h in allowed)
    return all(v is None or f.model.key(v) in keys
               for g in action.generators
               for v in set(coboundary_increment(f, g).values))


def cocycle_distance(first: Sequence[PartialStepFunction],
                     second: Sequence[PartialStepFunction],
                     mu: ProductMeasure) -> Fraction:
    """An upper bound on the distance between two per-generator increment
    families: the sum over generators j of 2^-j times the expected
    truncated metric between the j-th increments, a word where either is
    undefined (None) counting at the worst metric 1.  Computed exactly on
    the cylinder algebra: each gap's cylinder masses are summed as
    integer numerators over the level's common denominator."""
    if len(first) != len(second):
        raise DepthMismatch(
            f"families enumerate {len(first)} and {len(second)} generators")
    total = ZERO
    weight = ONE
    for u1, u2 in zip(first, second):
        weight *= HALF
        if u1.model.name != u2.model.name:
            raise ValueError("increment families live over different group models")
        depth = max(u1.depth, u2.depth)
        masses, denominator = mu.level_masses(depth)
        metric = u1.model.metric
        # mass numerator summed per gap; equal values are at distance 0
        per_gap: dict[Fraction, int] = {}
        for a, b, m in zip(u1.values_at(depth), u2.values_at(depth), masses):
            if a is None or b is None:
                gap = ONE
            elif a == b:
                continue
            else:
                gap = min(ONE, metric(a, b))
            if gap:
                per_gap[gap] = per_gap.get(gap, 0) + m
        total += weight * sum((gap * Fraction(m, denominator)
                               for gap, m in per_gap.items()), ZERO)
    return total


def increment_agreement(old: StepFunction, new: StepFunction,
                        action: GammaAction) -> dict[str, CylinderSet]:
    """Per generator label, the set where its increment of `new` is
    defined and equals that of `old`; undecided truncation mass is
    excluded (conservative)."""
    agreement: dict[str, CylinderSet] = {}
    for g in action.generators:
        u_old = coboundary_increment(old, g)
        u_new = coboundary_increment(new, g)
        e = max(u_old.depth, u_new.depth)
        agreement[g.label] = CylinderSet.from_indices(e, [
            i for i, (a, b) in enumerate(zip(u_old.values_at(e),
                                             u_new.values_at(e)))
            if a is not None and a == b])
    return agreement
