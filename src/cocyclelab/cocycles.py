"""Group-valued step functions on the sequence space and their cocycles.

A step function assigns a group element to every word of a fixed depth.
Its values are one dense tuple in word order (`measure.index_word`), so every
loop here runs over integer indices; words appear only where tables are
read or written.  Its coboundary increments f(sigma x) f(x)^-1 along the
generators are step functions at the potential's own depth: a generator
maps the prefixes of that depth among themselves, so the increment is
read off one index table, and a truncated generator's undefined
remainder is kept beside the table as a set.  Predicates read the
increments at the depth of the potentials, never at the generators',
and count the remainder's mass explicitly instead of silently passing
it.  Two potentials' increments are paired once, into the agreement
sets, and the distance between them is those sets' disagreement mass.

The two-point cocycle that witnesses and connectivity read is always
the coboundary c(a, b) = f(a) f(b)^-1 of the current step function f,
on pairs of words that agree beyond the depth of f; it is read off the
potential's table directly, never stored.  `kernel_csv` writes it out.
"""
from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import eq, ne
from typing import Iterable, Mapping

from .errors import DepthMismatch
from .groups import GroupModel, Element
from .measure import (ONE, ZERO, CylinderSet, ProductMeasure, Word, all_binary,
                      all_words, index_word, kept)
from .odometer import Flip, GammaAction, Odometer

KERNEL_EXPORT_DEPTH = 8  # deepest potential whose kernel is exported as CSV


@dataclass(frozen=True)
class StepFunction:
    """A total map from depth-`depth` words to group elements: `values`
    holds the value of each word at its index (see `index_word`)."""

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
        exactly the words of one depth: 2^depth 0/1 keys of that length."""
        if not table:
            raise DepthMismatch("table has no words")
        depth = len(next(iter(table)))
        if (len(table) == 1 << depth and set(map(len, table)) == {depth}
                and all_binary(table)):
            return StepFunction(model, depth,
                                tuple(map(table.__getitem__, sorted(table))))
        for w in table:
            if len(w) != depth or w.strip("01"):
                raise DepthMismatch(
                    f"table key {w!r} is not a 0/1 word of depth {depth}")
        # lazily, listing no depth of words: one key of length 60 sets depth 60
        missing = next(w for w in map(index_word, range(1 << depth),
                                      repeat(depth)) if w not in table)
        raise DepthMismatch(f"table lacks the word {missing!r}")

    @kept
    def values_at(self, depth: int) -> tuple:
        """The values restated at `depth`, at least this function's own,
        by word index: each value repeated over the extensions of its
        word."""
        if depth == self.depth:
            return self.values
        if depth < self.depth:
            raise DepthMismatch(
                f"cannot restate depth {self.depth} at depth {depth}")
        return tuple(chain.from_iterable(
            repeat(v, 1 << (depth - self.depth)) for v in self.values))

    def _judged_values(self) -> Iterable:
        """The values a predicate reads: all of them."""
        return self.values

    def value_set(self) -> tuple:
        """The distinct values, by canonical key."""
        model = self.model
        seen = {model.key(v): v for v in dict.fromkeys(self._judged_values())}
        return tuple(seen[k] for k in sorted(seen))

    def level_set(self, value: Element) -> CylinderSet:
        return CylinderSet.from_indices(self.depth, list(compress(
            count(), map(eq, self.values, repeat(value)))))

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
    """A coboundary increment: a step function at its potential's depth
    and its generator's undefined `remainder`, where the increment is
    unknown.  A cell's value holds on the cell outside the remainder;
    predicates skip the cells wholly inside it and count its mass."""

    remainder: CylinderSet

    def __post_init__(self):
        # the table-length check, defined on this class so that
        # perfbench/tracer.py can time increment construction through it
        super().__post_init__()

    def _judged_values(self) -> Iterable:
        """The values of the cells not wholly inside the remainder."""
        if not self.remainder.edges:
            return self.values
        edges = [0, *chain.from_iterable(self.remainder.cells(self.depth)),
                 len(self.values)]
        return chain.from_iterable(self.values[lo:hi]
                                   for lo, hi in zip(edges[::2], edges[1::2]))


@kept
def coboundary_increment(f: StepFunction,
                         sigma: Odometer | Flip) -> PartialStepFunction:
    """The increment x -> f(sigma x) f(x)^-1 at the depth of `f`, with
    the remainder of the truncated `sigma`: `sigma` maps the prefixes of
    that depth among themselves (`index_map`), so the increment depends
    on them alone.  Kept on `f` per generator, keyed by value (rounds'
    actions share generators)."""
    # a generator expression: on Python 3.11 it calls the model's
    # Python-level mul and inv faster than map does
    mul, inv, values = f.model.mul, f.model.inv, f.values
    return PartialStepFunction(f.model, f.depth, tuple(
        mul(values[j], inv(v))
        for j, v in zip(sigma.index_map(f.depth), values)), sigma.remainder)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def trivial_on_overflow(f: StepFunction, over: CylinderSet) -> bool:
    """Whether `f` is the identity on `over`, the action's
    `orbit_overflow` at some level: that is what makes `f` inner at that
    level.  The overflow includes the generators' undefined remainders,
    so a non-identity value there fails too.  Read on the cells of `f`
    that meet `over`."""
    one, values = f.model.identity(), f.values
    return all(values[i] == one for lo, hi in over.cells(f.depth, meeting=True)
               for i in range(lo, hi))


def increments_within(f: StepFunction, action: GammaAction,
                      allowed: Iterable[Element]) -> bool:
    """Whether every defined increment value lies in {identity} + allowed;
    truncation remainders are not judged."""
    keys = {f.model.key(f.model.identity())}
    keys.update(f.model.key(h) for h in allowed)
    return all(f.model.key(v) in keys for g in action.generators
               for v in set(coboundary_increment(f, g)._judged_values()))


def increment_agreement(old: StepFunction, new: StepFunction,
                        action: GammaAction) -> dict[str, CylinderSet]:
    """Per generator label, in the action's generator order, the set
    where its increment of `new` is defined and equals that of `old`:
    the complement of the cells whose values differ at the increments'
    depth, less the generator's remainder, whose undecided mass is
    excluded (conservative).  Only the differing cells are listed, so a
    nearly full set costs little; the remainder's whole cells join them,
    and only a remainder deeper than the cells is subtracted as a set."""
    agreement: dict[str, CylinderSet] = {}
    for g in action.generators:
        u_old = coboundary_increment(old, g)
        u_new = coboundary_increment(new, g)
        e, remainder = max(u_old.depth, u_new.depth), u_old.remainder
        moved = list(compress(
            count(), map(ne, u_old.values_at(e), u_new.values_at(e))))
        for lo, hi in remainder.cells(e):
            moved[bisect_left(moved, lo):bisect_left(moved, hi)] = range(lo, hi)
        same = CylinderSet.from_indices(e, moved).complement()
        agreement[g.label] = (same.difference(remainder)
                              if remainder.max_depth > e else same)
    return agreement


def cocycle_distance(agreement: Mapping[str, CylinderSet],
                     mu: ProductMeasure) -> Fraction:
    """An upper bound on the distance between the increment families of
    two potentials under one action, read off their `increment_agreement`
    sets: the sum over generators j, in the action's order, of 2^-j times
    the mass where the j-th increments differ or are undefined.  That is
    the expected truncated metric min(1, d), the remainder counting at
    the worst value 1: the models are discrete with integer-valued
    metrics, so the truncation is 0 on equal elements and 1 on distinct
    ones."""
    return sum(((ONE - same.measure(mu)) / (1 << j)
                for j, same in enumerate(agreement.values(), 1)), ZERO)
