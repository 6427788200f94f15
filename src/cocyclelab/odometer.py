"""Tail-preserving transformations of the dyadic sequence space.

Two kinds of maps are used throughout:

* :class:`FiniteDepthMap` -- a permutation of the depth-M words, extended
  to sequences by keeping every coordinate beyond M.  These are exactly
  the full-group elements of the level-M finite relation.
* the action's generators, each a rule: :class:`Odometer`, the dyadic
  adding machine truncated at a declared depth, whose carry past that
  depth is an explicit undefined remainder, and :class:`Flip`, which
  flips one coordinate.  Each reads off its own index table at any
  depth, remainder, overflow set and distortion in closed form, without
  listing words.

Both kinds preserve the tail relation by construction: a point and its
image agree beyond the rewritten prefix.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, repeat
from typing import Collection, Iterable, Sequence

from .errors import BudgetExhausted, ConfigError, DepthMismatch, MalformedInput
from .measure import (ONE, ZERO, CylinderSet, ProductMeasure, Word,
                      all_binary, all_words, check_word, kept)


@dataclass(frozen=True)
class FiniteDepthMap:
    """A permutation of the depth-`depth` words, identity beyond.

    ``table`` holds the image of each depth word by word index (see
    `measure.index_word`), so the map moves the top `depth` bits of a
    deeper index and keeps the rest.  Words appear only in `from_moves`
    and `word_moves`, the map's form in reports.
    """

    depth: int
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != 1 << self.depth:
            raise DepthMismatch(
                f"table has {len(self.table)} entries, needs {1 << self.depth} "
                f"at depth {self.depth}")
        if sorted(self.table) != list(range(1 << self.depth)):
            raise MalformedInput("the moves must permute their own words")

    @staticmethod
    def identity(depth: int) -> "FiniteDepthMap":
        return FiniteDepthMap(depth, tuple(range(1 << depth)))

    @staticmethod
    def from_pairs(depth: int, pairs: Iterable[tuple[int, int]]) -> "FiniteDepthMap":
        """Involution swapping the words with indices a and b for each
        disjoint pair (a, b) of depth-`depth` word indices."""
        table = list(range(1 << depth))
        for a, b in pairs:
            table[a], table[b] = b, a
        return FiniteDepthMap(depth, tuple(table))

    @staticmethod
    def from_moves(depth: int,
                   moves: Collection[tuple[Word, Word]]) -> "FiniteDepthMap":
        """The map of (word, image) pairs as `word_moves` lists them;
        unlisted words are fixed.  The moves are checked as a whole; the
        loop names the first bad one."""
        table = list(range(1 << depth))
        try:
            whole = (set(map(len, moves)) <= {2}
                     and set(map(len, chain.from_iterable(moves))) <= {depth}
                     and all_binary(chain.from_iterable(moves)))
        except TypeError:  # a move or a word of another type
            whole = False
        for s, t in () if whole else moves:
            if len(s) != depth or len(t) != depth:
                raise DepthMismatch("all moved words must have the map's depth")
            check_word(s), check_word(t)
        # the one map of depth 0 is the identity (and `int` does not read "")
        indices = map(int, chain.from_iterable(moves) if depth else (), repeat(2))
        for s, t in zip(indices, indices):
            table[s] = t
        return FiniteDepthMap(depth, tuple(table))

    def word_moves(self) -> list[tuple[Word, Word]]:
        """(word, image) for each word the map moves, in word order."""
        words = list(all_words(self.depth))
        return [(words[i], words[j]) for i, j in enumerate(self.table) if i != j]

    def index_map(self, depth: int) -> tuple[int, ...]:
        """The table restated at `depth`, at least the map's own: entry i
        is the index of the image of the depth-`depth` word with index i."""
        if depth < self.depth:
            raise DepthMismatch(
                f"word of depth {depth} too shallow for depth-{self.depth} map")
        if depth == self.depth:
            return self.table
        span = 1 << (depth - self.depth)
        return tuple(chain.from_iterable(
            range(j * span, (j + 1) * span) for j in self.table))


@dataclass(frozen=True)
class Odometer:
    """The dyadic adding machine truncated at `depth`: it adds `step` (1
    for T, -1 for T~) to the sequence read least significant coordinate
    first.  T turns 1^k 0 into 0^k 1 for each k < depth; the carry past
    coordinate `depth`, on 1^depth (0^depth for T~), is undecided, and
    those points are the map's undefined remainder."""

    depth: int
    step: int

    def __post_init__(self):
        if self.depth < 1 or self.step not in (1, -1):
            raise ValueError("depth must be >= 1 and step 1 or -1")

    @property
    def label(self) -> str:
        return "T" if self.step == 1 else "T~"

    @property
    def max_depth(self) -> int:
        return self.depth

    def inverse(self) -> "Odometer":
        return Odometer(self.depth, -self.step)

    def overflow(self, level: int) -> CylinderSet:
        """The points whose carry reaches past `level`, the remainder
        among them: the cylinder 1^k (0^k for T~), k = min(level, depth)."""
        k = min(level, self.depth)
        i = (1 << k) - 1 if self.step == 1 else 0
        return CylinderSet(k, (i, i + 1))

    @property
    def remainder(self) -> CylinderSet:
        """Where the map is undefined: the carry past `depth`."""
        return self.overflow(self.depth)

    def index_map(self, depth: int) -> tuple[int, ...]:
        """The exact carry on the depth-`depth` prefixes, by word index
        (see `index_word`): entry i is the index of the image of word i
        under adding `step` modulo 2^depth, so T maps 1^depth to 0^depth.
        A prefix's image does not depend on the coordinates beyond it;
        the truncation is `remainder`, kept beside the table.  The carry
        of length k maps one block of 2^(depth - k - 1) indices onto
        another."""
        out = [0] * (1 << depth)
        for k in range(depth):
            # 1^k 0 and 0^k 1 have the indices 2^(k+1) - 2 and 1 at depth
            # k + 1; T maps the first onto the second, T~ the reverse
            s, t = ((2 << k) - 2, 1)[::self.step]
            size = 1 << (depth - k - 1)
            out[s * size:(s + 1) * size] = range(t * size, (t + 1) * size)
        # the carry across all of 1^depth wraps to 0^depth, for T~ the
        # reverse
        s, t = ((1 << depth) - 1, 0)[::self.step]
        out[s] = t
        return tuple(out)

    def distortion(self, mu: ProductMeasure) -> Fraction:
        """The largest derivative d(mu o map)/d(mu) over the carries, and
        1: mu(0^k 1) / mu(1^k 0) for T, the inverse ratio for T~."""
        return max([ONE] + [mu.ratio(*("1" * k + "0", "0" * k + "1")[::self.step])
                            for k in range(self.depth)])


@dataclass(frozen=True)
class Flip:
    """The involution flipping coordinate `coord` (1-based)."""

    coord: int

    def __post_init__(self):
        if self.coord < 1:
            raise ValueError("coordinate must be >= 1")

    @property
    def label(self) -> str:
        return f"s{self.coord}"

    @property
    def max_depth(self) -> int:
        return self.coord

    def inverse(self) -> "Flip":
        return self

    def overflow(self, level: int) -> CylinderSet:
        """The points the flip throws out of their level-`level` class:
        all of them when `coord` is beyond `level`, else none."""
        return CylinderSet.full() if self.coord > level else CylinderSet.empty()

    @property
    def remainder(self) -> CylinderSet:
        """Empty: a flip is defined everywhere."""
        return CylinderSet.empty()

    def index_map(self, depth: int) -> tuple[int, ...]:
        """The map on all depth-`depth` words at once, by word index:
        block b of 2^(depth - coord) indices maps onto block b ^ 1; the
        identity when `coord` lies beyond `depth`."""
        if depth < self.coord:
            return tuple(range(1 << depth))
        size = 1 << (depth - self.coord)
        return tuple(chain.from_iterable(
            range((b ^ 1) * size, ((b ^ 1) + 1) * size)
            for b in range(1 << self.coord)))

    def distortion(self, mu: ProductMeasure) -> Fraction:
        """The larger derivative of the flip at coordinate `coord`, and 1."""
        zero, one = "0" * self.coord, "0" * (self.coord - 1) + "1"
        return max(ONE, mu.ratio(zero, one), mu.ratio(one, zero))


@dataclass(frozen=True)
class GammaAction:
    """A symmetric generator list acting on the sequence space.

    ``generators`` fixes the enumeration order used for distances and
    reports.  Symmetry is structural: for every generator its inverse
    must also appear in the list.
    """

    generators: tuple[Odometer | Flip, ...]

    def __post_init__(self):
        if not self.generators:
            raise ConfigError("an action needs at least one generator")
        if len(set(self.generators)) < len(self.generators):
            raise ConfigError(f"the action lists a generator twice: "
                              f"{[g.label for g in self.generators]}")
        self.inverse_groups()

    def inverse_groups(self) -> list[tuple[str, ...]]:
        """The generator labels in inverse-closed groups, in list order: a
        self-inverse generator alone, otherwise the generator with its
        inverse.  Per-generator ledgers are kept per group, so they stay
        well-defined.  Raises :class:`ConfigError` when some generator's
        inverse is missing."""
        out: list[tuple[str, ...]] = []
        for g in self.generators:
            inverse = g.inverse()
            if inverse not in self.generators:
                raise ConfigError(f"the action is not symmetric: the inverse "
                                  f"of {g.label} is missing")
            if all(g.label not in group for group in out):
                out.append((g.label,) if inverse == g else (g.label, inverse.label))
        return out

    @kept
    def max_distortion_sum(self, mu: ProductMeasure) -> Fraction:
        """The generators' distortions summed."""
        return sum((g.distortion(mu) for g in self.generators), ZERO)


def adding_machine_action(depth: int) -> GammaAction:
    return GammaAction((Odometer(depth, 1), Odometer(depth, -1)))


def flip_action(coords: Sequence[int]) -> GammaAction:
    return GammaAction(tuple(Flip(c) for c in sorted(coords)))


# ---------------------------------------------------------------------------
# Orbit overflow and hulls
# ---------------------------------------------------------------------------

@kept
def orbit_overflow(action: GammaAction, level: int) -> CylinderSet:
    """The set of points that some generator throws out of their
    level-`level` class, with the generators' undefined remainders,
    where escape cannot be decided: a sound upper bound."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return reduce(CylinderSet.union,
                  (g.overflow(level) for g in action.generators))


# ---------------------------------------------------------------------------
# Exchange involution
# ---------------------------------------------------------------------------

def exchange_involution(
    mu: ProductMeasure,
    eps: Fraction,
    max_depth: int,
    leftover: Fraction,
) -> FiniteDepthMap:
    """Build tau with tau^2 = id, tau(x) != x except on a fixed remainder
    of measure < `leftover`, and with |d(mu o tau)/d(mu) - 1| < `eps`
    everywhere.  The fixed points of tau are the unpaired remainder.

    Strategy: list the words of one depth; pair equal-measure words in
    lexicographic order; pair the odd ones out greedily under the
    two-sided ratio constraint, largest measure first.  If the unpaired
    mass is still >= `leftover`, restart one level deeper (restarting,
    rather than refining only leftovers, lets new equal-measure partners
    appear across old pair boundaries).  Raises :class:`BudgetExhausted`
    when `max_depth` is reached first.  Words are handled by index and
    measures by the level's integer mass numerators.
    """
    eps, leftover = Fraction(eps), Fraction(leftover)
    if eps <= 0 or leftover <= 0:
        raise ValueError("eps and leftover must be positive")
    p, q = eps.numerator, eps.denominator

    least = ONE  # least unpaired mass over the depths tried
    for depth in range(1, max_depth + 1):
        masses, denominator = mu.level_masses(depth)
        pairs: list[tuple[int, int]] = []
        unpaired: list[int] = []
        by_measure: dict[int, list[int]] = {}
        for i, m in enumerate(masses):
            by_measure.setdefault(m, []).append(i)
        for m in sorted(by_measure):
            group = by_measure[m]
            for i in range(0, len(group) - 1, 2):
                pairs.append((group[i], group[i + 1]))
            if len(group) % 2:
                unpaired.append(group[-1])
        # greedy ratio pass over the odd ones out, largest measure first;
        # both derivative deviations |n_b - n_a| / n_a and / n_b below eps,
        # the one over the lighter word n_b being the larger
        unpaired.sort(key=lambda i: (-masses[i], i))
        used = [False] * len(unpaired)
        leftovers: list[int] = []
        for i, a in enumerate(unpaired):
            if used[i]:
                continue
            na = masses[a]
            for j in range(i + 1, len(unpaired)):
                nb = masses[unpaired[j]]
                if not used[j] and (na - nb) * q < p * nb:
                    pairs.append((a, unpaired[j]))
                    used[i] = used[j] = True
                    break
            if not used[i]:
                leftovers.append(a)
        remaining = Fraction(sum(masses[i] for i in leftovers), denominator)
        if remaining < leftover:
            return FiniteDepthMap.from_pairs(depth, pairs)
        least = min(least, remaining)
    raise BudgetExhausted(
        f"no involution within depth {max_depth}: "
        f"unpaired mass {least} >= {leftover}")
