"""Tail-preserving transformations of the dyadic sequence space.

Two kinds of maps are used throughout:

* :class:`FiniteDepthMap` -- a permutation of the depth-M words, extended
  to sequences by keeping every coordinate beyond M.  These are exactly
  the full-group elements of the level-M finite relation.
* :class:`PiecewiseCylinderMap` -- a countable cylinder-exchange map
  truncated at a working depth: finitely many pieces, each rewriting one
  source prefix to an equal-length target prefix, plus an explicit
  undefined remainder.  The dyadic adding machine and coordinate flips
  are built this way.

Both kinds preserve the tail relation by construction: a point and its
image agree beyond the rewritten prefix.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .errors import BudgetExhausted, ConfigError, DepthMismatch, MalformedInput
from .measure import (ONE, ZERO, CylinderSet, ProductMeasure, Word, all_words,
                      check_word, index_word, word_index)


@dataclass(frozen=True)
class FiniteDepthMap:
    """A permutation of the depth-`depth` words, identity beyond.

    ``table`` holds the image of each depth word by word index (see
    `measure.word_index`), so the map moves the top `depth` bits of a
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

    @cached_property
    def _index_maps(self) -> dict:
        return {}

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
                   moves: Iterable[tuple[Word, Word]]) -> "FiniteDepthMap":
        """The map of (word, image) pairs as `word_moves` lists them;
        unlisted words are fixed."""
        table = list(range(1 << depth))
        for s, t in moves:
            if len(s) != depth or len(t) != depth:
                raise DepthMismatch("all moved words must have the map's depth")
            table[word_index(check_word(s))] = word_index(check_word(t))
        return FiniteDepthMap(depth, tuple(table))

    def word_moves(self) -> list[tuple[Word, Word]]:
        """(word, image) for each word the map moves, in word order."""
        return [(index_word(i, self.depth), index_word(j, self.depth))
                for i, j in enumerate(self.table) if i != j]

    def index_map(self, depth: int) -> tuple[int, ...]:
        """The table restated at `depth`, at least the map's own: entry i
        is the index of the image of the depth-`depth` word with index i.
        Kept per depth on the map."""
        if depth == self.depth:
            return self.table
        table = self._index_maps.get(depth)
        if table is None:
            if depth < self.depth:
                raise DepthMismatch(
                    f"word of depth {depth} too shallow for depth-{self.depth} map")
            span = 1 << (depth - self.depth)
            table = self._index_maps[depth] = tuple(chain.from_iterable(
                range(j * span, (j + 1) * span) for j in self.table))
        return table


@dataclass(frozen=True)
class PiecewiseCylinderMap:
    """Prefix-rewriting map with an explicit undefined remainder.

    ``pieces`` is a tuple of (source, target) words of equal length per
    piece; sources are pairwise disjoint cylinders and so are targets.
    The map sends ``source + tail`` to ``target + tail``.  Points in no
    source cylinder are outside the truncated domain; that remainder is
    reported, never silently mapped.
    """

    name: str
    pieces: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        srcs = [s for s, _ in self.pieces]
        tgts = [t for _, t in self.pieces]
        for s, t in self.pieces:
            if len(s) != len(t):
                raise DepthMismatch(f"piece {s}->{t} has unequal depths")
            check_word(s), check_word(t)
        for col in (srcs, tgts):
            seen = sorted(col)
            for i in range(len(seen) - 1):
                if seen[i + 1].startswith(seen[i]):
                    raise ValueError(f"{self.name}: overlapping piece cylinders {seen[i]}, {seen[i+1]}")

    @property
    def max_depth(self) -> int:
        return max((len(s) for s, _ in self.pieces), default=0)

    def remainder(self) -> CylinderSet:
        """Cylinders where the truncated map is undefined."""
        return CylinderSet.of(s for s, _ in self.pieces).complement()

    @cached_property
    def _index_maps(self) -> dict:
        return {}

    def index_map(self, depth: int) -> tuple[int, ...]:
        """The map on all depth-`depth` words at once, by word index (see
        `word_index`): entry i is the index of the image of word i, or -1
        on the remainder.  Each piece maps one contiguous index range
        onto another.  Kept per depth on the map."""
        table = self._index_maps.get(depth)
        if table is None:
            if depth < self.max_depth:
                raise DepthMismatch(
                    f"depth {depth} too shallow to decide the pieces of {self.name}")
            out = [-1] * (1 << depth)
            for s, t in self.pieces:
                size = 1 << (depth - len(s))
                start, image = word_index(s) * size, word_index(t) * size
                out[start:start + size] = range(image, image + size)
            table = self._index_maps[depth] = tuple(out)
        return table

    def inverse(self) -> "PiecewiseCylinderMap":
        inv_name = self.name[:-1] if self.name.endswith("~") else self.name + "~"
        return PiecewiseCylinderMap(inv_name, tuple((t, s) for s, t in self.pieces))

    @cached_property
    def _distortions(self) -> dict:
        return {}

    def distortion(self, mu: ProductMeasure) -> Fraction:
        """max over pieces of measure(target)/measure(source).  Kept per
        measure on the map."""
        worst = self._distortions.get(mu)
        if worst is None:
            worst = self._distortions[mu] = max(
                [ONE] + [mu.ratio(s, t) for s, t in self.pieces])
        return worst


def adding_machine(depth: int) -> PiecewiseCylinderMap:
    """Binary odometer (least significant coordinate first), truncated so
    that carries of length `depth` land in the undefined remainder."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pieces = tuple(("1" * k + "0", "0" * k + "1") for k in range(depth))
    return PiecewiseCylinderMap("T", pieces)


def coordinate_flip(coord: int) -> PiecewiseCylinderMap:
    """The involution flipping coordinate `coord` (1-based); depth `coord`."""
    if coord < 1:
        raise ValueError("coordinate must be >= 1")
    pieces = []
    for w in all_words(coord):
        flipped = w[:-1] + ("1" if w[-1] == "0" else "0")
        pieces.append((w, flipped))
    return PiecewiseCylinderMap(f"s{coord}", tuple(pieces))


@dataclass(frozen=True)
class GammaAction:
    """A symmetric generator list acting on the sequence space.

    ``generators`` fixes the enumeration order used for distances and
    reports.  Symmetry is structural: for every generator its inverse
    map (pieces reversed) must also appear in the list.
    """

    name: str
    generators: tuple[tuple[str, PiecewiseCylinderMap], ...]

    def __post_init__(self):
        self.inverse_groups()

    def inverse_groups(self) -> list[tuple[str, ...]]:
        """The generator labels in inverse-closed groups, in list order: a
        self-inverse generator alone, otherwise the generator with the
        first listed generator inverse to it.  Per-generator ledgers are
        kept per group, so they stay well-defined.  Raises
        :class:`ConfigError` when some generator's inverse is missing."""
        first_label: dict[frozenset, str] = {}
        for label, g in self.generators:
            first_label.setdefault(frozenset(g.pieces), label)
        out: list[tuple[str, ...]] = []
        seen: set[str] = set()
        for label, g in self.generators:
            inverse = frozenset((t, s) for s, t in g.pieces)
            if inverse not in first_label:
                raise ConfigError(f"action {self.name} is not symmetric: "
                                  "missing inverse of a generator")
            if label in seen:
                continue
            pieces = frozenset(g.pieces)
            group = (label,) if inverse == pieces else (label, first_label[inverse])
            out.append(group)
            seen.update(group)
        return out

    def maps(self) -> list[PiecewiseCylinderMap]:
        return [g for _, g in self.generators]

    def max_distortion_sum(self, mu: ProductMeasure) -> Fraction:
        return sum((g.distortion(mu) for _, g in self.generators), ZERO)


def adding_machine_action(depth: int) -> GammaAction:
    t = adding_machine(depth)
    return GammaAction("adding-machine", (("T", t), ("T~", t.inverse())))


def flip_action(coords: Sequence[int]) -> GammaAction:
    gens = tuple((f"s{c}", coordinate_flip(c)) for c in sorted(coords))
    return GammaAction("coordinate-flips", gens)


# ---------------------------------------------------------------------------
# Orbit overflow and hulls
# ---------------------------------------------------------------------------

def orbit_overflow(action: GammaAction, level: int) -> CylinderSet:
    """The set of points that some generator throws out of their
    level-`level` class, together with the generators' undefined
    remainders, where escape cannot be decided: a sound upper bound."""
    if level < 0:
        raise ValueError("level must be >= 0")
    over = CylinderSet.empty()
    for _, g in action.generators:
        escaping = [s for s, t in g.pieces if len(s) > level and s[level:] != t[level:]]
        if escaping:
            over = over.union(CylinderSet.of(escaping))
        over = over.union(g.remainder())
    return over


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
