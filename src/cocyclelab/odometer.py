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
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BudgetExhausted, ConfigError, DepthMismatch
from .measure import (ONE, ZERO, CylinderSet, ProductMeasure, Word, all_words,
                      check_word, word_index)


@dataclass(frozen=True)
class FiniteDepthMap:
    """A permutation of the depth-`depth` words, identity beyond.

    Only moved words are stored; ``apply`` treats missing entries as
    fixed.  The stored entries must form a permutation of their own key
    set, which makes the whole table a permutation of all depth words.
    """

    depth: int
    moves: Mapping[Word, Word]

    def __post_init__(self):
        for s, t in self.moves.items():
            if len(s) != self.depth or len(t) != self.depth:
                raise DepthMismatch("all moved words must have the map's depth")
            check_word(s), check_word(t)
        targets = set(self.moves.values())
        if len(targets) != len(self.moves) or targets != set(self.moves.keys()):
            raise ValueError("moves must permute their own key set")

    @staticmethod
    def identity(depth: int) -> "FiniteDepthMap":
        return FiniteDepthMap(depth, {})

    @staticmethod
    def from_pairs(depth: int, pairs: Iterable[tuple[Word, Word]]) -> "FiniteDepthMap":
        """Involution swapping each (a, b) pair; pairs of depth < `depth`
        are expanded over all common tails."""
        moves: dict[Word, Word] = {}
        for a, b in pairs:
            if len(a) != len(b):
                raise DepthMismatch("pair members must have equal depth")
            if len(a) > depth:
                raise DepthMismatch("pair deeper than the map")
            for tail in all_words(depth - len(a)):
                moves[a + tail] = b + tail
                moves[b + tail] = a + tail
        return FiniteDepthMap(depth, moves)

    def apply(self, w: Word) -> Word:
        if len(w) < self.depth:
            raise DepthMismatch(f"word of depth {len(w)} too shallow for depth-{self.depth} map")
        head = self.moves.get(w[: self.depth], w[: self.depth])
        return head + w[self.depth:]

    def inverse(self) -> "FiniteDepthMap":
        return FiniteDepthMap(self.depth, {t: s for s, t in self.moves.items()})

    def image_of(self, s: CylinderSet) -> CylinderSet:
        words = s.words_at(max(self.depth, s.max_depth))
        return CylinderSet.of(self.apply(w) for w in words)


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

    def domain(self) -> CylinderSet:
        return CylinderSet.of(s for s, _ in self.pieces)

    def remainder(self) -> CylinderSet:
        """Cylinders where the truncated map is undefined."""
        return self.domain().complement()

    def apply(self, w: Word) -> Optional[Word]:
        """Image of a word deep enough to decide its piece, or None when
        the word lies in the undefined remainder."""
        for s, t in self.pieces:
            if w.startswith(s):
                return t + w[len(s):]
        if any(s.startswith(w) for s, _ in self.pieces):
            raise DepthMismatch(f"word {w!r} too shallow to decide a piece of {self.name}")
        return None

    @cached_property
    def _index_maps(self) -> dict:
        return {}

    def index_map(self, depth: int) -> tuple[int, ...]:
        """`apply` on all depth-`depth` words at once, by word index (see
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

    def distortion(self, mu: ProductMeasure) -> Fraction:
        """max over pieces of measure(target)/measure(source)."""
        worst = ONE
        for s, t in self.pieces:
            worst = max(worst, mu.ratio(s, t))
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

    @property
    def max_depth(self) -> int:
        return max((g.max_depth for _, g in self.generators), default=0)

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

@dataclass(frozen=True)
class OverflowResult:
    """Where some generator escapes the relation at a level.

    ``known`` collects the pieces that provably escape; ``unknown`` is
    the undefined remainder of the truncated generators, where escape
    cannot be decided.  Sound checks use ``upper()``.
    """

    known: CylinderSet
    unknown: CylinderSet

    def upper(self) -> CylinderSet:
        return self.known.union(self.unknown)


def orbit_overflow(action: GammaAction, level: int) -> OverflowResult:
    """The set of points thrown out of their level-`level` class by some
    generator, as an exact cylinder set plus undecided remainder."""
    if level < 0:
        raise ValueError("level must be >= 0")
    known = CylinderSet.empty()
    unknown = CylinderSet.empty()
    for _, g in action.generators:
        escaping = [s for s, t in g.pieces if len(s) > level and s[level:] != t[level:]]
        if escaping:
            known = known.union(CylinderSet.of(escaping))
        unknown = unknown.union(g.remainder())
    return OverflowResult(known, unknown)


# ---------------------------------------------------------------------------
# Exchange involution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvolutionResult:
    """A finite-depth involution pairing `inside` against itself.

    ``pairs`` lists the matched cylinder pairs (lexicographically smaller
    member first); ``fixed`` is the unpaired remainder inside the target
    set, of measure below the requested tolerance.
    """

    tau: FiniteDepthMap
    pairs: tuple[tuple[Word, Word], ...]
    fixed: CylinderSet

    def first_sides(self) -> CylinderSet:
        return CylinderSet.of(a for a, _ in self.pairs)

    def second_sides(self) -> CylinderSet:
        return CylinderSet.of(b for _, b in self.pairs)


def exchange_involution(
    inside: CylinderSet,
    mu: ProductMeasure,
    eps: Fraction,
    max_depth: int,
    leftover: Optional[Fraction] = None,
) -> InvolutionResult:
    """Build tau with tau^2 = id, tau = id off `inside`, tau(x) != x on
    `inside` except on a fixed remainder of measure < `leftover`
    (defaulting to `eps`), and with |d(mu o tau)/d(mu) - 1| < `eps`
    everywhere.

    Strategy: list `inside` at a uniform depth; pair equal-measure words
    in lexicographic order; pair the odd ones out greedily under the
    two-sided ratio constraint, largest measure first.  If the unpaired
    mass is still >= `eps`, restart one level deeper (restarting, rather
    than refining only leftovers, lets new equal-measure partners appear
    across old pair boundaries).  Raises :class:`BudgetExhausted` when
    `max_depth` is reached first.
    """
    eps = Fraction(eps)
    leftover = eps if leftover is None else Fraction(leftover)
    if eps <= 0 or leftover <= 0:
        raise ValueError("eps and leftover must be positive")
    if inside.is_empty():
        return InvolutionResult(FiniteDepthMap.identity(0), (), CylinderSet.empty())

    def ratio_ok(a: Word, b: Word) -> bool:
        return mu.deviation(a, b) < eps and mu.deviation(b, a) < eps

    best: Optional[tuple[list[tuple[Word, Word]], list[Word], Fraction]] = None
    for depth in range(max(inside.max_depth, 1), max_depth + 1):
        level_words = inside.words_at(depth)
        pairs: list[tuple[Word, Word]] = []
        unpaired: list[Word] = []
        by_measure: dict[Fraction, list[Word]] = {}
        for w in sorted(level_words):
            by_measure.setdefault(mu.cylinder(w), []).append(w)
        for m in sorted(by_measure):
            group = by_measure[m]
            for i in range(0, len(group) - 1, 2):
                pairs.append((group[i], group[i + 1]))
            if len(group) % 2:
                unpaired.append(group[-1])
        # greedy ratio pass over the odd ones out, largest measure first
        unpaired.sort(key=lambda w: (-mu.cylinder(w), w))
        used = [False] * len(unpaired)
        leftovers: list[Word] = []
        for i, a in enumerate(unpaired):
            if used[i]:
                continue
            for j in range(i + 1, len(unpaired)):
                if not used[j] and ratio_ok(a, unpaired[j]):
                    pairs.append(tuple(sorted((a, unpaired[j]))))
                    used[i] = used[j] = True
                    break
            if not used[i]:
                leftovers.append(a)
        remaining = sum((mu.cylinder(w) for w in leftovers), ZERO)
        if best is None or remaining < best[2]:
            best = (pairs, leftovers, remaining)
        if remaining < leftover:
            break
    else:
        raise BudgetExhausted(
            f"no involution within depth {max_depth}: "
            f"unpaired mass {best[2]} >= {leftover}")

    pairs, leftovers, _ = best
    fixed = CylinderSet.of(leftovers)
    table_depth = max((len(a) for a, _ in pairs), default=max(inside.max_depth, 0))
    tau = FiniteDepthMap.from_pairs(table_depth, pairs)
    return InvolutionResult(tau, tuple(sorted(pairs)), fixed)
