"""Exact measure algebra on the dyadic sequence space.

Points are one-sided infinite 0/1 sequences.  A *word* ``w`` (a string of
``0``/``1`` of length ``d``) stands for the cylinder of all sequences whose
first ``d`` coordinates spell ``w``.  Coordinates are 1-based in the
documentation; ``w[i]`` in code is coordinate ``i + 1``.

All measures are product measures with rational weights and an eventually
periodic weight schedule, so every cylinder measure, Radon-Nikodym ratio
and saturation computed here is an exact :class:`fractions.Fraction`.
Almost-everywhere statements of the underlying theory are replaced by
exact statements on the cylinder algebra at a working depth; exceptional
regions are carried around explicitly as :class:`CylinderSet` remainders.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, cycle, islice, product
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import DepthMismatch, MalformedInput

Word = str

ZERO = Fraction(0)
ONE = Fraction(1)


def all_words(depth: int) -> Iterator[Word]:
    """Yield all 0/1 words of the given depth in lexicographic order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    for bits in product("01", repeat=depth):
        yield "".join(bits)


def check_word(w: Word) -> Word:
    if w.strip("01"):
        raise MalformedInput(f"not a 0/1 word: {w!r}")
    return w


def word_index(w: Word) -> int:
    """The word read as a binary number, coordinate 1 the top bit: its
    position among the words of its depth in lexicographic order, which
    is how dense tables of a depth are indexed.  `w` must be a 0/1 word
    (``int`` would also take signs, spaces and underscores)."""
    return int(w, 2) if w else 0


def index_word(i: int, depth: int) -> Word:
    """The depth-`depth` word with index `i`: `word_index` inverted."""
    return format(i, f"0{depth}b") if depth else ""


def worst_deviation(masses: Sequence[int],
                    pairs: Iterable[tuple[int, int]]) -> Fraction:
    """The largest derivative deviation |mu(y) / mu(x) - 1| over index
    pairs (x, y) of one depth, `masses` being that depth's
    `ProductMeasure.level_masses` numerators: |n_y - n_x| / n_x, compared
    by cross-multiplication and reduced once, at the end; zero for no
    pairs.  The strict test ``deviation < p/q`` of one pair is
    ``|n_y - n_x| * q < p * n_x``."""
    num, den = 0, 1
    for x, y in pairs:
        nx = masses[x]
        gap = abs(masses[y] - nx)
        if gap * den > num * nx:
            num, den = gap, nx
    return Fraction(num, den)


WeightPair = tuple[Fraction, Fraction]


def _as_pair(p: Sequence) -> WeightPair:
    p0, p1 = Fraction(p[0]), Fraction(p[1])
    if p0 <= 0 or p1 <= 0:
        raise ValueError("weights must be strictly positive")
    if p0 + p1 != 1:
        raise ValueError(f"weights must sum to 1, got {p0} + {p1}")
    return (p0, p1)


@dataclass(frozen=True)
class ProductMeasure:
    """Product measure with an eventually periodic rational weight schedule.

    ``head`` lists the weight pairs of the first coordinates, after which the
    pairs in ``cycle`` repeat forever; the pair of the i-th coordinate
    (1-based) gives the masses of symbols 0 and 1 there.
    """

    head: tuple[WeightPair, ...]
    cycle: tuple[WeightPair, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must contain at least one weight pair")

    @staticmethod
    def uniform() -> "ProductMeasure":
        half = Fraction(1, 2)
        return ProductMeasure(head=(), cycle=(((half, half)),))

    @staticmethod
    def iid(p0) -> "ProductMeasure":
        p0 = Fraction(p0)
        return ProductMeasure(head=(), cycle=((p0, 1 - p0),))

    @staticmethod
    def from_schedule(head: Sequence[Sequence], cycle: Sequence[Sequence]) -> "ProductMeasure":
        return ProductMeasure(
            head=tuple(_as_pair(p) for p in head),
            cycle=tuple(_as_pair(p) for p in cycle),
        )

    @cached_property
    def _integer_weights(self) -> tuple[tuple, tuple]:
        """``head`` and ``cycle`` with each weight as (numerator, denominator)."""
        def split(pairs):
            return tuple(tuple((p.numerator, p.denominator) for p in pair)
                         for pair in pairs)
        return split(self.head), split(self.cycle)

    def cylinder(self, w: Word) -> Fraction:
        """Measure of the cylinder named by `w`.

        The weights' numerators and denominators are multiplied as
        integers; the single `Fraction` at the end reduces once."""
        head, period = self._integer_weights
        num = den = 1
        for pair, bit in zip(chain(head, cycle(period)), check_word(w)):
            n, d = pair[bit == "1"]
            num *= n
            den *= d
        return Fraction(num, den)

    @cached_property
    def _level_masses(self) -> dict:
        return {}

    def level_masses(self, depth: int) -> tuple[tuple[int, ...], int]:
        """The masses of all depth-`depth` cylinders over one common
        denominator: ``(numerators, denominator)`` with the numerators
        by word index, so ``cylinder(w)`` equals
        ``Fraction(numerators[word_index(w)], denominator)``.  Each
        coordinate multiplies the denominator by the least common
        multiple of its two weights' denominators.  Kept per depth on the
        measure."""
        cached = self._level_masses.get(depth)
        if cached is None:
            head, period = self._integer_weights
            nums, den = [1], 1
            for (n0, d0), (n1, d1) in islice(chain(head, cycle(period)), depth):
                common = lcm(d0, d1)
                a0, a1 = n0 * (common // d0), n1 * (common // d1)
                nums = [y for x in nums for y in (x * a0, x * a1)]
                den *= common
            cached = self._level_masses[depth] = (tuple(nums), den)
        return cached

    def ratio(self, x: Word, y: Word) -> Fraction:
        """Radon-Nikodym ratio: the product over coordinates i of the
        weight of y_i over the weight of x_i, the integer weights
        multiplied where the words differ.

        For a tail-preserving map sending the cylinder of ``x`` onto the
        cylinder of ``y`` this is the derivative d(mu o map)/d(mu) on ``x``.
        Both words must have the same depth.
        """
        if len(x) != len(y):
            raise DepthMismatch(f"ratio needs equal depths, got {len(x)} and {len(y)}")
        head, period = self._integer_weights
        num = den = 1
        for pair, bx, by in zip(chain(head, cycle(period)),
                                check_word(x), check_word(y)):
            if bx != by:
                ny, dy = pair[by == "1"]
                nx, dx = pair[bx == "1"]
                num *= ny * dx
                den *= dy * nx
        return Fraction(num, den)

    def shift(self, n: int) -> "ProductMeasure":
        """The product measure seen by coordinates beyond the n-th."""
        if n < 0:
            raise ValueError("shift must be >= 0")
        if n <= len(self.head):
            return ProductMeasure(head=self.head[n:], cycle=self.cycle)
        k = (n - len(self.head)) % len(self.cycle)
        return ProductMeasure(head=(), cycle=self.cycle[k:] + self.cycle[:k])

    def schedule_key(self) -> tuple:
        """Hashable canonical form (used in reports)."""
        return (
            tuple((str(a), str(b)) for a, b in self.head),
            tuple((str(a), str(b)) for a, b in self.cycle),
        )


# ---------------------------------------------------------------------------
# Cylinder sets
# ---------------------------------------------------------------------------

def _normalize(words: Iterable[Word]) -> tuple[Word, ...]:
    """Canonical form: drop words nested inside others, merge full sibling
    pairs bottom-up, sort lexicographically with shorter words first."""
    ws = sorted(set(words))
    # one test for all words: strip stops at the first character not 0/1
    if "".join(ws).strip("01"):
        for w in ws:
            check_word(w)
    # levels[d] holds the kept words of length d
    levels: list[set[Word]] = [
        set() for _ in range(max(map(len, ws), default=-1) + 1)]
    # in lexicographic order a word is nested exactly when it extends the
    # last word kept: every word between a prefix p and w also starts with p
    last = None
    for w in ws:
        if last is None or not w.startswith(last):
            levels[len(w)].add(w)
            last = w
    # the kept words are prefix-free, so merging sibling pairs one level at
    # a time, deepest first, reaches the unique fixed point
    for depth in range(len(levels) - 1, 0, -1):
        level = levels[depth]
        for w in [w for w in level if w[-1] == "0" and w[:-1] + "1" in level]:
            level.discard(w)
            level.discard(w[:-1] + "1")
            levels[depth - 1].add(w[:-1])
    return tuple(w for level in levels for w in sorted(level))


def _merged_indices(depth: int, indices: Sequence[int]) -> tuple[Word, ...]:
    """`_normalize` of the depth-`depth` words with the given indices,
    ascending and distinct: sibling pairs (2k, 2k + 1) merge into their
    parent k one level up, deepest level first."""
    kept: list[tuple[int, list[int]]] = []
    current = indices
    for d in range(depth, 0, -1):
        stay: list[int] = []
        parents: list[int] = []
        i, n = 0, len(current)
        while i < n:
            x = current[i]
            if not x & 1 and i + 1 < n and current[i + 1] == x + 1:
                parents.append(x >> 1)
                i += 2
            else:
                stay.append(x)
                i += 1
        kept.append((d, stay))
        current = parents
    words = [""] if current else []
    for d, stay in reversed(kept):
        spec = f"0{d}b"
        words.extend(format(x, spec) for x in stay)
    return tuple(words)


def _split(words: Sequence[Word]) -> tuple[list[Word], list[Word]]:
    """Split a prefix-free word list into the 0-branch and 1-branch,
    stripping the leading symbol.  The caller guarantees '' is absent."""
    zero = [w[1:] for w in words if w[0] == "0"]
    one = [w[1:] for w in words if w[0] == "1"]
    return zero, one


def _union(a: Sequence[Word], b: Sequence[Word]) -> list[Word]:
    if not a:
        return list(b)
    if not b:
        return list(a)
    if "" in a or "" in b:
        return [""]
    a0, a1 = _split(a)
    b0, b1 = _split(b)
    r0 = _union(a0, b0)
    r1 = _union(a1, b1)
    if r0 == [""] and r1 == [""]:
        return [""]
    return ["0" + w for w in r0] + ["1" + w for w in r1]


def _intersection(a: Sequence[Word], b: Sequence[Word]) -> list[Word]:
    if not a or not b:
        return []
    if "" in a:
        return list(b)
    if "" in b:
        return list(a)
    a0, a1 = _split(a)
    b0, b1 = _split(b)
    return ["0" + w for w in _intersection(a0, b0)] + ["1" + w for w in _intersection(a1, b1)]


def _difference(a: Sequence[Word], b: Sequence[Word]) -> list[Word]:
    if not a or not b:
        return list(a)
    if "" in b:
        return []
    if "" in a:
        a = ["0", "1"]
    a0, a1 = _split(a)
    b0, b1 = _split(b)
    r0 = _difference(a0, b0)
    r1 = _difference(a1, b1)
    if r0 == [""] and r1 == [""]:
        return [""]
    return ["0" + w for w in r0] + ["1" + w for w in r1]


@dataclass(frozen=True)
class CylinderSet:
    """A finite union of cylinders in canonical prefix-free form.

    The empty tuple is the empty set; the tuple ``("",)`` is the whole
    space.  All boolean operations are exact and return canonical forms,
    so equality of sets is equality of the ``words`` tuples.
    """

    words: tuple[Word, ...]

    @cached_property
    def _masks(self) -> dict:
        return {}

    @staticmethod
    def of(words: Iterable[Word]) -> "CylinderSet":
        return CylinderSet(_normalize(words))

    @staticmethod
    def from_indices(depth: int, indices: Sequence[int]) -> "CylinderSet":
        """The union of the depth-`depth` cylinders with the given word
        indices (see `word_index`), ascending and distinct; the same
        canonical form `of` gives for their words."""
        return CylinderSet(_merged_indices(depth, indices))

    @staticmethod
    def empty() -> "CylinderSet":
        return CylinderSet(())

    @staticmethod
    def full() -> "CylinderSet":
        return CylinderSet(("",))

    def is_empty(self) -> bool:
        return not self.words

    def is_full(self) -> bool:
        return self.words == ("",)

    @property
    def max_depth(self) -> int:
        return max((len(w) for w in self.words), default=0)

    def measure(self, mu: ProductMeasure) -> Fraction:
        return sum((mu.cylinder(w) for w in self.words), ZERO)

    def union(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet(tuple(sorted(_union(self.words, other.words), key=lambda w: (len(w), w))))

    def intersection(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet.of(_intersection(self.words, other.words))

    def difference(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet.of(_difference(self.words, other.words))

    def complement(self) -> "CylinderSet":
        return CylinderSet.full().difference(self)

    def mask(self, depth: int) -> bytes:
        """Membership table at `depth`: byte i is 1 when the cylinder of
        the depth-`depth` word with index i lies in the set, that is when
        some member word is a prefix of that word (a member deeper than
        `depth` contains no whole depth-`depth` cylinder).  Filled one
        member cylinder at a time and kept per depth on the set."""
        table = self._masks.get(depth)
        if table is None:
            buf = bytearray(1 << depth)
            for w in self.words:
                if len(w) <= depth:
                    size = 1 << (depth - len(w))
                    start = word_index(w) * size
                    buf[start:start + size] = b"\x01" * size
            table = self._masks[depth] = bytes(buf)
        return table

    def indices(self, depth: int) -> list[int]:
        """The set as the ascending indices of depth-`depth` words (all
        member cylinders must fit, i.e. depth >= max_depth): what
        `from_indices` takes."""
        if depth < self.max_depth:
            raise DepthMismatch(
                f"set has cylinders of depth {self.max_depth}, cannot list at {depth}")
        return list(compress(range(1 << depth), self.mask(depth)))

    def saturate(self, n: int) -> "CylinderSet":
        """Hull under the level-`n` relation: free the first n coordinates.

        Any member cylinder of depth <= n saturates to the whole space.
        """
        if self.is_empty():
            return self
        if any(len(w) <= n for w in self.words):
            return CylinderSet.full()
        suffixes = CylinderSet.of(w[n:] for w in self.words)
        return CylinderSet.of(p + s for p in all_words(n) for s in suffixes.words)

    def prepend_free(self, n: int) -> "CylinderSet":
        """Embed a suffix-space set (a set of words over the coordinates
        beyond the n-th) into the full space by freeing the first n
        coordinates."""
        if self.is_empty():
            return self
        if self.is_full():
            return self
        return CylinderSet.of(p + s for p in all_words(n) for s in self.words)

    def to_csv(self, mu: ProductMeasure) -> str:
        """Rows word,depth,mass_numerator,mass_denominator of the member
        cylinders."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["word", "depth", "mass_numerator", "mass_denominator"])
        for w in self.words:
            m = mu.cylinder(w)
            writer.writerow([w, len(w), m.numerator, m.denominator])
        return buf.getvalue()
