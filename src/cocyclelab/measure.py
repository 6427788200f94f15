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
from functools import cached_property, wraps
from itertools import chain, cycle, islice, repeat
from math import lcm
from operator import lt
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DepthMismatch, MalformedInput

Word = str

ZERO = Fraction(0)
ONE = Fraction(1)


def kept(compute: Callable) -> Callable:
    """The one memo rule for a derived value: ``compute(obj, *args)`` runs
    once per distinct positional `args` on each object, and its result is
    kept in the object's ``__dict__``, where `cached_property` keeps an
    argument-less value, so it lives exactly as long as the object.  A
    call that raises keeps nothing.  With one argument, the argument is
    the key, and the call packs no tuple."""
    slot = f"{compute.__module__}.{compute.__qualname__}"  # no attribute's name

    if compute.__code__.co_argcount == 2:
        def keeping(obj, arg):
            memo = obj.__dict__.get(slot) or obj.__dict__.setdefault(slot, {})
            value = memo.get(arg, memo)  # the memo itself: nothing kept yet
            if value is memo:
                value = memo[arg] = compute(obj, arg)
            return value
    else:
        def keeping(obj, *args):
            memo = obj.__dict__.get(slot) or obj.__dict__.setdefault(slot, {})
            value = memo.get(args, memo)
            if value is memo:
                value = memo[args] = compute(obj, *args)
            return value
    return wraps(compute)(keeping)


def all_words(depth: int) -> Iterator[Word]:
    """Yield all 0/1 words of the given depth in lexicographic order:
    each first half followed by each second half (held as a list)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth < 2:
        return iter(("0", "1") if depth else ("",))
    tails = list(all_words(depth - depth // 2))
    return (w + t for w in all_words(depth // 2) for t in tails)


def all_binary(words: Iterable[Word]) -> bool:
    """Whether the words hold only 0s and 1s: one C pass deletes them
    from their concatenation (``strip`` tests a character at a time)."""
    return not "".join(words).translate(dict.fromkeys(b"01"))


def check_word(w: Word) -> Word:
    if w.strip("01"):
        raise MalformedInput(f"not a 0/1 word: {w!r}")
    return w


def index_word(i: int, depth: int) -> Word:
    """The depth-`depth` word with index `i` in binary, coordinate 1 the
    top bit: dense tables are in word order; a word's index is int(w, 2)."""
    return format(i, f"0{depth}b") if depth else ""


def worst_deviation(masses: Sequence[int], xs: Iterable[int],
                    ys: Iterable[int]) -> Fraction:
    """The largest derivative deviation |mu(y) / mu(x) - 1| over the
    index pairs (x, y) of one depth listed side by side in `xs` and `ys`,
    `masses` being that depth's `ProductMeasure.level_masses` numerators:
    |n_y - n_x| / n_x per distinct pair of masses, compared by
    cross-multiplication and reduced once; zero for no pairs.  The strict
    test ``deviation < p/q`` of one pair is ``|n_y - n_x| * q < p * n_x``."""
    num, den = 0, 1
    for nx, ny in set(zip(map(masses.__getitem__, xs),
                          map(masses.__getitem__, ys))):
        gap = abs(ny - nx)
        if gap * den > num * nx:
            num, den = gap, nx
    return Fraction(num, den)


WeightPair = tuple[Fraction, Fraction]
# a coordinate's weights over their common denominator c: (a0, a1, c)
WeightStep = tuple[int, int, int]


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
        return ProductMeasure(head=(), cycle=(_as_pair((p0, 1 - p0)),))

    @staticmethod
    def from_schedule(head: Sequence[Sequence], cycle: Sequence[Sequence]) -> "ProductMeasure":
        return ProductMeasure(
            head=tuple(_as_pair(p) for p in head),
            cycle=tuple(_as_pair(p) for p in cycle),
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashing the weights' Fractions is slow, and memos key on measures
        return hash((self.head, self.cycle))

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

    @kept
    def level_weights(self, depth: int) -> tuple[tuple[WeightStep, ...], int]:
        """The first `depth` coordinates' weights as integers: ``(steps,
        denominator)`` with one ``(a0, a1, c)`` per coordinate, where
        a0 / c and a1 / c are the masses of symbols 0 and 1 and c is the
        least common multiple of the two weights' denominators, and the
        denominator the product of the c."""
        head, period = self._integer_weights
        steps, den = [], 1
        for (n0, d0), (n1, d1) in islice(chain(head, cycle(period)), depth):
            common = lcm(d0, d1)
            steps.append((n0 * (common // d0), n1 * (common // d1), common))
            den *= common
        return tuple(steps), den

    @kept
    def level_masses(self, depth: int) -> tuple[tuple[int, ...], int]:
        """The masses of all depth-`depth` cylinders over one common
        denominator, `level_weights`' denominator: ``(numerators,
        denominator)`` with the numerators by word index, so
        ``cylinder(w)`` equals ``Fraction(numerators[int(w, 2)],
        denominator)``."""
        steps, den = self.level_weights(depth)
        nums = [1]
        for a0, a1, _ in steps:
            nums = [y for x in nums for y in (x * a0, x * a1)]
        return tuple(nums), den

    def ratio(self, x: Word, y: Word) -> Fraction:
        """Radon-Nikodym ratio: the product over coordinates i of the
        weight of y_i over the weight of x_i, i.e. the mass of the
        cylinder of y over that of x.

        For a tail-preserving map sending the cylinder of ``x`` onto the
        cylinder of ``y`` this is the derivative d(mu o map)/d(mu) on ``x``.
        Both words must have the same depth.
        """
        if len(x) != len(y):
            raise DepthMismatch(f"ratio needs equal depths, got {len(x)} and {len(y)}")
        return self.cylinder(y) / self.cylinder(x)

    def shift(self, n: int) -> "ProductMeasure":
        """The product measure seen by coordinates beyond the n-th, the
        measure itself where its schedule repeats (the uniform measure
        everywhere); one instance per distinct shift, with its level
        tables."""
        if n < 0:
            raise ValueError("shift must be >= 0")
        head = len(self.head)
        if n > head:  # the cycle repeats: equal shifts share one instance
            n = head + (n - head) % len(self.cycle)
        return self._shifted(n)

    @kept
    def _shifted(self, n: int) -> "ProductMeasure":
        k = max(n - len(self.head), 0)
        shifted = ProductMeasure(self.head[n:],
                                 self.cycle[k:] + self.cycle[:k])
        return self if shifted == self else shifted

    def schedule_key(self) -> tuple:
        """Hashable canonical form (used in reports)."""
        return (
            tuple((str(a), str(b)) for a, b in self.head),
            tuple((str(a), str(b)) for a, b in self.cycle),
        )


# ---------------------------------------------------------------------------
# Cylinder sets
# ---------------------------------------------------------------------------

def _coalesce(ranges: Iterable[tuple[int, int]]) -> list[int]:
    """The edges lo0, hi0, lo1, hi1, ... of the union of index ranges
    [lo, hi) given ascending by lo: touching and overlapping ranges are
    joined, so the result's ranges are disjoint and apart."""
    edges: list[int] = []
    for lo, hi in ranges:
        if edges and lo <= edges[-1]:
            if hi > edges[-1]:
                edges[-1] = hi
        else:
            edges += (lo, hi)
    return edges


def _word_edges(words: Sequence[Word]) -> tuple[int, list[int]]:
    """``(depth, edges)`` of the union of the words' cylinders, `depth`
    the deepest word's: the word of index i and length d holds the
    indices [i 2^(depth-d), (i+1) 2^(depth-d))."""
    if "" in words:  # the whole space; `int` does not read ""
        return 0, [0, 1]
    depth = max(map(len, words), default=0)
    ranges = []
    for w, i in zip(words, map(int, words, repeat(2))):
        shift = depth - len(w)
        ranges.append((i << shift, (i + 1) << shift))
    return depth, _coalesce(sorted(ranges))


def _edge_mass_sum(steps: Sequence[WeightStep], den: int,
                   edges: Sequence[int]) -> int:
    """The mass numerator, over `den`, of the ranges [lo, hi) of word
    indices at depth ``len(steps)`` whose edges lo0, hi0, lo1, ... are
    given ascending: the alternating sum of the masses of the prefixes
    [0, x) at the edges x.  A prefix's mass comes from one walk down its
    index's bits (`ProductMeasure.level_weights` gives each coordinate's
    integer weights): at each coordinate the mass so far is rescaled to
    the next denominator, and a 1 bit adds the cylinder of the current
    prefix followed by 0.  The walk restarts below the bits an edge
    shares with the previous one, whose states are kept per level."""
    depth = len(steps)
    whole = 1 << depth
    # the mass before and the cylinder mass of the previous edge's first
    # i bits, at i; the walk of index 0 to begin with
    befores = [0] * (depth + 1)
    masses = [1]
    for a0, _, _ in steps:
        masses.append(masses[-1] * a0)
    rows = [(1 << (depth - 1 - i), i + 1, *step)
            for i, step in enumerate(steps)]
    total, prev, sign = 0, 0, -1
    for x in edges:
        if x == whole:
            total += sign * den
            break
        level = depth - (x ^ prev).bit_length()
        before, mass = befores[level], masses[level]
        for bit, i, a0, a1, c in rows[level:]:
            if x & bit:
                before, mass = before * c + mass * a0, mass * a1
            else:
                before, mass = before * c, mass * a0
            befores[i], masses[i] = before, mass
        total += sign * before
        prev, sign = x, -sign
    return total


@dataclass(frozen=True)
class CylinderSet:
    """A finite union of cylinders, as index ranges of one depth.

    ``edges`` are the ascending edges lo0, hi0, lo1, hi1, ... of the
    set's coalesced ranges [lo, hi) of depth-``max_depth`` word indices.
    The constructor is the one canonicalizer: it restates the ranges at
    the least depth that holds them, so equal sets have equal fields.
    The empty set has no edges; the whole space is ``(0, (0, 1))``.
    `words` lists the maximal cylinders for reports and exports.
    """

    max_depth: int
    edges: tuple[int, ...]

    def __post_init__(self):
        """Check that the edges are those of disjoint ranges apart, each
        nonempty and within the depth (strictly ascending, nonnegative,
        even in count, at most 2^max_depth), and restate them at the
        least depth they allow: every edge is a multiple of the lowest
        set bit 2^k of their OR, so the ranges are unions of
        depth-(max_depth - k) cylinders, and no shallower depth holds
        them."""
        depth, edges = self.max_depth, tuple(self.edges)
        if (depth < 0 or len(edges) % 2 or edges and (
                edges[0] < 0 or edges[-1] > 1 << depth
                or not all(map(lt, edges, edges[1:])))):
            raise MalformedInput(
                f"edges {edges} do not bound disjoint ranges of "
                f"depth-{depth} word indices")
        low = 0
        for x in edges:
            low |= x
        k = (low & -low).bit_length() - 1 if low else depth
        if k:
            edges = tuple(x >> k for x in edges)
        object.__setattr__(self, "max_depth", depth - k)
        object.__setattr__(self, "edges", edges)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """The set's maximal cylinders, shorter first and lexicographic
        within a depth.  Each range is cut, left to right, into the
        largest aligned blocks that fit: 2^k indices from a multiple of
        2^k are the cylinder of one word k shorter than ``max_depth``,
        and these blocks are exactly the maximal cylinders of the set."""
        depth = self.max_depth
        levels: list[list[int]] = [[] for _ in range(depth + 1)]
        whole = 1 << depth
        for lo, hi in zip(self.edges[::2], self.edges[1::2]):
            while lo < hi:
                # the largest block aligned at lo, halved until it fits
                size = lo & -lo or whole
                while lo + size > hi:
                    size >>= 1
                k = size.bit_length() - 1
                levels[depth - k].append(lo >> k)
                lo += size
        return tuple(index_word(i, d) for d, level in enumerate(levels)
                     for i in level)

    @staticmethod
    def of(words: Iterable[Word]) -> "CylinderSet":
        ws = list(words)
        # one test for all words; the loop names a bad one
        if not all_binary(ws):
            for w in ws:
                check_word(w)
        return CylinderSet(*_word_edges(ws))

    @staticmethod
    def from_indices(depth: int, indices: Sequence[int]) -> "CylinderSet":
        """The union of the depth-`depth` cylinders with the given word
        indices (see `index_word`), ascending and distinct; the same
        canonical form `of` gives for their words."""
        if not indices:
            return _EMPTY
        # a run of consecutive indices ends where the next one skips
        breaks = [x for a, b in zip(indices, indices[1:]) if b != a + 1
                  for x in (a + 1, b)]
        return CylinderSet(depth, (indices[0], *breaks, indices[-1] + 1))

    @staticmethod
    def empty() -> "CylinderSet":
        return _EMPTY

    @staticmethod
    def full() -> "CylinderSet":
        return _FULL

    def is_empty(self) -> bool:
        return not self.edges

    def is_full(self) -> bool:
        return self.max_depth == 0 and self.edges == (0, 1)

    @kept
    def measure(self, mu: ProductMeasure) -> Fraction:
        """The set's mass under `mu`: 1 or 0 at depth 0; with many ranges
        for its depth, its cells' `level_masses` summed in one C pass; else
        one pass over its edges (`_edge_mass_sum`)."""
        depth, edges = self.max_depth, self.edges
        if not depth:
            return ONE if edges else ZERO
        if len(edges) << 6 >= 1 << depth:
            masses, den = mu.level_masses(depth)
            num = sum(map(sum, map(masses.__getitem__,
                                   map(slice, edges[::2], edges[1::2]))))
        else:
            steps, den = mu.level_weights(depth)
            num = _edge_mass_sum(steps, den, edges)
        return Fraction(num, den)

    def _combine(self, other: "CylinderSet", keep) -> "CylinderSet":
        """The points whose memberships in self and other `keep(in_self,
        in_other)` accepts (`keep(0, 0)` false), in one left-to-right
        pass over both sets' edges at the deeper of their depths: a point
        lies in a set when an odd number of its edges are at or below
        it.  With the whole space or the empty set as an operand the
        result is the other operand, its complement, full or empty."""
        if not self.max_depth or not other.max_depth:
            if self.max_depth:
                rest, c = self, bool(other.edges)
                inside, outside = keep(1, c), keep(0, c)
            else:
                rest, c = other, bool(self.edges)
                inside, outside = keep(c, 1), keep(c, 0)
            if inside:
                return _FULL if outside else rest
            return rest.complement() if outside else _EMPTY
        da, a, db, b = self.max_depth, self.edges, other.max_depth, other.edges
        depth = max(da, db)
        a = [x << (depth - da) for x in a] if da < depth else a
        b = [x << (depth - db) for x in b] if db < depth else b
        edges: list[int] = []
        i = j = 0
        inside = False
        while i < len(a) or j < len(b):
            x = a[i] if j == len(b) or (i < len(a) and a[i] <= b[j]) else b[j]
            i += i < len(a) and a[i] == x
            j += j < len(b) and b[j] == x
            if bool(keep(i & 1, j & 1)) != inside:
                inside = not inside
                edges.append(x)
        return CylinderSet(depth, edges)

    def union(self, other: "CylinderSet") -> "CylinderSet":
        return self._combine(other, lambda x, y: x or y)

    def intersection(self, other: "CylinderSet") -> "CylinderSet":
        return self._combine(other, lambda x, y: x and y)

    def difference(self, other: "CylinderSet") -> "CylinderSet":
        return self._combine(other, lambda x, y: x and not y)

    def complement(self) -> "CylinderSet":
        """The points outside the set: its edges with the two ends of the
        index range, 0 and 2^max_depth, toggled."""
        edges, whole = self.edges, 1 << self.max_depth
        edges = edges[1:] if edges[:1] == (0,) else (0, *edges)
        edges = edges[:-1] if edges[-1:] == (whole,) else (*edges, whole)
        return CylinderSet(self.max_depth, edges)

    @kept
    def mask(self, depth: int) -> bytes:
        """Membership table at `depth`: byte i is 1 when the cylinder of
        the depth-`depth` word with index i lies in the set, that is when
        some member word is a prefix of that word (a member deeper than
        `depth` contains no whole depth-`depth` cylinder).  Filled from
        the ranges of `cells(depth)`."""
        buf = bytearray(1 << depth)
        for lo, hi in self.cells(depth):
            buf[lo:hi] = b"\x01" * (hi - lo)
        return bytes(buf)

    def cells(self, depth: int, meeting: bool = False) -> list[tuple[int, int]]:
        """The depth-`depth` cylinders that lie wholly in the set, or with
        `meeting` those that meet it, as ascending, disjoint index ranges
        [lo, hi): the set's inner or outer approximation at `depth`, read
        off the edges by rounding each range inwards or outwards.  At a
        depth of at least `max_depth` both are `ranges(depth)`."""
        shift = self.max_depth - depth
        if shift <= 0:
            return self.ranges(depth)
        pairs = zip(self.edges[::2], self.edges[1::2])
        if meeting:
            # ranges apart at max_depth may meet one cell at `depth`
            edges = _coalesce((lo >> shift, -(-hi >> shift)) for lo, hi in pairs)
            return list(zip(edges[::2], edges[1::2]))
        return [(lo, hi) for lo, hi in ((-(-lo >> shift), hi >> shift)
                                        for lo, hi in pairs) if lo < hi]

    def ranges(self, depth: int) -> list[tuple[int, int]]:
        """The set as ascending, disjoint index ranges [lo, hi) of
        depth-`depth` words, read off the edges (depth >= max_depth)."""
        return list(zip(*self._bounds(depth)))

    def _bounds(self, depth: int) -> tuple[Sequence[int], Sequence[int]]:
        """The lower and the upper ends of `ranges(depth)`, unpaired."""
        if depth < self.max_depth:
            raise DepthMismatch(
                f"set has cylinders of depth {self.max_depth}, cannot list at {depth}")
        shift = depth - self.max_depth
        edges = [x << shift for x in self.edges] if shift else self.edges
        return edges[::2], edges[1::2]

    def indices(self, depth: int) -> list[int]:
        """The set as the ascending indices of depth-`depth` words (all
        member cylinders must fit, i.e. depth >= max_depth): what
        `from_indices` takes."""
        return list(chain.from_iterable(map(range, *self._bounds(depth))))

    def saturate(self, n: int) -> "CylinderSet":
        """Hull under the level-`n` relation: free the first n coordinates.

        Any member cylinder of depth <= n saturates to the whole space.
        """
        return CylinderSet.of(w[n:] for w in self.words).prepend_free(n)

    def prepend_free(self, n: int) -> "CylinderSet":
        """Embed a suffix-space set (a set of words over the coordinates
        beyond the n-th) into the full space by freeing the first n
        coordinates: its ranges repeated under each of the 2^n prefixes."""
        if self.is_empty() or self.is_full():
            return self
        depth, edges = self.max_depth, self.edges
        pairs = list(zip(edges[::2], edges[1::2]))
        return CylinderSet(n + depth, _coalesce(
            (base + lo, base + hi)
            for base in range(0, 1 << (n + depth), 1 << depth)
            for lo, hi in pairs))

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


_EMPTY = CylinderSet(0, ())
_FULL = CylinderSet(0, (0, 1))
