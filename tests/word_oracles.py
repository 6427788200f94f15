"""Word-keyed forms of the library's index loops, kept as test oracles.

The library reads words only at its edges (configs, reports, CSVs); its
loops run over word indices.  These helpers restate the word-level
definitions those loops replaced, each written directly on `str` words,
so the index forms can be checked against them.
"""
from fractions import Fraction

from cocyclelab.errors import DepthMismatch
from cocyclelab.measure import (CylinderSet, all_words, check_word,
                                index_word, word_index)
from cocyclelab.odometer import FiniteDepthMap


def apply_piece(sigma, w):
    """The image of a word under a piecewise cylinder map, or None on its
    undefined remainder; the word must decide its piece."""
    for s, t in sigma.pieces:
        if w.startswith(s):
            return t + w[len(s):]
    if any(s.startswith(w) for s, _ in sigma.pieces):
        raise DepthMismatch(f"word {w!r} too shallow to decide a piece")
    return None


def step_at(f, w):
    """The value of a step function on a word at least as deep as it."""
    if len(w) < f.depth:
        raise DepthMismatch(f"word of depth {len(w)} too shallow for depth {f.depth}")
    return f.values[word_index(w[: f.depth])]


def covers(s: CylinderSet, w: str) -> bool:
    """Whether the cylinder of `w` lies in `s`: some member is a prefix."""
    check_word(w)
    members = set(s.words)
    return any(w[:k] in members for k in range(len(w) + 1))


def words_at(s: CylinderSet, depth: int) -> list:
    """`s` as the sorted depth-`depth` words of its member cylinders."""
    if depth < s.max_depth:
        raise DepthMismatch(f"set has cylinders of depth {s.max_depth}")
    return sorted(w + tail for w in s.words
                  for tail in all_words(depth - len(w)))


def kernel_value(f, a: str, b: str):
    """The kernel f(a) f(b)^-1 of the potential `f` on a pair of words
    at least as deep as it that agree beyond its depth."""
    assert len(a) == len(b) and a[f.depth:] == b[f.depth:]
    model = f.model
    return model.mul(step_at(f, a), model.inv(step_at(f, b)))


def cocycle_check(model, table: dict):
    """The first of the three kernel laws (reflexivity, antisymmetry,
    the chain rule) that a table of values on every pair of a set of
    words breaks, or None when it keeps all three."""
    words = sorted({a for a, _ in table})
    one = model.identity()
    if any(table[a, a] != one for a in words):
        return "reflexive"
    if any(model.mul(table[a, b], table[b, a]) != one
           for a in words for b in words):
        return "antisymmetric"
    if any(model.mul(table[a, b], table[b, c]) != table[a, c]
           for a in words for b in words for c in words):
        return "chain"
    return None


def deviation(mu, x: str, y: str) -> Fraction:
    """|d(mu o map)/d(mu) - 1| for a map sending the cylinder of x onto
    that of y: the weight ratio over the coordinates, minus one."""
    return abs(mu.ratio(x, y) - 1)


class WordMap:
    """A permutation of the depth-`depth` words as a dict of moved words,
    identity elsewhere and beyond the depth."""

    def __init__(self, depth: int, moves: dict):
        targets = set(moves.values())
        assert len(targets) == len(moves) and targets == set(moves)
        self.depth, self.moves = depth, moves

    @staticmethod
    def from_pairs(depth: int, pairs) -> "WordMap":
        """Involution swapping each word pair (a, b); pairs shallower than
        the map are expanded over all common tails."""
        moves = {}
        for a, b in pairs:
            assert len(a) == len(b) <= depth
            for tail in all_words(depth - len(a)):
                moves[a + tail] = b + tail
                moves[b + tail] = a + tail
        return WordMap(depth, moves)

    def apply(self, w: str) -> str:
        if len(w) < self.depth:
            raise DepthMismatch(f"word of depth {len(w)} too shallow")
        head = w[: self.depth]
        return self.moves.get(head, head) + w[self.depth:]

    def inverse(self) -> "WordMap":
        return WordMap(self.depth, {t: s for s, t in self.moves.items()})

    def image_of(self, s: CylinderSet) -> CylinderSet:
        depth = max(self.depth, s.max_depth)
        return CylinderSet.of(self.apply(w) for w in words_at(s, depth))

    def indexed(self) -> FiniteDepthMap:
        return FiniteDepthMap.from_moves(self.depth, self.moves.items())


def map_apply(theta: FiniteDepthMap, w: str) -> str:
    """The image of a word at least as deep as the map, via its table."""
    table = theta.index_map(len(w))
    return index_word(table[word_index(w)], len(w))


def image_of(theta: FiniteDepthMap, s: CylinderSet) -> CylinderSet:
    """The image of a set under an index map, read at the deeper of the
    two depths: the set form of the membership-table containment tests
    in `validate_witness` and `validate_step_output`."""
    depth = max(theta.depth, s.max_depth)
    table = theta.index_map(depth)
    return CylinderSet.from_indices(
        depth, sorted(table[i] for i in s.indices(depth)))


def word_pairs_map(depth: int, pairs) -> FiniteDepthMap:
    """The involution of word pairs of the map's depth, as an index map."""
    return FiniteDepthMap.from_pairs(
        depth, [(word_index(a), word_index(b)) for a, b in pairs])


def union_find_components(f, level: int, exhaustive: bool = False) -> int:
    """`skew_connectivity` counted vertex by vertex: union-find over the
    (level word, element) pairs, joining (w, g) to (w', v g) for each
    value v = f(a) f(b)^-1 with a under w' and b under w, along the
    chain of the level's words (or every word pair when `exhaustive`)."""
    model = f.model
    elements = sorted(model.elements(), key=model.key)
    n_elements = len(elements)
    index = {model.key(e): i for i, e in enumerate(elements)}
    n_words = 1 << level
    parent = list(range(n_words * n_elements))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # the potential values under each vertex word
    values = f.values_at(max(f.depth, level))
    span = len(values) // n_words
    under = [values[w * span:(w + 1) * span] for w in range(n_words)]
    words = range(n_words)
    if exhaustive:
        edges = [(a, b) for i, a in enumerate(words) for b in words[i + 1:]]
    else:
        edges = list(zip(words, words[1:]))
    for second, first in edges:
        between = {model.key(v): v for v in (
            model.mul(x, model.inv(y))
            for x in under[first] for y in under[second])}
        for value in between.values():
            for gi, g in enumerate(elements):
                gj = index[model.key(model.mul(value, g))]
                parent[find(second * n_elements + gi)] = find(
                    first * n_elements + gj)
    return len({find(i) for i in range(n_words * n_elements)})
