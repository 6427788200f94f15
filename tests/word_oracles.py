"""Word-keyed forms of the library's index loops, kept as test oracles.

The library reads words only at its edges (configs, reports, CSVs); its
loops run over word indices.  These helpers restate the word-level
definitions those loops replaced, each written directly on `str` words,
so the index forms can be checked against them.  A few index loops that
faster forms replaced are kept here too, as the references those forms
must match.
"""
from fractions import Fraction

from cocyclelab.errors import DepthMismatch
from cocyclelab.measure import CylinderSet, all_words, check_word, index_word
from cocyclelab.odometer import FiniteDepthMap, Flip, Odometer


def word_index(w: str) -> int:
    """The index of a 0/1 word (`index_word` inverted): the word read as
    a binary number, coordinate 1 the top bit."""
    return int(w, 2) if w else 0


def pieces(g) -> list:
    """A generator rule as its (source, target) word pieces, each piece
    rewriting the prefix `source` to `target`: 1^k 0 -> 0^k 1 for each
    carry k below the odometer's depth (reversed for T~), and every
    word of a flip's depth to its flip.  The rules replaced these lists;
    the points under no source are the undefined remainder."""
    if isinstance(g, Odometer):
        carries = [("1" * k + "0", "0" * k + "1") for k in range(g.depth)]
        return carries if g.step == 1 else [(t, s) for s, t in carries]
    assert isinstance(g, Flip)
    return [(w, w[:-1] + "10"[int(w[-1])]) for w in all_words(g.coord)]


def apply_piece(word_pieces, w):
    """The image of a word under a piece list, or None on its undefined
    remainder; the word must decide its piece."""
    for s, t in word_pieces:
        if w.startswith(s):
            return t + w[len(s):]
    if any(s.startswith(w) for s, _ in word_pieces):
        raise DepthMismatch(f"word {w!r} too shallow to decide a piece")
    return None


def piece_remainder(word_pieces) -> CylinderSet:
    """The points under no source: where the piece map is undefined."""
    return CylinderSet.of(s for s, _ in word_pieces).complement()


def piece_overflow(word_pieces, level: int) -> CylinderSet:
    """The sources of the pieces that rewrite a coordinate beyond
    `level`, with the undefined remainder: the set a generator's
    `overflow(level)` must equal."""
    escaping = [s for s, t in word_pieces
                if len(s) > level and s[level:] != t[level:]]
    return CylinderSet.of(escaping).union(piece_remainder(word_pieces))


def piece_index_map(word_pieces, depth: int) -> dict:
    """The piece map on the depth-`depth` words outside the remainder,
    image index by word index: the entries a generator's
    `index_map(depth)` must hold there."""
    images = ((w, apply_piece(word_pieces, w)) for w in all_words(depth))
    return {word_index(w): word_index(img) for w, img in images
            if img is not None}


def piece_distortion(word_pieces, mu) -> Fraction:
    """The largest derivative mu(target) / mu(source) over the pieces,
    and 1."""
    return max([Fraction(1)] + [mu.ratio(s, t) for s, t in word_pieces])


def apply_rule(g, w):
    """The image of a word at least as deep as the generator, read off
    its index table, or None on its undefined remainder."""
    if covers(g.remainder, w):
        return None
    return index_word(g.index_map(len(w))[word_index(w)], len(w))


def step_at(f, w):
    """The value of a step function on a word at least as deep as it."""
    if len(w) < f.depth:
        raise DepthMismatch(f"word of depth {len(w)} too shallow for depth {f.depth}")
    return f.values[word_index(w[: f.depth])]


def increment_words(f, sigma, depth: int) -> dict:
    """The increment f(sigma x) f(x)^-1 on every word of `depth`, at
    least the depth of `f` and of `sigma`, applied word by word through
    the word pieces, None on the remainder: the form increments had
    before they were kept at the potential's depth."""
    word_pieces, model = pieces(sigma), f.model
    table = {}
    for w in all_words(depth):
        img = apply_piece(word_pieces, w)
        table[w] = None if img is None else model.mul(
            step_at(f, img), model.inv(step_at(f, w)))
    return table


def distance_words(first, second, mu) -> Fraction:
    """`cocycle_distance` summed word by word over per-generator tables
    of `increment_words` of one depth: the sum over generators j of 2^-j
    times the mass of the words where the tables differ or either holds
    None."""
    total = Fraction(0)
    for j, (t1, t2) in enumerate(zip(first, second), 1):
        for w, a in t1.items():
            b = t2[w]
            if a is None or b is None or a != b:
                total += mu.cylinder(w) / 2 ** j
    return total


def covers(s: CylinderSet, w: str) -> bool:
    """Whether the cylinder of `w` lies in `s`: some member is a prefix."""
    check_word(w)
    members = set(s.words)
    return any(w[:k] in members for k in range(len(w) + 1))


def cylinder_sum(s: CylinderSet, mu) -> Fraction:
    """The mass of `s` summed word by word, one `ProductMeasure.cylinder`
    per maximal cylinder: the form `CylinderSet.measure` replaced."""
    return sum((mu.cylinder(w) for w in s.words), Fraction(0))


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


def class_order(members: list, masses) -> list:
    """The members of one kernel class, word indices, largest mass
    first and ascending within a mass: the order the pairing reads."""
    return sorted(members, key=lambda w: (-masses[w], w))


def reference_match_by_value(f, members, target, target_keys, delta, masses,
                             level):
    """The pairing within one class, member by member: the value of
    (y, x) lands in the target iff f(y) lies in target * f(x), and the
    derivative test |n_y - n_x| * q < p * n_x, delta = p/q.  Each
    member's potential is keyed, and each back value multiplied, per
    member; the form `evc._match_by_value` replaced, which decides them
    per group of equal potential values."""
    model = f.model
    shift = level - f.depth
    values = f.values
    p, q = delta.numerator, delta.denominator
    pot = {w: values[w >> shift] for w in members}
    groups: dict = {}
    for w in members:
        groups.setdefault(model.key(pot[w]), []).append(w)
    start = dict.fromkeys(groups, 0)
    wanted: dict = {}
    used: set = set()
    out = []
    for x in members:
        if x in used:
            continue
        nx, px = masses[x], pot[x]
        keys = wanted.get(model.key(px))
        if keys is None:
            keys = wanted[model.key(px)] = [model.key(model.mul(t, px))
                                            for t in target]
        for k in keys:
            group = groups.get(k)
            if group is None:
                continue
            i = start[k]
            while i < len(group) and group[i] in used:
                i += 1
            start[k] = i
            for j in range(i, len(group)):
                y = group[j]
                if y in used or y == x:
                    continue
                ny = masses[y]
                gap = abs(ny - nx) * q
                if not gap < p * nx:
                    continue
                back = model.mul(px, model.inv(pot[y]))
                y_ok = model.key(back) in target_keys and gap < p * ny
                used.update((x, y))
                out.append((x, y, True, y_ok))
                break
            if x in used:
                break
    return out
