"""Exact product-measure arithmetic and cylinder set algebra.

Oracle policy: expected masses and derivatives are recomputed here by
direct weight products, never copied from the implementation.
"""
import csv
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab.errors import DepthMismatch
from cocyclelab.measure import (ONE, ZERO, CylinderSet, ProductMeasure,
                                all_words, check_word, index_word,
                                word_index, worst_deviation)
from cocyclelab.odometer import FiniteDepthMap
from word_oracles import cylinder_sum

UNIFORM = ProductMeasure.uniform()
BIASED = ProductMeasure.iid(Fraction(1, 3))
PERIOD2 = ProductMeasure.from_schedule(
    (), [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))])
SCHEDULES = [UNIFORM, BIASED, PERIOD2]


def weight(mu: ProductMeasure, i: int, bit: str) -> Fraction:
    """The mass the i-th coordinate (1-based) gives to symbol `bit`."""
    if i <= len(mu.head):
        pair = mu.head[i - 1]
    else:
        pair = mu.cycle[(i - len(mu.head) - 1) % len(mu.cycle)]
    return pair[0] if bit == "0" else pair[1]


def naive_mass(mu: ProductMeasure, w: str) -> Fraction:
    out = ONE
    for i, bit in enumerate(w):
        out *= weight(mu, i + 1, bit)
    return out


def naive_ratio(mu: ProductMeasure, x: str, y: str) -> Fraction:
    out = ONE
    for i, (bx, by) in enumerate(zip(x, y), start=1):
        if bx != by:
            out *= weight(mu, i, by) / weight(mu, i, bx)
    return out


def random_words(count: int, max_len: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(0, max_len)
        out.append("".join(rng.choice("01") for _ in range(k)))
    return out


class TestExactArithmetic:
    """The acceptance-criterion batch: 1000 random words, three weight
    schedules, additivity and chain rule with zero tolerance."""

    WORDS = random_words(1000, 12, seed=20240817)

    @pytest.mark.parametrize("mu", SCHEDULES, ids=["uniform", "iid13", "period2"])
    def test_refinement_additivity_exact(self, mu):
        for w in self.WORDS:
            assert mu.cylinder(w) == mu.cylinder(w + "0") + mu.cylinder(w + "1")
            assert mu.cylinder(w) == naive_mass(mu, w)

    @pytest.mark.parametrize("mu", SCHEDULES, ids=["uniform", "iid13", "period2"])
    def test_ratio_chain_rule_exact(self, mu):
        rng = random.Random(99)
        for w in self.WORDS:
            if not w:
                continue
            y = "".join(rng.choice("01") for _ in w)
            z = "".join(rng.choice("01") for _ in w)
            assert mu.ratio(w, y) * mu.ratio(y, z) == mu.ratio(w, z)
            assert mu.ratio(w, y) == mu.cylinder(y) / mu.cylinder(w)
            assert mu.ratio(w, w) == ONE


def test_total_mass_is_one():
    for mu in SCHEDULES:
        for depth in range(5):
            assert sum(mu.cylinder(w) for w in all_words(depth)) == ONE


def test_biased_weights():
    assert BIASED.cylinder("0") == Fraction(1, 3)
    assert BIASED.cylinder("10") == Fraction(2, 3) * Fraction(1, 3)
    assert PERIOD2.cylinder("11") == Fraction(1, 2) * Fraction(2, 3)


def test_shift_drops_coordinates():
    nu = PERIOD2.shift(1)
    # coordinate i of the shifted measure is coordinate i+1 of the original
    assert nu.cylinder("0") == Fraction(1, 3)
    assert nu.cylinder("00") == Fraction(1, 3) * Fraction(1, 2)


def test_schedule_key_distinguishes():
    assert UNIFORM.schedule_key() != BIASED.schedule_key()
    assert PERIOD2.schedule_key() == ProductMeasure.from_schedule(
        (), [(Fraction(1, 2), Fraction(1, 2)),
             (Fraction(1, 3), Fraction(2, 3))]).schedule_key()


words_strategy = st.lists(st.text(alphabet="01", max_size=6), max_size=8)


@st.composite
def cylinder_sets(draw):
    return CylinderSet.of(draw(words_strategy))


@settings(max_examples=150, deadline=None)
@given(cylinder_sets(), cylinder_sets())
def test_de_morgan(a, b):
    lhs = a.union(b).complement()
    rhs = a.complement().intersection(b.complement())
    assert lhs.words == rhs.words


@settings(max_examples=150, deadline=None)
@given(cylinder_sets(), cylinder_sets())
def test_measure_inclusion_exclusion(a, b):
    for mu in SCHEDULES:
        assert (a.union(b).measure(mu) + a.intersection(b).measure(mu)
                == a.measure(mu) + b.measure(mu))


@settings(max_examples=150, deadline=None)
@given(cylinder_sets())
def test_complement_involution(a):
    assert a.complement().complement().words == a.words
    for mu in SCHEDULES:
        assert a.measure(mu) + a.complement().measure(mu) == ONE


@settings(max_examples=300, deadline=None)
@given(cylinder_sets())
def test_complement_keeps_max_depth(a):
    # the step's fingerprint partition resolves f masked off z0 at
    # max(f.depth, z0.max_depth) on the strength of this (the empty and
    # the full set both have max depth 0, so they hold it too)
    assert a.complement().max_depth == a.max_depth


@settings(max_examples=100, deadline=None)
@given(cylinder_sets(), st.integers(min_value=0, max_value=4))
def test_saturate_contains_and_is_free(a, n):
    sat = a.saturate(n)
    assert a.difference(sat).is_empty()
    # saturation is determined by the suffix beyond n
    for w in sat.words:
        if len(w) <= n:
            continue
        for other in all_words(n):
            assert oracle_covers(sat, other + w[n:])


@settings(max_examples=100, deadline=None)
@given(cylinder_sets(), st.integers(min_value=1, max_value=3))
def test_prepend_free_measure(a, n):
    lifted = a.prepend_free(n)
    assert lifted.measure(UNIFORM) == a.measure(UNIFORM)
    shifted = UNIFORM.shift(n)
    assert lifted.measure(UNIFORM) == a.measure(shifted)


def test_words_at_partitions():
    s = CylinderSet.of(["0", "10"])
    assert [index_word(i, 2) for i in s.indices(2)] == ["00", "01", "10"]
    assert [index_word(i, 3) for i in s.indices(3)] == [
        "000", "001", "010", "011", "100", "101"]
    with pytest.raises(DepthMismatch):
        s.indices(1)


def test_canonical_merge():
    # both children present collapses to the parent
    assert CylinderSet.of(["00", "01"]).words == ("0",)
    assert CylinderSet.of(["0", "1"]).words == ("",)
    assert CylinderSet.full().is_full()
    assert CylinderSet.empty().is_empty()


def test_csv_round_trip():
    s = CylinderSet.of(["0", "110"])
    header, *rows = csv.reader(io.StringIO(s.to_csv(BIASED)))
    assert header == ["word", "depth", "mass_numerator", "mass_denominator"]
    assert CylinderSet.of(r[0] for r in rows) == s
    assert [Fraction(int(r[2]), int(r[3])) for r in rows] == [
        BIASED.cylinder(w) for w in s.words]


# ---------------------------------------------------------------------------
# Oracles for the fast paths: the straightforward implementations, kept
# here only as references
# ---------------------------------------------------------------------------

def oracle_normalize(words):
    """Quadratic canonical form: drop nested words by scanning every word
    kept so far, then merge sibling pairs until nothing changes."""
    for w in words:
        if any(c not in "01" for c in w):
            raise ValueError(f"not a 0/1 word: {w!r}")
    ws = sorted(set(words), key=lambda w: (len(w), w))
    kept = []
    for w in ws:
        if not any(w.startswith(p) for p in kept if len(p) < len(w)):
            kept.append(w)
    merged = True
    current = set(kept)
    while merged:
        merged = False
        for w in sorted(current, key=len, reverse=True):
            if w and w in current:
                sib = w[:-1] + ("1" if w[-1] == "0" else "0")
                if sib in current:
                    current.discard(w)
                    current.discard(sib)
                    current.add(w[:-1])
                    merged = True
    return tuple(sorted(current, key=lambda w: (len(w), w)))


def oracle_covers(s, w):
    return any(w.startswith(p) for p in s.words if len(p) <= len(w))


@st.composite
def nested_word_lists(draw):
    """Word lists with duplicates, prefixes, siblings and extensions of
    their own members, sometimes the empty word, up to depth 20."""
    base = draw(st.lists(st.text(alphabet="01", max_size=20), max_size=30))
    out = list(base)
    for w in base:
        kind = draw(st.sampled_from(["keep", "dup", "prefix", "sibling", "extend"]))
        if kind == "dup":
            out.append(w)
        elif kind == "prefix":
            out.append(w[:draw(st.integers(0, len(w)))])
        elif kind == "sibling" and w:
            out.append(w[:-1] + ("1" if w[-1] == "0" else "0"))
        elif kind == "extend":
            out.append(w + draw(st.text(alphabet="01", max_size=6)))
    return draw(st.permutations(out))


@settings(max_examples=300, deadline=None)
@given(nested_word_lists())
def test_normalize_matches_oracle(words):
    assert CylinderSet.of(words).words == oracle_normalize(words)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32), st.floats(0.0, 0.6))
def test_normalize_matches_oracle_on_depth10_tables(seed, drop):
    rng = random.Random(seed)
    words = [w for w in all_words(10) if rng.random() >= drop]
    words += ["".join(rng.choice("01") for _ in range(rng.randint(0, 9)))
              for _ in range(rng.randint(0, 3))]
    rng.shuffle(words)
    assert CylinderSet.of(words).words == oracle_normalize(words)


def check_algebra(a, b, n, probes):
    """Every set operation against brute-force membership: on each probe
    word (of one depth, at least n beyond both sets' deepest word) the
    result covers the word exactly when the Python set operation on the
    inputs' memberships says so, and every result is canonical."""
    def covered(s):
        return {w for w in probes if oracle_covers(s, w)}

    in_a, in_b, everything = covered(a), covered(b), set(probes)
    # saturation frees the first n coordinates; prepend_free reads a as a
    # set of words beyond the n-th
    sat = {w for w in probes
           if any(oracle_covers(a, p + w[n:]) for p in all_words(n))}
    lifted = {w for w in probes if oracle_covers(a, w[n:])}
    results = [
        (a.union(b), in_a | in_b),
        (a.intersection(b), in_a & in_b),
        (a.difference(b), in_a - in_b),
        (a.complement(), everything - in_a),
        (a.saturate(n), sat),
        (a.prepend_free(n), lifted),
    ]
    for result, expected in results:
        assert covered(result) == expected
        assert CylinderSet.of(result.words) == result


@settings(max_examples=200, deadline=None)
@given(cylinder_sets(), cylinder_sets(), st.integers(0, 3))
def test_set_algebra_matches_membership(a, b, n):
    depth = max(a.max_depth, b.max_depth) + n
    check_algebra(a, b, n, list(all_words(depth)))


def test_set_algebra_on_sparse_deep_words():
    # cylinders of depth 46 to 60: nothing may enumerate the words of
    # their depth
    a = CylinderSet.of(["0" * 60, "1" * 45 + "0"])
    b = CylinderSet.of(["0" * 59 + "1", "1" * 46, "0" * 60])
    n = 2
    depth = 60 + n
    # the probes: along the path of each member word (and of a's words
    # under the prefix 00, for the lifted sets), every prefix and its
    # sibling, each padded with zeros and with ones to the probe depth
    probes = set()
    for w in (*a.words, *b.words, *("00" + w for w in a.words)):
        for k in range(len(w) + 1):
            for branch in (w[:k], w[:k - 1] + "01"[w[k - 1] == "0"] if k else ""):
                probes.update(branch + fill * (depth - len(branch))
                              for fill in "01")
    check_algebra(a, b, n, sorted(probes))
    assert a.union(b).words == ("1" * 45, "0" * 59)
    assert a.complement().max_depth == 60


weight_pairs = st.integers(2, 12).flatmap(
    lambda den: st.integers(1, den - 1).map(
        lambda num: (Fraction(num, den), 1 - Fraction(num, den))))


@st.composite
def measures_and_words(draw):
    head = draw(st.lists(weight_pairs, min_size=1, max_size=3))
    cycle = draw(st.lists(weight_pairs, min_size=1, max_size=3))
    mu = ProductMeasure.from_schedule(head, cycle)
    period = len(head) + len(cycle)
    words = draw(st.lists(
        st.text(alphabet="01", min_size=0, max_size=3 * period + 2), max_size=10))
    long_word = draw(st.text(alphabet="01", min_size=period + 1,
                             max_size=3 * period + 2))
    return mu, words + [long_word]


@settings(max_examples=200, deadline=None)
@given(measures_and_words())
def test_cylinder_matches_weight_product(case):
    mu, words = case
    for w in words:
        assert mu.cylinder(w) == naive_mass(mu, w)


@st.composite
def measures_and_word_pairs(draw):
    mu = draw(st.one_of(
        st.just(UNIFORM),
        weight_pairs.map(lambda pair: ProductMeasure.iid(pair[0])),
        st.builds(ProductMeasure.from_schedule,
                  st.lists(weight_pairs, min_size=1, max_size=3),
                  st.lists(weight_pairs, min_size=1, max_size=3))))
    period = len(mu.head) + len(mu.cycle)
    pairs = []
    # one depth up to three periods, and one beyond head + cycle
    for depth in (draw(st.integers(0, 3 * period + 2)),
                  draw(st.integers(period + 1, 3 * period + 2))):
        words = st.text(alphabet="01", min_size=depth, max_size=depth)
        pairs += draw(st.lists(st.tuples(words, words), min_size=1, max_size=5))
        x = draw(words)
        pairs.append((x, x))
    return mu, pairs


@settings(max_examples=200, deadline=None)
@given(measures_and_word_pairs())
def test_ratio_and_deviation_match_weight_product(case):
    mu, pairs = case
    for x, y in pairs:
        expected = naive_ratio(mu, x, y)
        assert mu.ratio(x, y) == expected
        # the integer derivative deviation, from the level's masses
        masses, _ = mu.level_masses(len(x))
        assert (worst_deviation(masses, [(word_index(x), word_index(y))])
                == abs(expected - 1))
    # the worst over all pairs of one depth, compared by cross-multiplying
    for depth in {len(x) for x, _ in pairs}:
        same = [(x, y) for x, y in pairs if len(x) == depth]
        masses, _ = mu.level_masses(depth)
        assert worst_deviation(
            masses, [(word_index(x), word_index(y)) for x, y in same]) == max(
                abs(naive_ratio(mu, x, y) - 1) for x, y in same)


@pytest.mark.parametrize("mu", SCHEDULES, ids=["uniform", "iid13", "period2"])
def test_ratio_needs_equal_depths(mu):
    for x, y in [("0", ""), ("01", "011"), ("110", "11")]:
        with pytest.raises(DepthMismatch):
            mu.ratio(x, y)


@pytest.mark.parametrize("bad", ["20", "0a1", "01 "])
def test_bad_character_raises(bad):
    with pytest.raises(ValueError):
        check_word(bad)
    with pytest.raises(ValueError):
        UNIFORM.cylinder(bad)
    same_depth = "0" * len(bad)
    with pytest.raises(ValueError):
        PERIOD2.ratio(bad, same_depth)
    with pytest.raises(ValueError):
        PERIOD2.ratio(same_depth, bad)
    with pytest.raises(ValueError):
        CylinderSet.of(["0", bad])
    # a stored map's moves are read through the same word check
    with pytest.raises(ValueError):
        FiniteDepthMap.from_moves(len(bad), [(bad, same_depth)])


@st.composite
def sets_and_probes(draw):
    s = draw(st.one_of(st.just(CylinderSet.empty()), st.just(CylinderSet.full()),
                       cylinder_sets()))
    probes = draw(st.lists(st.text(alphabet="01", max_size=8), max_size=10))
    # words shorter than a member, and members themselves
    for p in s.words:
        probes += [p, p[:draw(st.integers(0, len(p)))]]
    return s, probes


@settings(max_examples=200, deadline=None)
@given(sets_and_probes())
def test_covers_matches_scan(case):
    s, probes = case
    # a set covers a word when the word's bit in the mask at its depth is set
    for w in probes:
        assert s.mask(len(w))[word_index(w)] == oracle_covers(s, w)


# ---------------------------------------------------------------------------
# Integer bridges: dense tables indexed by `word_index` against the word
# forms they replace
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7).flatmap(lambda d: st.tuples(
    st.just(d), st.sets(st.integers(0, (1 << d) - 1)))))
def test_from_indices_matches_of(case):
    depth, indices = case
    words = [w for w in all_words(depth) if word_index(w) in indices]
    assert (CylinderSet.from_indices(depth, sorted(indices)).words
            == CylinderSet.of(words).words)


@settings(max_examples=200, deadline=None)
@given(cylinder_sets(), st.integers(0, 3))
def test_restated_deeper_is_the_same_set(s, k):
    # the set listed at depth d + k and rebuilt is the set built at d:
    # one form, equal fields and equal hashes
    deeper = s.max_depth + k
    again = CylinderSet.from_indices(deeper, s.indices(deeper))
    assert again == s and hash(again) == hash(s)
    assert again.max_depth == s.max_depth == max(map(len, s.words), default=0)
    # so are the member words, each split into its extensions by k bits
    assert CylinderSet.of(w + t for w in s.words for t in all_words(k)) == s


@settings(max_examples=200, deadline=None)
@given(cylinder_sets(), st.integers(0, 8))
def test_mask_matches_covers(s, depth):
    mask = s.mask(depth)
    assert len(mask) == 1 << depth and set(mask) <= {0, 1}
    assert [w for w in all_words(depth) if mask[word_index(w)]] == [
        w for w in all_words(depth) if oracle_covers(s, w)]
    assert s.mask(depth) is mask


@st.composite
def level_measures(draw):
    kind = draw(st.sampled_from(["uniform", "iid", "head+cycle"]))
    if kind == "uniform":
        return ProductMeasure.uniform()
    if kind == "iid":
        return ProductMeasure.iid(draw(weight_pairs)[0])
    return ProductMeasure.from_schedule(
        draw(st.lists(weight_pairs, min_size=1, max_size=3)),
        draw(st.lists(weight_pairs, min_size=1, max_size=3)))


@settings(max_examples=100, deadline=None)
@given(level_measures(), st.integers(0, 7))
def test_level_masses_match_cylinder(mu, depth):
    numerators, denominator = mu.level_masses(depth)
    assert len(numerators) == 1 << depth
    for w in all_words(depth):
        assert Fraction(numerators[word_index(w)], denominator) == mu.cylinder(w)


def test_depth_zero_bridges():
    assert word_index("") == 0
    assert CylinderSet.from_indices(0, []) == CylinderSet.empty()
    assert CylinderSet.from_indices(0, [0]) == CylinderSet.full()
    assert CylinderSet.empty().mask(0) == b"\x00"
    assert CylinderSet.full().mask(0) == b"\x01"
    assert BIASED.level_masses(0) == ((1,), 1)
    assert index_word(0, 0) == "" and index_word(5, 4) == "0101"
    assert CylinderSet.full().indices(0) == [0]
    assert CylinderSet.empty().indices(0) == []


# ---------------------------------------------------------------------------
# Set masses from index ranges against the word-by-word sum
# ---------------------------------------------------------------------------

@st.composite
def measured_sets(draw):
    """A set from the algebra's constructors: empty, full, drawn words,
    or a drawn set lifted by `prepend_free` or `saturate`."""
    kind = draw(st.sampled_from(["empty", "full", "words", "prepend_free",
                                 "saturate"]))
    if kind == "empty":
        return CylinderSet.empty()
    if kind == "full":
        return CylinderSet.full()
    s = draw(cylinder_sets())
    if kind == "words":
        return s
    return getattr(s, kind)(draw(st.integers(0, 4)))


@settings(max_examples=300, deadline=None)
@given(level_measures(), measured_sets())
def test_measure_matches_cylinder_sum(mu, s):
    assert s.measure(mu) == cylinder_sum(s, mu)


deep_words = st.lists(st.text(alphabet="01", min_size=60, max_size=70),
                      min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(level_measures(), deep_words, deep_words)
def test_measure_of_deep_sparse_sets(mu, a, b):
    # depth 60 and beyond: a 2^depth table would not fit in memory
    first, second = CylinderSet.of(a), CylinderSet.of(b)
    for s in (first, first.union(second), first.complement(),
              first.difference(second), first.prepend_free(3)):
        assert s.max_depth >= 60 or s.is_empty()
        assert s.measure(mu) == cylinder_sum(s, mu)


def test_measure_reads_no_cylinder(monkeypatch):
    s = CylinderSet.of(["0" * 60, "1" * 45 + "0", "01"])
    expected = cylinder_sum(s, PERIOD2)

    def refuse(self, w):
        raise AssertionError("measure summed a cylinder")

    monkeypatch.setattr(ProductMeasure, "cylinder", refuse)
    assert s.measure(PERIOD2) == expected


def test_measure_is_kept_per_measure():
    s = CylinderSet.of(["0", "110", "1011"])
    first = ProductMeasure.iid(Fraction(1, 3))
    twin = ProductMeasure.iid(Fraction(1, 3))
    assert twin is not first and twin == first
    mass = s.measure(first)
    # an equal measure object reads the same memo entry
    assert s.measure(twin) is mass
    assert mass == cylinder_sum(s, BIASED)
    # other measures keep their own entries
    assert s.measure(UNIFORM) == cylinder_sum(s, UNIFORM) != mass
    assert s.measure(PERIOD2) == cylinder_sum(s, PERIOD2)
    assert s.measure(first) is mass


@settings(max_examples=100, deadline=None)
@given(cylinder_sets(), st.integers(0, 3))
def test_ranges_list_the_indices(s, extra):
    depth = s.max_depth + extra
    assert [i for lo, hi in s.ranges(depth) for i in range(lo, hi)] == [
        word_index(w) for w in all_words(depth) if oracle_covers(s, w)]
    if s.max_depth:
        with pytest.raises(DepthMismatch):
            s.ranges(s.max_depth - 1)

