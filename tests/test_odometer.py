"""Truncated odometer and flip rules, overflow accounting, and exchange
involutions.

The binary increment oracle here is written from scratch: least
significant coordinate first, carry across the leading ones.  The word
pieces in `word_oracles` are the reference each rule's index table,
overflow set and distortion are compared with.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab.errors import BudgetExhausted, ConfigError, DepthMismatch
from cocyclelab.measure import (CylinderSet, ProductMeasure, all_words,
                                index_word)
from cocyclelab.odometer import (FiniteDepthMap, Flip, GammaAction, Odometer,
                                 adding_machine_action, exchange_involution,
                                 flip_action, orbit_overflow)
from word_oracles import (WordMap, apply_piece, apply_rule, covers, image_of,
                          map_apply, piece_distortion, piece_index_map,
                          piece_overflow, piece_remainder, pieces, word_index,
                          words_at)

UNIFORM = ProductMeasure.uniform()
BIASED = ProductMeasure.iid(Fraction(1, 3))
# a head of two coordinates, then a period of two
SCHEDULE = ProductMeasure.from_schedule(
    [(Fraction(1, 5), Fraction(4, 5)), (Fraction(1, 2), Fraction(1, 2))],
    [(Fraction(2, 3), Fraction(1, 3)), (Fraction(3, 7), Fraction(4, 7))])


def increment_oracle(w: str) -> str | None:
    """Add one with carry; undefined when the carry leaves the word."""
    i = w.find("0")
    if i < 0:
        return None
    return "0" * i + "1" + w[i + 1:]


class TestAddingMachine:
    def test_matches_increment_oracle(self):
        t = Odometer(8, 1)
        for w in all_words(8):
            assert apply_rule(t, w) == increment_oracle(w)
            assert apply_piece(pieces(t), w) == increment_oracle(w)

    def test_inverse_round_trip(self):
        t = Odometer(6, 1)
        back = t.inverse()
        assert back == Odometer(6, -1) and back.inverse() == t
        for w in all_words(6):
            img = apply_rule(t, w)
            if img is not None:
                assert apply_rule(back, img) == w

    def test_orbit_visits_every_word(self):
        # the increment acts transitively on each finite level
        t = Odometer(6, 1)
        w = "0" * 6
        seen = {w}
        for _ in range(2 ** 6 - 1):
            nxt = apply_rule(t, w)
            assert nxt is not None
            w = nxt
            seen.add(w)
        assert len(seen) == 2 ** 6
        assert apply_rule(t, w) is None  # all-ones needs a deeper carry

    def test_uniform_measure_preserved(self):
        action = adding_machine_action(6)
        for g in action.generators:
            assert g.distortion(UNIFORM) == 1

    def test_biased_distortion(self):
        # oracle: piece 1^k 0 -> 0^k 1 and its reverse; worst ratio
        # computed here directly from the weight products
        forward = max(BIASED.cylinder("0" * k + "1") / BIASED.cylinder("1" * k + "0")
                      for k in range(6))
        backward = max(BIASED.cylinder("1" * k + "0") / BIASED.cylinder("0" * k + "1")
                       for k in range(6))
        assert forward == 2 and backward == 16
        action = adding_machine_action(6)
        assert [g.distortion(BIASED) for g in action.generators] == [forward, backward]
        assert action.max_distortion_sum(BIASED) == forward + backward


class TestOverflow:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_adding_machine_overflow_oracle(self, level):
        """Brute force at depth level+3: the increment escapes the
        level-n class exactly on the leading-ones and leading-zeros
        blocks."""
        over = orbit_overflow(adding_machine_action(10), level)
        probe_depth = level + 3
        for w in all_words(probe_depth):
            img = increment_oracle(w)
            escapes_fwd = img is not None and img[level:] != w[level:]
            # inverse escape: w is the image of a word differing deep
            pre = increment_oracle_inverse(w)
            escapes_back = pre is not None and pre[level:] != w[level:]
            if escapes_fwd or escapes_back:
                assert covers(over, w)
        assert over.measure(UNIFORM) == Fraction(2, 2 ** level)

    def test_truncation_remainder_is_unknown(self):
        # at the declared depth the carry cannot be decided, so the
        # remainder counts as overflow; the index table holds the exact
        # carry, and the remainder beside it marks where it is unknown
        over = orbit_overflow(adding_machine_action(4), 3)
        assert covers(over, "1111")
        assert covers(over, "0000")
        assert Odometer(4, 1).remainder == CylinderSet.of(["1111"])
        assert Odometer(4, -1).remainder == CylinderSet.of(["0000"])
        assert apply_rule(Odometer(4, 1), "11110") is None
        assert Odometer(4, 1).index_map(4)[word_index("1111")] == 0
        # beyond the declared depth the overflow keeps the remainder
        assert Odometer(4, 1).overflow(9) == CylinderSet.of(["1111"])

    def test_flip_overflow_empty(self):
        action = flip_action((1, 2))
        for level in (2, 3, 5):
            assert orbit_overflow(action, level).is_empty()

    def test_flip_overflow_below_its_coordinate(self):
        # a flip of coordinate 3 escapes every shallower relation
        action = flip_action((3,))
        assert orbit_overflow(action, 2).is_full()
        assert orbit_overflow(action, 3).is_empty()


def increment_oracle_inverse(w: str) -> str | None:
    i = w.find("1")
    if i < 0:
        return None
    return "1" * i + "0" + w[i + 1:]


class TestFlips:
    def test_flip_is_involution(self):
        s = Flip(3)
        assert s.inverse() is s
        for w in all_words(4):
            img = apply_rule(s, w)
            assert img is not None and apply_rule(s, img) == w
            assert img[:2] == w[:2] and img[3:] == w[3:]
            assert img[2] != w[2]

    def test_flip_preserves_product_measure_iff_fair(self):
        s = Flip(1)
        assert s.distortion(UNIFORM) == 1
        assert s.distortion(BIASED) == 2

    def test_deep_flip_lists_no_words(self):
        # 2^30 pieces as words would not fit; the rule answers in closed form
        s = Flip(30)
        assert s.overflow(29).is_full() and s.overflow(30).is_empty()
        assert orbit_overflow(flip_action((30,)), 29).is_full()
        assert s.distortion(BIASED) == 2
        assert flip_action((30,)).inverse_groups() == [("s30",)]


class TestGammaAction:
    def test_rejects_non_symmetric_family(self):
        with pytest.raises(ConfigError):
            GammaAction((Odometer(5, 1),))
        # an inverse of another depth is another map
        with pytest.raises(ConfigError):
            GammaAction((Odometer(5, 1), Odometer(4, -1)))

    def test_symmetric_families_accepted(self):
        adding_machine_action(5)
        flip_action((1, 4))

    def test_labels_and_depth(self):
        action = adding_machine_action(7)
        assert [g.label for g in action.generators] == ["T", "T~"]
        assert [g.max_depth for g in action.generators] == [7, 7]
        assert [g.label for g in flip_action((4, 1)).generators] == ["s1", "s4"]


class TestFiniteDepthMap:
    def test_from_pairs_expands_common_tails(self):
        # the pair 00 <-> 01 at depth 2, read at depth 3
        tau = FiniteDepthMap.from_pairs(2, [(0b00, 0b01)])
        assert map_apply(tau, "000") == "010"
        assert map_apply(tau, "001") == "011"
        assert map_apply(tau, "010") == "000"
        assert map_apply(tau, "111") == "111"
        assert tau.word_moves() == [("00", "01"), ("01", "00")]

    def test_image_of(self):
        tau = FiniteDepthMap.from_pairs(2, [(0b00, 0b11)])
        img = image_of(tau, CylinderSet.of(["00", "01"]))
        assert img.words == CylinderSet.of(["11", "01"]).words

    def test_identity(self):
        tau = FiniteDepthMap.identity(3)
        assert all(map_apply(tau, w) == w for w in all_words(3))
        assert tau.word_moves() == []


def pairs_of(tau: FiniteDepthMap) -> tuple[tuple[str, str], ...]:
    """The 2-cycles of an involution as word pairs, smaller word first,
    read off its words one by one."""
    return tuple((w, map_apply(tau, w)) for w in all_words(tau.depth)
                 if w < map_apply(tau, w))


def fixed_of(tau: FiniteDepthMap) -> CylinderSet:
    """The words an involution keeps: the unpaired remainder."""
    return CylinderSet.of(w for w in all_words(tau.depth)
                          if map_apply(tau, w) == w)


class TestExchangeInvolution:
    def test_uniform_halves_pair_exactly(self):
        tau = exchange_involution(UNIFORM, Fraction(1, 4), 4, Fraction(1, 4))
        assert tau.depth == 1 and pairs_of(tau) == (("0", "1"),)
        assert fixed_of(tau).is_empty()

    def test_biased_equal_measure_pair(self):
        tau = exchange_involution(BIASED, Fraction(1, 4), 6, Fraction(1, 4))
        # words 01 and 10 have equal mass 2/9 and must end up matched
        pairs = pairs_of(tau)
        paired = {frozenset(p) for p in pairs}
        assert any({a, b} <= {"01", "10"} or (a[:2], b[:2]) == ("01", "10")
                   for a, b in pairs) or frozenset(("01", "10")) in paired

    @pytest.mark.parametrize("mu,eps", [
        (UNIFORM, Fraction(1, 8)),
        (BIASED, Fraction(1, 8)),
        (BIASED, Fraction(1, 40)),
    ])
    def test_involution_contract(self, mu, eps):
        tau = exchange_involution(mu, eps, 10, eps)
        # involution: tau o tau = id, pairs disjoint from fixed, and
        # together they cover the whole space
        pairs, fixed = pairs_of(tau), fixed_of(tau)
        first = CylinderSet.of(a for a, _ in pairs)
        second = CylinderSet.of(b for _, b in pairs)
        assert first.intersection(second).is_empty()
        covered = first.union(second).union(fixed)
        assert covered == CylinderSet.full()
        assert fixed.intersection(first.union(second)).is_empty()
        assert fixed.measure(mu) < eps
        for a, b in pairs:
            r = mu.cylinder(b) / mu.cylinder(a)
            assert abs(r - 1) < eps and abs(1 / r - 1) < eps
        for w in words_at(first.union(second), tau.depth):
            img = map_apply(tau, w)
            assert img != w and map_apply(tau, img) == w

    def test_leftover_budget_tightens_fixed_mass(self):
        tau = exchange_involution(BIASED, Fraction(1, 4), 12, Fraction(1, 100))
        assert fixed_of(tau).measure(BIASED) < Fraction(1, 100)

    @pytest.mark.parametrize("eps,paired", [
        (Fraction(1), False), (Fraction(1001, 1000), True)])
    def test_ratio_pass_is_strict(self, eps, paired):
        # under BIASED the words 0 and 1 weigh 1/3 and 2/3: moving 0 to 1
        # has derivative deviation exactly 1, which eps = 1 must refuse
        tau = exchange_involution(BIASED, eps, 1, Fraction(2))
        assert pairs_of(tau) == ((("0", "1"),) if paired else ())
        assert fixed_of(tau) == (CylinderSet.empty() if paired
                                 else CylinderSet.full())

    def test_budget_exhausted_when_too_shallow(self):
        with pytest.raises(BudgetExhausted):
            exchange_involution(BIASED, Fraction(1, 1000), 2, Fraction(1, 10 ** 6))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
def test_flip_actions_commute(i, j):
    a, b = Flip(i), Flip(j)
    depth = max(i, j) + 1
    for w in all_words(depth):
        assert (apply_rule(a, apply_rule(b, w))
                == apply_rule(b, apply_rule(a, w)))


index_maps = st.one_of(
    st.integers(1, 5).map(Flip),
    st.integers(1, 5).map(lambda d: Odometer(d, 1)),
    st.integers(1, 5).map(lambda d: Odometer(d, -1)),
    st.integers(1, 4).map(lambda c: Flip(c).inverse()))


@settings(max_examples=100, deadline=None)
@given(index_maps, st.integers(0, 8))
def test_index_map_matches_apply(sigma, depth):
    """At any depth, shallower than the rule or not, the table maps each
    prefix to the prefix of the piece image of every word outside the
    remainder that extends it; the pieces leave exactly the remainder
    unmapped."""
    table = sigma.index_map(depth)
    assert len(table) == 1 << depth
    word_pieces = pieces(sigma)
    for w in all_words(max(depth, sigma.max_depth)):
        img = apply_piece(word_pieces, w)
        assert (img is None) == covers(sigma.remainder, w)
        if img is not None:
            assert table[word_index(w[:depth])] == word_index(img[:depth])


def add_with_wrap(w: str, step: int) -> str:
    """Add `step` to a word read least significant coordinate first,
    modulo 2^len(w): the untruncated carry on a prefix."""
    if step == 1:
        img = increment_oracle(w)
        return "0" * len(w) if img is None else img
    img = increment_oracle_inverse(w)
    return "1" * len(w) if img is None else img


@pytest.mark.parametrize("depth", range(0, 7))
def test_index_map_is_the_carry_at_every_depth(depth):
    # below, at and beyond the odometer's depth its table is the carry
    # modulo 2^depth; a flip beyond the prefix leaves it fixed
    for step in (1, -1):
        table = Odometer(4, step).index_map(depth)
        assert [index_word(j, depth) for j in table] == [
            add_with_wrap(w, step) for w in all_words(depth)]
    assert Flip(depth + 1).index_map(depth) == tuple(range(1 << depth))


def test_rules_reject_bad_parameters():
    for bad in (lambda: Odometer(0, 1), lambda: Odometer(3, 2), lambda: Flip(0)):
        with pytest.raises(ValueError):
            bad()


RULES = ([Odometer(d, step) for d in range(1, 11) for step in (1, -1)]
         + [Flip(c) for c in range(1, 8)])


@pytest.mark.parametrize("rule", RULES, ids=lambda g: f"{g.label}-{g.max_depth}")
def test_rule_matches_its_word_pieces(rule):
    """Each rule's closed forms equal the word-piece reference: its index
    table at and one beyond its depth on every word outside the
    remainder, its remainder, its overflow at levels 0..13 and its
    distortion under three measures."""
    word_pieces = pieces(rule)
    assert rule.remainder == piece_remainder(word_pieces)
    for depth in (rule.max_depth, rule.max_depth + 1):
        table, expected = rule.index_map(depth), piece_index_map(word_pieces, depth)
        assert {i: table[i] for i in expected} == expected
    for level in range(14):
        assert rule.overflow(level) == piece_overflow(word_pieces, level)
    for mu in (UNIFORM, BIASED, SCHEDULE):
        assert rule.distortion(mu) == piece_distortion(word_pieces, mu)


@st.composite
def shallow_pairs(draw):
    """Disjoint word pairs of one depth d, and a map depth at least d."""
    d = draw(st.integers(0, 4))
    depth = d + draw(st.integers(0, 2))
    order = draw(st.permutations(range(1 << d)))
    count = draw(st.integers(0, len(order) // 2))
    pairs = [(index_word(order[2 * i], d), index_word(order[2 * i + 1], d))
             for i in range(count)]
    return d, depth, pairs


def probe_sets(depth):
    return st.lists(st.text(alphabet="01", max_size=depth + 1),
                    max_size=4).map(CylinderSet.of)


@settings(max_examples=200, deadline=None)
@given(shallow_pairs(), st.data())
def test_from_pairs_matches_word_map(case, data):
    d, depth, pairs = case
    oracle = WordMap.from_pairs(depth, pairs)
    theta = FiniteDepthMap.from_pairs(
        d, [(word_index(a), word_index(b)) for a, b in pairs])
    # shallower pairs restated at the map depth: the word form's tails
    assert FiniteDepthMap(depth, theta.index_map(depth)) == oracle.indexed()
    for w in all_words(depth + 1):
        assert map_apply(theta, w) == oracle.apply(w)
    s = data.draw(probe_sets(depth))
    assert image_of(theta, s) == oracle.image_of(s)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda d: st.tuples(
    st.just(d), st.permutations(range(1 << d)))), st.data())
def test_index_table_matches_word_map(case, data):
    depth, image = case
    oracle = WordMap(depth, {index_word(i, depth): index_word(j, depth)
                             for i, j in enumerate(image) if i != j})
    theta = oracle.indexed()
    assert theta.table == tuple(image)
    assert theta.word_moves() == sorted(oracle.moves.items())
    assert FiniteDepthMap.from_moves(depth, theta.word_moves()) == theta
    for w in all_words(depth + 1):
        assert map_apply(theta, w) == oracle.apply(w)
    # the inverse read back from reversed moves is the inverse permutation
    inverse = FiniteDepthMap.from_moves(
        depth, [(t, s) for s, t in theta.word_moves()])
    assert inverse == oracle.inverse().indexed()
    assert all(inverse.table[j] == i for i, j in enumerate(theta.table))
    s = data.draw(probe_sets(depth))
    assert image_of(theta, s) == oracle.image_of(s)


def test_from_moves_rejects_non_permutations():
    with pytest.raises(ValueError):
        FiniteDepthMap.from_moves(2, [("00", "01")])
    with pytest.raises(DepthMismatch):
        FiniteDepthMap.from_moves(2, [("0", "1"), ("1", "0")])
    with pytest.raises(DepthMismatch):
        FiniteDepthMap.identity(2).index_map(1)
