"""Step functions, increments, the exported kernel, and the cocycle laws.

The kernel f(a) f(b)^-1 of a potential f is read back from its CSV
export and held to the three kernel laws by `word_oracles.cocycle_check`.
"""
import csv
import dataclasses
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab.cocycles import (PartialStepFunction, StepFunction,
                                 coboundary_increment, cocycle_distance,
                                 increment_agreement, increments_within,
                                 kernel_csv, trivial_on_overflow)
from cocyclelab.errors import DepthMismatch
from cocyclelab.groups import (DirectProductGroup, DirectSumZGroup,
                               FreeAbelianGroup, cyclic_group,
                               symmetric_group_3)
from cocyclelab.measure import CylinderSet, ProductMeasure, all_words
from cocyclelab.odometer import (Flip, GammaAction, Odometer,
                                 adding_machine_action,
                                 flip_action, orbit_overflow)
from word_oracles import (cocycle_check, covers, distance_words,
                          increment_words, piece_remainder, pieces, word_index)

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
S3 = symmetric_group_3()
UNIFORM = ProductMeasure.uniform()


def parity_function(depth: int) -> StepFunction:
    return StepFunction.from_table(
        Z2, {w: w.count("1") % 2 for w in all_words(depth)})


def first_bit(depth: int) -> StepFunction:
    return StepFunction.from_table(Z2, {w: int(w[0]) for w in all_words(depth)})


def kernel_table(f: StepFunction) -> dict:
    """The kernel of `f` read back from `kernel_csv`, keyed by word pair."""
    rows = list(csv.reader(io.StringIO(kernel_csv(f))))
    assert rows[0] == ["source", "target", "value"]
    return {(a, b): f.model.parse(v) for a, b, v in rows[1:]}


def value_at(p: PartialStepFunction, w: str):
    """The increment's value on the cylinder of a word of its depth."""
    return p.values[word_index(w)]


class TestStepFunction:
    def test_prefix_lookup(self):
        # a deeper word reads the value of its prefix at the function's depth
        f = first_bit(1)
        assert f.values_at(4)[word_index("0110")] == 0
        assert f.values_at(2)[word_index("10")] == 1

    def test_value_and_level_sets(self):
        f = parity_function(2)
        assert set(f.value_set()) == {0, 1}
        assert f.level_set(1).words == CylinderSet.of(["01", "10"]).words

    def test_csv_round_trip(self):
        table = {w: S3.parse("t01") if w[0] == "0" else S3.parse("e")
                 for w in all_words(2)}
        f = StepFunction.from_table(S3, table)
        header, *rows = csv.reader(io.StringIO(f.to_csv()))
        assert header == ["word", "value"]
        assert {w: S3.parse(v) for w, v in rows} == table


    @pytest.mark.parametrize("table,named", [
        ({}, "no words"),
        ({"0x1": 0, "000": 0}, "'0x1'"),
        ({"00": 0, "01": 0, "1": 0, "11": 0}, "'1'"),
        ({"0": 0, "1 ": 1}, "'1 '"),
        ({"00": 0, "01": 0, "11": 0}, "'10'"),
    ])
    def test_from_table_needs_every_word_of_one_depth(self, table, named):
        with pytest.raises(DepthMismatch, match=named):
            StepFunction.from_table(Z2, table)

    def test_values_at_is_kept_per_depth(self):
        f = first_bit(2)
        assert f.values_at(2) is f.values
        assert f.values_at(5) is f.values_at(5)
        assert f.values_at(5) == tuple(int(w[0]) for w in all_words(5))
        # a refused depth leaves nothing in the memo, so it is refused again
        for _ in range(2):
            with pytest.raises(DepthMismatch):
                f.values_at(1)

    def test_from_table_orders_values_by_word_index(self):
        f = StepFunction.from_table(Z4, {"11": 3, "00": 0, "10": 2, "01": 1})
        assert f.values == (0, 1, 2, 3)
        assert StepFunction.from_table(Z4, {"": 2}).values == (2,)


def undefined_indices(p: PartialStepFunction) -> list[int]:
    """The word indices of the increment's cells that lie wholly inside
    its remainder."""
    return [i for lo, hi in p.remainder.cells(p.depth) for i in range(lo, hi)]


def unmapped_indices(sigma, depth: int) -> list[int]:
    """The depth-`depth` word indices the generator's word pieces leave
    unmapped."""
    return piece_remainder(pieces(sigma)).indices(depth)


class TestPartialStepFunction:
    def test_masked_region_is_undefined(self):
        # the depth-2 odometer maps 0x to 1x and 10 to 01; 11 carries out
        sigma = Odometer(2, 1)
        f = StepFunction.from_table(Z4, {"00": 0, "10": 1, "01": 2, "11": 0})
        p = coboundary_increment(f, sigma)
        assert isinstance(p, StepFunction)
        assert p.remainder == sigma.remainder == CylinderSet.of(["11"])
        assert undefined_indices(p) == unmapped_indices(sigma, 2) == [3]
        assert value_at(p, "01") == 2
        # the table holds the exact carry 11 -> 00 there, which no
        # predicate reads: the value set skips it
        assert value_at(p, "11") == 0
        assert p.value_set() == (1, 2)

    def test_value_set_excludes_masked(self):
        sigma = Odometer(2, 1)
        p = coboundary_increment(first_bit(2), sigma)
        assert undefined_indices(p) == unmapped_indices(sigma, 2)
        assert p.value_set() == (1,)


class TestIncrements:
    def test_flip_increment_oracle(self):
        f = parity_function(3)
        inc = coboundary_increment(f, Flip(2))
        # flipping one coordinate always changes parity by one
        for w in all_words(3):
            assert value_at(inc, w) == 1

    def test_adding_machine_increment_undefined_on_remainder(self):
        # kept at the potential's depth 2; the remainder 1111 lies
        # strictly inside the cell 11, whose value holds on the rest
        f = parity_function(2)
        inc = coboundary_increment(f, Odometer(4, 1))
        assert inc.depth == 2 and inc.remainder == CylinderSet.of(["1111"])
        assert undefined_indices(inc) == []
        assert value_at(inc, "00") == 1  # 0000 -> 1000 flips one bit
        assert value_at(inc, "11") == 0  # 11ab -> 00cd outside 1111
        assert inc.value_set() == (0, 1)

    def test_increments_within(self):
        doubled = StepFunction.from_table(Z4, {"0": 0, "1": 2})
        assert increments_within(doubled, flip_action((1,)), [2])
        assert not increments_within(doubled, flip_action((1,)), [1])
        # the increment is 2 on the whole space, outside {0, 1}
        assert coboundary_increment(doubled, Flip(1)).values == (2, 2)

    def test_repeat_is_the_same_object_at_the_potentials_depth(self):
        f = parity_function(2)
        flip = Flip(1)
        first = coboundary_increment(f, flip)
        assert coboundary_increment(f, flip) is first
        # keyed by value: a rebuilt, equal generator hits the same entry
        assert coboundary_increment(f, Flip(1)) is first
        # a generator deeper than f keeps the increment at the depth of
        # f: it fixes every prefix of that depth
        deeper = coboundary_increment(f, Flip(4))
        assert deeper.depth == first.depth == 2
        assert deeper.values == (0,) * 4 and deeper.remainder.is_empty()
        assert coboundary_increment(f, Flip(4)) is deeper
        assert isinstance(first.values, tuple)

    def test_memo_lives_on_the_instance(self):
        flip = Flip(1)
        first = coboundary_increment(parity_function(2), flip)
        again = coboundary_increment(parity_function(2), flip)
        assert again == first and again is not first

    def test_increment_agreement_exact_set(self):
        f, g = parity_function(2), first_bit(2)
        agree = increment_agreement(f, g, flip_action((2,)))
        # parity increment is 1 everywhere; first-bit increment under a
        # second-coordinate flip is 0 everywhere: they never agree
        assert list(agree) == ["s2"] and agree["s2"].is_empty()
        same = increment_agreement(f, f, flip_action((1, 2)))
        assert list(same) == ["s1", "s2"]
        assert all(s.is_full() for s in same.values())

    def test_agreement_is_the_intersection_of_its_generators(self):
        f = StepFunction.from_table(Z4, {"00": 0, "01": 1, "10": 0, "11": 3})
        g = StepFunction.from_table(Z4, {"00": 0, "01": 1, "10": 2, "11": 3})
        agree = increment_agreement(f, g, flip_action((1, 2)))
        # s1 pairs 00 with 10 and 01 with 11: the increments of f there
        # are 0 and 2, those of g 2 everywhere
        assert agree["s1"] == CylinderSet.of(["01", "11"])
        # s2 pairs 10 with 11, so only the 0-half keeps its s2 increment
        assert agree["s2"] == CylinderSet.of(["0"])
        # every increment agrees on their intersection, the step's agreement
        assert agree["s1"].intersection(agree["s2"]) == CylinderSet.of(["01"])


class TestTrivialOnOverflow:
    def test_identity_passes(self):
        f = StepFunction.from_table(Z2, {"0": 0, "1": 0})
        assert trivial_on_overflow(
            f, orbit_overflow(adding_machine_action(6), 1)) is True

    def test_nontrivial_on_overflow_fails(self):
        f = first_bit(1)
        assert trivial_on_overflow(
            f, orbit_overflow(adding_machine_action(6), 1)) is False

    def test_nontrivial_on_the_remainder_fails(self):
        # nontrivial exactly on the truncation remainder, which the
        # overflow includes
        f = StepFunction.from_table(Z2, {w: 1 if w == "1111" else 0
                                         for w in all_words(4)})
        assert trivial_on_overflow(
            f, orbit_overflow(adding_machine_action(4), 3)) is False


class TestCoboundaryKernel:
    def test_values(self):
        t01 = S3.parse("t01")
        f = StepFunction.from_table(S3, {"0": t01, "1": S3.parse("e")})
        table = kernel_table(f)
        assert table["0", "1"] == t01
        assert table["1", "0"] == S3.inv(t01)
        assert table["0", "0"] == S3.identity()

    def test_cocycle_check_and_corruption(self):
        table = kernel_table(parity_function(2))
        assert cocycle_check(Z2, table) is None
        # true value on ("00", "01") is 1; forcing 0 breaks antisymmetry
        table["00", "01"] = 0
        assert cocycle_check(Z2, table) == "antisymmetric"

    def test_csv_lists_pairs(self):
        text = kernel_csv(parity_function(1))
        assert text.replace("\r\n", "\n") == (
            "source,target,value\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")


class TestTrivialKernel:
    def test_identity_everywhere(self):
        # the ladder's control: the coboundary of the constant identity
        control = StepFunction(Z4, 0, (0,))
        table = kernel_table(StepFunction(Z4, 3, control.values_at(3)))
        assert len(table) == 64 and set(table.values()) == {0}
        assert cocycle_check(Z4, table) is None


class TestDistance:
    def test_exact_weighted_integral(self):
        f, g = parity_function(2), first_bit(2)
        # generator 1: parity increment 1 vs first-bit increment 1 -> agree;
        # generator 2: 1 vs 0 everywhere -> disagree on full mass
        agreement = increment_agreement(f, g, flip_action((1, 2)))
        assert cocycle_distance(agreement, UNIFORM) == Fraction(1, 4)

    def test_undefined_bound_counts_remainder(self):
        f = parity_function(1)
        # the families agree where defined, and each truncated generator
        # has an undefined remainder cylinder of mass 1/8
        agreement = increment_agreement(f, f, adding_machine_action(3))
        assert cocycle_distance(agreement, UNIFORM) == (
            Fraction(1, 2) + Fraction(1, 4)) * Fraction(1, 8)

    def test_identical_families_at_zero(self):
        f = parity_function(3)
        agreement = increment_agreement(f, f, flip_action((1, 2, 3)))
        assert cocycle_distance(agreement, UNIFORM) == 0


def uncached_increment(f, sigma):
    """`coboundary_increment` as a loop over words, before memoization
    and dense tables (the oracle): the depth it was read at and its
    word-keyed table of defined values."""
    e = max(f.depth, sigma.max_depth)
    table = increment_words(f, sigma, e)
    return e, {w: v for w, v in table.items() if v is not None}


@st.composite
def step_functions(draw):
    model = draw(st.sampled_from([Z2, Z4, S3]))
    depth = draw(st.integers(0, 4))
    values = draw(st.lists(st.sampled_from(model.elements()),
                           min_size=1 << depth, max_size=1 << depth))
    return StepFunction.from_table(model, dict(zip(all_words(depth), values)))


@settings(max_examples=60, deadline=None)
@given(step_functions())
def test_coboundary_kernel_is_always_a_cocycle(f):
    assert cocycle_check(f.model, kernel_table(f)) is None


generators = st.one_of(
    st.integers(1, 4).map(Flip),
    st.integers(1, 5).map(lambda d: Odometer(d, 1)),
    st.integers(1, 5).map(lambda d: Odometer(d, -1)))


@settings(max_examples=80, deadline=None)
@given(step_functions(), st.lists(generators, min_size=1, max_size=5))
def test_memoized_increment_matches_uncached_loop(f, calls):
    for sigma in calls:
        got = coboundary_increment(f, sigma)
        depth, table = uncached_increment(f, sigma)
        assert got.depth == f.depth
        assert got.remainder == piece_remainder(pieces(sigma))
        # restated at the oracle's depth, every word outside the
        # remainder reads the oracle's value
        assert {w: v for w, v in zip(all_words(depth), got.values_at(depth))
                if not covers(got.remainder, w)} == table
        rebuilt = dataclasses.replace(sigma)
        assert rebuilt is not sigma
        assert coboundary_increment(f, rebuilt) is got


MODELS = [
    (Z2, Z2.elements()), (Z4, Z4.elements()), (S3, S3.elements()),
    (FreeAbelianGroup(2), [(x, y) for x in (-1, 0, 1) for y in (0, 2)]),
    (DirectSumZGroup(), [(), (1,), (-2,), (0, 1), (3, 0, -1)]),
    (DirectProductGroup(Z2, FreeAbelianGroup(1)),
     [(a, (k,)) for a in (0, 1) for k in (-1, 0, 2)]),
]
MEASURES = [UNIFORM, ProductMeasure.iid(Fraction(1, 3)),
            ProductMeasure.from_schedule([(Fraction(1, 5), Fraction(4, 5))],
                                         [(Fraction(3, 7), Fraction(4, 7))])]


@st.composite
def remainder_cases(draw, shallow: bool):
    """Two potentials over one model, the symmetric action of a depth-D
    odometer and a flip, and a measure.  With `shallow` the potentials
    are shallower than D, so the odometer's remainder lies strictly
    inside a cell; else they are at least as deep, and the remainder is
    a union of cells."""
    model, elements = draw(st.sampled_from(MODELS))
    top = draw(st.integers(1, 5))
    depths = st.integers(0, top - 1) if shallow else st.integers(top, top + 1)

    def potential():
        depth = draw(depths)
        values = draw(st.lists(st.sampled_from(elements),
                               min_size=1 << depth, max_size=1 << depth))
        return StepFunction(model, depth, tuple(values))

    action = GammaAction((Odometer(top, 1), Odometer(top, -1),
                          Flip(draw(st.integers(1, 6)))))
    allowed = draw(st.lists(st.sampled_from(elements), max_size=3))
    return potential(), potential(), action, draw(st.sampled_from(MEASURES)), allowed


@pytest.mark.parametrize("shallow", [True, False], ids=["d<D", "d>=D"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_remainder_arithmetic_matches_word_loop(shallow, data):
    """The distance, the agreement sets, the value sets and the
    confinement test, read at the potentials' depth with the remainder
    beside the tables, equal a loop over every word at the deepest
    depth with None on the remainder."""
    f, g, action, mu, allowed = data.draw(remainder_cases(shallow))
    model = f.model
    gens = action.generators
    depth = max(f.depth, g.depth, *(s.max_depth for s in gens))
    old_words = [increment_words(f, s, depth) for s in gens]
    new_words = [increment_words(g, s, depth) for s in gens]

    new = [coboundary_increment(g, s) for s in gens]
    agreement = increment_agreement(f, g, action)
    assert cocycle_distance(agreement, mu) == distance_words(
        old_words, new_words, mu)

    for s, t1, t2 in zip(gens, old_words, new_words):
        assert agreement[s.label] == CylinderSet.of(
            w for w, a in t1.items() if a is not None and a == t2[w])

    keys = {model.key(model.identity())} | {model.key(h) for h in allowed}
    for inc, table in zip(new, new_words):
        defined = {model.key(v): v for v in table.values() if v is not None}
        assert inc.value_set() == tuple(defined[k] for k in sorted(defined))
    assert increments_within(g, action, allowed) == all(
        model.key(v) in keys for t in new_words for v in t.values()
        if v is not None)
