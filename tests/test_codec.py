"""The report codec: function tables, witness moves and core words.

A report stores each step function as a word-keyed table of labels, each
involution as its (word, image) moves and each set as its maximal
cylinders; `_function_table`, `word_moves` and `words` write them, and
`_parse_table`, `from_moves` and `CylinderSet.of` read them back, their
words and alphabet checked for a whole table or move list at once.  The
readers here are compared with the word-by-word loops they replace (the
references), on exception type and message too.
"""
import random
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab.cocycles import StepFunction
from cocyclelab.driver import _function_table, _parse_table
from cocyclelab.errors import DepthMismatch, MalformedInput
from cocyclelab.groups import (DirectProductGroup, DirectSumZGroup,
                               FreeAbelianGroup, cyclic_group,
                               symmetric_group_3)
from cocyclelab.measure import CylinderSet, all_words, check_word, index_word
from cocyclelab.odometer import FiniteDepthMap
from word_oracles import word_index

Z3, S3 = cyclic_group(3), symmetric_group_3()
Z2, ZZ, SUM_Z = cyclic_group(2), FreeAbelianGroup(2), DirectSumZGroup()
PRODUCT = DirectProductGroup(Z2, ZZ)

pairs_of_integers = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
# each model with a strategy for its elements
MODELS = [
    (Z3, st.sampled_from(Z3.elements())),
    (S3, st.sampled_from(S3.elements())),
    (ZZ, pairs_of_integers),
    (SUM_Z, st.lists(st.integers(-2, 2), max_size=3).map(
        lambda xs: SUM_Z.mul(tuple(xs), SUM_Z.identity()))),
    (PRODUCT, st.tuples(st.sampled_from(Z2.elements()), pairs_of_integers)),
]


def reference_from_table(model, table):
    """`StepFunction.from_table` as a loop over the keys."""
    if not table:
        raise DepthMismatch("table has no words")
    depth = len(next(iter(table)))
    values = [None] * (1 << depth)
    for w, v in table.items():
        if len(w) != depth or w.strip("01"):
            raise DepthMismatch(
                f"table key {w!r} is not a 0/1 word of depth {depth}")
        values[word_index(w)] = v
    if len(table) != len(values):
        missing = next(w for w in all_words(depth) if w not in table)
        raise DepthMismatch(f"table lacks the word {missing!r}")
    return StepFunction(model, depth, tuple(values))


def reference_parse_table(model, table):
    """`_parse_table` parsing every label and reading the keys one by one."""
    if not isinstance(table, Mapping) or not all(
            isinstance(v, str) for v in table.values()):
        raise MalformedInput("a function table must map words to label text")
    parsed = {w: model.parse(v) for w, v in table.items()}
    try:
        return reference_from_table(model, parsed)
    except DepthMismatch as exc:
        raise MalformedInput(f"a function table must hold the words of one "
                             f"depth ({exc})") from None


def reference_from_moves(depth, moves):
    """`FiniteDepthMap.from_moves` as a loop over the moves."""
    table = list(range(1 << depth))
    for s, t in moves:
        if len(s) != depth or len(t) != depth:
            raise DepthMismatch("all moved words must have the map's depth")
        table[word_index(check_word(s))] = word_index(check_word(t))
    return FiniteDepthMap(depth, tuple(table))


def outcome(read, *args):
    """What a reader returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except Exception as exc:  # the references raise what the readers must
        return type(exc), str(exc)


@st.composite
def step_functions(draw):
    model, elements = draw(st.sampled_from(MODELS))
    depth = draw(st.integers(0, 8))
    values = draw(st.lists(elements, min_size=1 << depth,
                           max_size=1 << depth))
    return StepFunction(model, depth, tuple(values))


@settings(max_examples=60, deadline=None)
@given(step_functions(), st.randoms(use_true_random=False))
def test_function_table_round_trip(f, rng):
    table = _function_table(f)
    assert list(table) == list(all_words(f.depth))
    assert list(table.values()) == [f.model.format(v) for v in f.values]
    assert _parse_table(f.model, table) == f
    # a table in another key order reads the same
    items = list(table.items())
    rng.shuffle(items)
    assert _parse_table(f.model, dict(items)) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda d: st.permutations(range(1 << d)).map(
        lambda perm: FiniteDepthMap(d, tuple(perm)))))
def test_moves_round_trip(theta):
    moves, depth = theta.word_moves(), theta.depth
    assert moves == [(index_word(i, depth), index_word(j, depth))
                     for i, j in enumerate(theta.table) if i != j]
    assert FiniteDepthMap.from_moves(depth, moves) == theta
    # as a report stores them, each move a list
    assert FiniteDepthMap.from_moves(depth, list(map(list, moves))) == theta


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(lambda d: st.tuples(
    st.just(d), st.sets(st.integers(0, (1 << d) - 1)))))
def test_core_words_round_trip(depth_and_indices):
    depth, indices = depth_and_indices
    s = CylinderSet.from_indices(depth, sorted(indices))
    assert CylinderSet.of(s.words) == s


# malformed tables and move lists: (reader, the reference it replaces,
# its input)
MALFORMED = {
    "missing-word": (_parse_table, reference_parse_table,
                     {"00": "0", "01": "1", "11": "0"}),
    "non-binary-key": (_parse_table, reference_parse_table,
                       {"00": "0", "0a": "1", "10": "0", "11": "1"}),
    # `int` reads "1_0" as 2: the alphabet is checked apart
    "underscore-key": (_parse_table, reference_parse_table,
                       {w: "0" for w in ["000", "001", "1_0", "011", "100",
                                         "101", "110", "111"]}),
    "key-of-another-depth": (_parse_table, reference_parse_table,
                             {"00": "0", "01": "1", "1": "0", "11": "1"}),
    "non-string-value": (_parse_table, reference_parse_table,
                         {"0": "0", "1": 1}),
    "unknown-label": (_parse_table, reference_parse_table,
                      {"0": "1", "1": "7"}),
    "no-words": (_parse_table, reference_parse_table, {}),
    "move-of-another-length": (FiniteDepthMap.from_moves,
                               reference_from_moves,
                               [["00", "01"], ["01", "0"]]),
    "three-element-move": (FiniteDepthMap.from_moves, reference_from_moves,
                           [["00", "01"], ["01", "00", "10"]]),
    "one-element-move": (FiniteDepthMap.from_moves, reference_from_moves,
                         [["00"]]),
    "non-binary-move": (FiniteDepthMap.from_moves, reference_from_moves,
                        [["00", "0b"], ["0b", "00"]]),
    "signed-move": (FiniteDepthMap.from_moves, reference_from_moves,
                    [["+1", "00"], ["00", "+1"]]),
    "non-string-move": (FiniteDepthMap.from_moves, reference_from_moves,
                        [["00", 1]]),
    "list-word-move": (FiniteDepthMap.from_moves, reference_from_moves,
                       [[["0", "0"], "01"]]),
    "non-permutation": (FiniteDepthMap.from_moves, reference_from_moves,
                        [["00", "01"]]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_fails_as_the_reference_does(name):
    read, reference, data = MALFORMED[name]
    model_or_depth = Z2 if read is _parse_table else 2
    expected = outcome(reference, model_or_depth, data)
    assert isinstance(expected, tuple) and issubclass(expected[0], Exception)
    assert outcome(read, model_or_depth, data) == expected


@pytest.mark.parametrize("depth", [0, 3, 8])
def test_shuffled_input_reads_as_the_references_do(depth):
    rng = random.Random(depth)
    words = list(all_words(depth))
    items = [(w, rng.choice(S3.labels)) for w in words]
    rng.shuffle(items)
    table = dict(items)
    assert _parse_table(S3, table) == reference_parse_table(S3, table)
    images = words[:]
    rng.shuffle(images)
    moves = list(zip(words, images))
    rng.shuffle(moves)
    assert (FiniteDepthMap.from_moves(depth, moves)
            == reference_from_moves(depth, moves))
