"""Essential-value witnesses and skew-product connectivity.

Every kernel here is the coboundary f(a) f(b)^-1 of a potential f.
Component counts are pinned against hand-computed small cases and
against union-find over every vertex (`word_oracles`), which joins
every pair of vertex words.  The witness search, which tries a single
word level, is checked against the search that deepened level by level
up to the depth budget.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import evc
from cocyclelab.cocycles import StepFunction
from cocyclelab.errors import (CocycleLabError, PostconditionFailure,
                               SearchExhausted, SizeGuard)
from cocyclelab.evc import (EvcWitness, WitnessValidation, check_evc,
                            delta_for, skew_connectivity, target_set,
                            validate_witness)
from cocyclelab.groups import (FreeAbelianGroup, cyclic_group,
                               symmetric_group_3)
from cocyclelab.measure import (CylinderSet, ProductMeasure, all_words,
                                index_word)
from cocyclelab.odometer import FiniteDepthMap
from word_oracles import (WordMap, class_order, deviation, image_of,
                          kernel_value, map_apply, reference_match_by_value,
                          step_at, union_find_components, word_index,
                          word_pairs_map, words_at)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group_3()
ZZ = FreeAbelianGroup(2)
UNIFORM = ProductMeasure.uniform()
BIASED = ProductMeasure.iid(Fraction(1, 3))


def first_bit(depth: int) -> StepFunction:
    return StepFunction.from_table(Z2, {w: int(w[0]) for w in all_words(depth)})


def parity(depth: int) -> StepFunction:
    return StepFunction.from_table(Z2, {w: w.count("1") % 2 for w in all_words(depth)})


FIRST_BIT = first_bit(2)


def good_witness():
    part = CylinderSet.of(["00", "01"])
    theta = word_pairs_map(2, [("00", "10"), ("01", "11")])
    return part, theta


class TestValidateWitness:
    TARGET = (1,)
    DELTA = Fraction(1, 3)

    def test_valid(self):
        part, theta = good_witness()
        check = validate_witness(FIRST_BIT, CylinderSet.full(),
                                 self.TARGET, self.DELTA, UNIFORM, part, theta)
        assert check.ok and check.clause is None
        assert check.part_inside and check.image_inside
        assert check.measure_slack == Fraction(1, 2) - Fraction(1, 3)
        # flipping the first bit keeps uniform mass: deviation 0
        assert check.misses == 0 and check.worst == 0

    def test_part_inside(self):
        part, theta = good_witness()
        check = validate_witness(FIRST_BIT, CylinderSet.of(["1"]),
                                 self.TARGET, self.DELTA, UNIFORM, part, theta)
        assert not check.ok and check.clause == "part-inside"
        assert not check.part_inside and check.image_inside
        # the later clauses' numbers are computed all the same
        assert check.measure_slack == Fraction(1, 2) - Fraction(1, 6)
        assert check.misses == 0 and check.worst == 0

    def test_image_inside(self):
        check = validate_witness(
            FIRST_BIT, CylinderSet.of(["0"]), self.TARGET,
            self.DELTA, UNIFORM, CylinderSet.of(["00"]),
            word_pairs_map(2, [("00", "10")]))
        assert not check.ok and check.clause == "image-inside"

    def test_mass(self):
        check = validate_witness(
            FIRST_BIT, CylinderSet.full(), self.TARGET, self.DELTA,
            UNIFORM, CylinderSet.of(["00"]),
            word_pairs_map(2, [("00", "10")]))
        assert not check.ok and check.clause == "mass"

    def test_class(self):
        # a depth-1 potential: words of depth 3 share a class when they
        # agree beyond coordinate 1, and 000 -> 011 changes coordinate 2
        part = CylinderSet.of(["000", "001", "010"])
        theta = word_pairs_map(3, [("000", "011"), ("001", "010")])
        check = validate_witness(first_bit(1), CylinderSet.full(), self.TARGET,
                                 self.DELTA, UNIFORM, part, theta)
        assert not check.ok and check.clause == "class"
        assert check.detail == "theta throws 000 out of its kernel class"

    def test_membership(self):
        # theta moving within the same first bit realizes the identity,
        # not the requested value
        part = CylinderSet.of(["00"])
        theta = word_pairs_map(2, [("00", "01")])
        check = validate_witness(FIRST_BIT, CylinderSet.of(["0"]),
                                 self.TARGET, self.DELTA, UNIFORM, part, theta)
        assert not check.ok and check.clause == "membership"
        assert check.detail == "kernel value 0 at 00 is outside the target set"
        assert check.misses == 1

    def test_derivative(self):
        part, theta = good_witness()
        # flipping the first bit under the biased measure moves mass by a
        # factor of 2, far outside a 1/4 deviation allowance
        check = validate_witness(FIRST_BIT, CylinderSet.full(),
                                 self.TARGET, Fraction(1, 4), BIASED, part,
                                 theta)
        assert not check.ok and check.clause == "derivative"


class TestCheckEvc:
    def test_identity_fast_path(self):
        constant = StepFunction(Z2, 2, (0,) * 4)
        delta, _ = delta_for(Z2, 0, 1)
        witness = check_evc(constant, CylinderSet.full(), target_set(Z2, 0, 1),
                            delta, UNIFORM)
        assert witness.part.is_full()
        assert witness.measure_slack == 1 - delta

    def test_pair_search_finds_half(self):
        delta, _ = delta_for(Z2, 1, 1)
        witness = check_evc(FIRST_BIT, CylinderSet.full(),
                            target_set(Z2, 1, 1), delta, UNIFORM)
        assert witness.part.measure(UNIFORM) > delta
        level = witness.theta.depth
        for w in words_at(witness.part, level):
            img = map_apply(witness.theta, w)
            assert kernel_value(FIRST_BIT, img[:2], w[:2]) == 1

    def test_exhausted_when_value_absent(self):
        # a constant function has no nontrivial kernel values
        const = StepFunction.from_table(Z2, {w: 0 for w in all_words(2)})
        delta, _ = delta_for(Z2, 1, 1)
        with pytest.raises(SearchExhausted) as exc:
            check_evc(const, CylinderSet.full(), target_set(Z2, 1, 1),
                      delta, UNIFORM, search_depth=20)
        # the report embeds this text, so it is pinned byte for byte
        assert str(exc.value) == "no witness with mass above 1/3 within depth 20"
        assert exc.value.best == {"required_mass": "1/3", "achieved_mass": "0"}

    def test_search_respects_base(self):
        delta, _ = delta_for(Z2, 1, 1)
        base = CylinderSet.of(["0"])
        witness = check_evc(parity(3), base, target_set(Z2, 1, 1), delta,
                            UNIFORM)
        assert witness.part.difference(base).is_empty()
        assert image_of(witness.theta, witness.part).difference(base).is_empty()


def deepening_check_evc(f, base, target, delta, mu, search_depth=14):
    """Oracle: the level-by-level witness search over words.  It tries
    every level from the potential's (or the base's) depth up to
    `search_depth`, stops at the first whose pairing has enough mass, and
    computes each word's mass where it uses it."""
    delta = Fraction(delta)
    model = f.model
    target = tuple(target)
    target_keys = {model.key(t) for t in target}
    if base.is_empty():
        raise SearchExhausted("the base set is empty", best={})

    if model.key(model.identity()) in target_keys and delta < 1:
        theta = WordMap(f.depth, {})
        check = word_validate_witness(f, base, target, delta, mu, base, theta)
        if check.ok:
            return EvcWitness(base, theta.indexed(), check.measure_slack)

    need = delta * base.measure(mu)
    best_mass = Fraction(0)
    start = max(f.depth, base.max_depth)
    if start > search_depth:
        raise SearchExhausted(
            f"kernel depth {start} already exceeds search depth {search_depth}",
            best={"required_mass": str(need)})
    for level in range(start, search_depth + 1):
        pairs, b_words, mass = level_pairing(f, base, target, target_keys,
                                             delta, mu, level, need)
        best_mass = max(best_mass, mass)
        if mass > need:
            theta = WordMap.from_pairs(level, pairs)
            part = CylinderSet.of(b_words)
            check = word_validate_witness(f, base, target, delta, mu, part,
                                          theta)
            if not check.ok:
                raise PostconditionFailure(
                    check.clause or "unknown",
                    f"search produced an invalid witness: {check.detail}")
            return EvcWitness(part, theta.indexed(), check.measure_slack)
    raise SearchExhausted(
        f"no witness with mass above {need} within depth {search_depth}",
        best={"required_mass": str(need), "achieved_mass": str(best_mass)})


def level_pairing(f, base, target, target_keys, delta, mu, level, need):
    """Oracle's greedy pairing of words at one level, masses taken per
    use."""
    by_class = {}
    for w in words_at(base, level):
        by_class.setdefault(w[f.depth:], []).append(w)
    pairs, b_words, mass = [], [], Fraction(0)
    for cls_key in sorted(by_class):
        members = sorted(by_class[cls_key], key=lambda w: (-mu.cylinder(w), w))
        found = word_match_by_value(f, members, target, target_keys, delta,
                                    mu)
        for x, y, x_ok, y_ok in found:
            pairs.append((x, y))
            if x_ok:
                b_words.append(x)
                mass += mu.cylinder(x)
            if y_ok:
                b_words.append(y)
                mass += mu.cylinder(y)
        if mass > need:
            break
    return pairs, b_words, mass


def word_match_by_value(f, members, target, target_keys, delta, mu):
    """Pairing of the words of one class via potential-value lookup: the
    value of (y, x) lands in the target iff f(y) lies in target * f(x)."""
    model = f.model
    pot = {w: f.values[word_index(w[: f.depth])] for w in members}
    groups = {}
    for w in members:
        groups.setdefault(model.key(pot[w]), []).append(w)
    used = set()
    out = []
    for x in members:
        if x in used:
            continue
        for t in target:
            for y in groups.get(model.key(model.mul(t, pot[x])), ()):
                if y in used or y == x:
                    continue
                if not deviation(mu, x, y) < delta:
                    continue
                back = model.mul(pot[x], model.inv(pot[y]))
                y_ok = (model.key(back) in target_keys
                        and deviation(mu, y, x) < delta)
                used.update((x, y))
                out.append((x, y, True, y_ok))
                break
            if x in used:
                break
    return out


def word_validate_witness(f, base, target, delta, mu, part, theta):
    """Oracle: every clause of the condition checked word by word, with
    `theta` a `WordMap`; the numbers behind all clauses are computed, and
    the first failing clause is named."""
    model = f.model
    delta = Fraction(delta)
    part_inside = part.difference(base).is_empty()
    image_inside = theta.image_of(part).difference(base).is_empty()
    slack = part.measure(mu) - delta * base.measure(mu)
    level = max(f.depth, part.max_depth, theta.depth)
    target_keys = {model.key(t) for t in target}
    thrown, missed, misses, worst = None, None, 0, Fraction(0)
    for w in words_at(part, level):
        img = theta.apply(w)
        if img[f.depth:] != w[f.depth:] and thrown is None:
            thrown = w
        # f(img) f(w)^-1: the kernel value where img stays in the class
        value = model.mul(step_at(f, img), model.inv(step_at(f, w)))
        if model.key(value) not in target_keys:
            misses += 1
            missed = missed or (w, value)
        worst = max(worst, deviation(mu, w, img))

    def verdict(clause=None, detail=None):
        return WitnessValidation(clause, detail, part_inside, image_inside,
                                 slack, misses, worst)

    if not part_inside:
        return verdict("part-inside", "B is not contained in A")
    if not image_inside:
        return verdict("image-inside", "theta(B) is not contained in A")
    if not slack > 0:
        return verdict("mass", f"mu(B) = {part.measure(mu)} is not above "
                       f"{delta * base.measure(mu)}")
    if thrown is not None:
        return verdict("class", f"theta throws {thrown} out of its kernel class")
    if missed is not None:
        w, value = missed
        return verdict("membership", f"kernel value {model.format(value)} at "
                       f"{w} is outside the target set")
    if not worst < delta:
        return verdict("derivative",
                       f"derivative deviation {worst} is not below {delta}")
    return verdict()


WEIGHTS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)]


@st.composite
def measures(draw):
    """Uniform, iid, or a head of weight pairs followed by a repeating
    cycle."""
    kind = draw(st.sampled_from(["uniform", "iid", "head+cycle"]))
    if kind == "uniform":
        return UNIFORM
    if kind == "iid":
        return ProductMeasure.iid(draw(st.sampled_from(WEIGHTS)))
    head = draw(st.lists(st.sampled_from(WEIGHTS), max_size=3))
    cycle = draw(st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=2))
    return ProductMeasure.from_schedule([(p, 1 - p) for p in head],
                                        [(p, 1 - p) for p in cycle])


@st.composite
def search_cases(draw):
    """(potential, base, target, delta, mu) with potentials of depth up
    to 3, a constant one among them, and bases up to two levels deeper."""
    mu = draw(measures())
    depth = draw(st.integers(0, 3))
    model = draw(st.sampled_from([Z2, Z3, Z4]))
    elements = model.elements()
    values = (st.just(elements[0]) if draw(st.integers(0, 3)) == 0
              else st.sampled_from(elements))
    f = StepFunction(model, depth,
                     tuple(draw(values) for _ in range(1 << depth)))
    # the identity (listed first) is a target in half the cases, so that
    # the identity fast path does not settle most of them
    target = draw(st.lists(st.sampled_from(elements[1:]), min_size=1, max_size=2))
    if draw(st.booleans()):
        target.append(elements[0])
    words = draw(st.lists(st.text(alphabet="01", max_size=depth + 2),
                          min_size=1, max_size=4))
    if draw(st.booleans()):
        # free the potential's coordinates, so that classes keep several
        # members within the base
        words = [h + w[depth:] for w in words if len(w) >= depth
                 for h in all_words(depth)] or words
    base = CylinderSet.of(words)
    delta = draw(st.sampled_from([Fraction(1, 9), Fraction(1, 3),
                                  Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    return f, base, tuple(target), delta, mu


def search_outcome(search, *args):
    """The witness's part, map and slacks, or the error with its best."""
    try:
        w = search(*args)
    except CocycleLabError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "best", None)
    return w.part, w.theta, w.measure_slack


class TestSingleLevelSearch:
    @settings(max_examples=300, deadline=None)
    @given(search_cases(), st.integers(-1, 3))
    def test_matches_deepening_search(self, case, extra):
        f, base, target, delta, mu = case
        search_depth = max(f.depth, base.max_depth) + extra
        args = (f, base, target, delta, mu, search_depth)
        assert (search_outcome(check_evc, *args)
                == search_outcome(deepening_check_evc, *args))

    @settings(max_examples=200, deadline=None)
    @given(search_cases())
    def test_next_level_appends_a_bit(self, case):
        f, base, target, delta, mu = case
        keys = {f.model.key(t) for t in target}
        level = max(f.depth, base.max_depth)
        # no mass exceeds 1, so neither level stops early
        unreachable = Fraction(2)
        pairs, words, mass = evc._pair_search(f, base, target, keys, delta,
                                              mu, level, unreachable)
        deeper = evc._pair_search(f, base, target, keys, delta, mu,
                                  level + 1, unreachable)
        # word indices: appending bit b to a word maps index x to 2x + b
        assert sorted(deeper[0]) == sorted(
            (2 * x + b, 2 * y + b) for x, y in pairs for b in (0, 1))
        assert sorted(deeper[1]) == sorted(2 * w + b for w in words
                                           for b in (0, 1))
        assert deeper[2] == mass

    @settings(max_examples=300, deadline=None)
    @given(search_cases(), st.integers(0, 1),
           st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                            Fraction(2)]))
    def test_pairing_matches_word_pairing(self, case, extra, need):
        f, base, target, delta, mu = case
        keys = {f.model.key(t) for t in target}
        level = max(f.depth, base.max_depth) + extra
        pairs, words, mass = evc._pair_search(f, base, target, keys, delta,
                                              mu, level, need)
        oracle = level_pairing(f, base, target, keys, delta, mu, level, need)
        assert [(index_word(x, level), index_word(y, level))
                for x, y in pairs] == oracle[0]
        assert [index_word(w, level) for w in words] == oracle[1]
        assert mass == oracle[2]

    @settings(max_examples=300, deadline=None)
    @given(search_cases(), st.data())
    def test_validation_matches_word_oracle(self, case, data):
        f, base, target, delta, mu = case
        depth = data.draw(st.integers(0, f.depth + 1))
        image = data.draw(st.permutations(range(1 << depth)))
        theta = FiniteDepthMap(depth, tuple(image))
        oracle_theta = WordMap(depth, dict(theta.word_moves()))
        # parts drawn inside the base most of the time, so that the later
        # clauses are reached
        words = data.draw(st.lists(st.text(alphabet="01", max_size=depth + 2),
                                   min_size=1, max_size=4))
        part = CylinderSet.of(words)
        if data.draw(st.booleans()):
            part = part.intersection(base)
        assert (validate_witness(f, base, target, delta, mu, part, theta)
                == word_validate_witness(f, base, target, delta, mu, part,
                                         oracle_theta))


@st.composite
def class_pairings(draw):
    """One kernel class of a potential on Z2, Z3, S3 or Z^2 of depth up
    to 8, read up to two levels deeper, its members a drawn part of the
    class; a uniform, iid(1/3) or period-2 measure; a target of one to
    three elements, the identity among them."""
    model = draw(st.sampled_from([Z2, Z3, S3, ZZ]))
    elements = model.elements() or [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 2)]
    palette = draw(st.lists(st.sampled_from(elements), min_size=1,
                            max_size=4, unique=True))
    depth = draw(st.integers(0, 8))
    f = StepFunction(model, depth, tuple(
        draw(st.lists(st.sampled_from(palette), min_size=1 << depth,
                      max_size=1 << depth))))
    extra = draw(st.integers(0, 2))
    level, tail = depth + extra, draw(st.integers(0, (1 << extra) - 1))
    members = [(i << extra) | tail for i in range(1 << depth)
               if draw(st.integers(0, 3))]
    mu = draw(st.sampled_from([UNIFORM, BIASED, ProductMeasure.from_schedule(
        (), [(Fraction(1, 2), Fraction(1, 2)),
             (Fraction(1, 3), Fraction(2, 3))])]))
    others = [e for e in elements if e != model.identity()]
    target = [model.identity()] + draw(st.lists(
        st.sampled_from(others), max_size=2, unique=True))
    delta = draw(st.sampled_from([Fraction(1, 9), Fraction(1, 3),
                                  Fraction(1, 2), Fraction(1)]))
    return f, members, tuple(draw(st.permutations(target))), delta, mu, level


class TestMatchByValue:
    @settings(max_examples=300, deadline=None)
    @given(class_pairings())
    def test_matches_member_by_member_pairing(self, case):
        # grouping by value must return the very list the per-member
        # pairing returns, in the order the search sorts a class into
        f, members, target, delta, mu, level = case
        masses = mu.level_masses(level)[0]
        ordered = sorted(members, key=masses.__getitem__, reverse=True)
        assert ordered == class_order(members, masses)
        keys = {f.model.key(t) for t in target}
        assert (evc._match_by_value(f, ordered, target, keys, delta, masses,
                                    level)
                == reference_match_by_value(f, ordered, target, keys, delta,
                                            masses, level))


class TestDerivativeBoundary:
    """Under BIASED the first coordinate carries masses 1/3 and 2/3, so
    moving 1 to 0 has derivative deviation exactly 1/2 and moving 0 to 1
    exactly 1.  A deviation equal to delta must fail the strict test."""

    POTENTIAL = first_bit(1)
    SWAP = FiniteDepthMap.from_pairs(1, [(0, 1)])

    @pytest.mark.parametrize("delta,ok", [
        (Fraction(1, 2), False), (Fraction(501, 1000), True)])
    def test_search(self, delta, ok):
        args = (self.POTENTIAL, CylinderSet.full(), (1,), delta, BIASED, 2)
        if ok:
            witness = check_evc(*args)
            assert witness.part == CylinderSet.of(["1"])
            check = validate_witness(*args[:5], witness.part, witness.theta)
            assert check.ok and check.worst == Fraction(1, 2)
        else:
            with pytest.raises(SearchExhausted) as exc:
                check_evc(*args)
            assert exc.value.best["achieved_mass"] == "0"
        assert (search_outcome(check_evc, *args)
                == search_outcome(deepening_check_evc, *args))

    @pytest.mark.parametrize("delta,ok", [
        (Fraction(1, 2), False), (Fraction(501, 1000), True)])
    def test_validation(self, delta, ok):
        check = validate_witness(self.POTENTIAL, CylinderSet.full(), (1,),
                                 delta, BIASED, CylinderSet.of(["1"]),
                                 self.SWAP)
        assert check.ok == ok
        assert check.worst == Fraction(1, 2)
        if not ok:
            assert check.clause == "derivative"
            assert check.detail == ("derivative deviation 1/2 is not below "
                                    "1/2")


class TestSkewConnectivity:
    def test_trivial_kernel_gives_group_order(self):
        # the ladder's control, the coboundary of the constant identity
        for model, order in ((Z2, 2), (Z3, 3), (Z4, 4), (S3, 6)):
            control = StepFunction(model, 0, (model.identity(),))
            for depth in (1, 2, 3, 4):
                assert skew_connectivity(control, depth) == order

    def test_coboundary_at_full_depth_gives_group_order(self):
        assert skew_connectivity(FIRST_BIT, 2) == 2

    def test_deep_parity_projects_to_one(self):
        assert skew_connectivity(parity(3), 1) == 1
        assert skew_connectivity(parity(3), 2) == 1

    def test_half_step_subgroup_z4(self):
        # increments confined to {0, 2} leave two cosets disconnected
        doubled = StepFunction.from_table(
            Z4, {w: 2 * (w.count("1") % 2) for w in all_words(2)})
        assert skew_connectivity(doubled, 1) == 2

    def test_chain_matches_exhaustive(self):
        cases = [(parity(3), 1), (parity(3), 2), (first_bit(2), 1),
                 (StepFunction(Z3, 0, (0,)), 2)]
        for f, depth in cases:
            assert skew_connectivity(f, depth) == \
                union_find_components(f, depth, exhaustive=True)

    def test_guards(self, monkeypatch):
        with pytest.raises(SizeGuard):
            skew_connectivity(StepFunction.from_table(
                FreeAbelianGroup(1), {"0": (0,), "1": (1,)}), 1)
        f = parity(3)
        with pytest.raises(SizeGuard):
            skew_connectivity(f, 0)
        monkeypatch.setattr(evc, "SKEW_BUDGET", 1)
        with pytest.raises(SizeGuard):
            skew_connectivity(f, 2)


def word_components(f, level):
    """Oracle: components of the skew graph on (level words x group),
    joining (w, g) to (w', v g), for distinct words w and w', by every
    value v = f(a) f(b)^-1 with a extending w' and b extending w to the
    potential's depth, over words and element keys."""
    model = f.model
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    words = list(all_words(level))
    tails = list(all_words(max(f.depth - level, 0)))
    for w in words:
        for g in model.elements():
            find((w, model.key(g)))
    for second in words:
        for first in words:
            if first == second:
                continue
            for a in tails:
                for b in tails:
                    value = model.mul(step_at(f, first + a),
                                      model.inv(step_at(f, second + b)))
                    for g in model.elements():
                        root = find((second, model.key(g)))
                        other = find((first, model.key(model.mul(value, g))))
                        parent[root] = other
    return len({find(v) for v in list(parent)})


class TestIndexedConnectivity:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([Z2, Z3, S3]), st.integers(0, 3), st.integers(1, 4),
           st.data())
    def test_chain_matches_exhaustive_and_words(self, model, depth, level,
                                                data):
        f = StepFunction(model, depth, tuple(
            data.draw(st.sampled_from(model.elements()))
            for _ in range(1 << depth)))
        full = union_find_components(f, level, exhaustive=True)
        assert full == word_components(f, level)
        # a coboundary keeps the chain rule, so the chain of the level's
        # words joins what every pair does
        assert union_find_components(f, level) == full
        assert skew_connectivity(f, level) == full


@st.composite
def potentials(draw):
    """Potentials on Z2, Z4 and S3 up to depth 6, valued in a few
    elements so that proper subgroups occur."""
    model = draw(st.sampled_from([Z2, Z4, S3]))
    depth = draw(st.integers(0, 6))
    rng = draw(st.randoms(use_true_random=True))
    elements = model.elements()
    palette = rng.sample(elements, rng.randint(1, min(3, len(elements))))
    return StepFunction(model, depth,
                        tuple(rng.choice(palette) for _ in range(1 << depth)))


class TestSubgroupIndexCount:
    """The count by subgroup index against union-find over every vertex;
    S3 is non-abelian, so left and right cosets differ there."""

    @settings(max_examples=300, deadline=None)
    @given(potentials())
    def test_matches_union_find(self, f):
        # every rung depth, and one beyond the potential's depth
        for level in range(1, f.depth + 2):
            assert skew_connectivity(f, level) == union_find_components(
                f, level, exhaustive=True)

    def test_potential_generators_are_a_inverse_p(self):
        # under 0 the potential takes e and t01, under 1 r and r t01: both
        # give a^-1 p = t01, so H = {e, t01} leaves 3 components; p a^-1
        # would add r t01 r^-1 = t12 and generate S3
        e, r, t01 = (S3.parse(x) for x in ("e", "r", "t01"))
        f = StepFunction(S3, 2, (e, t01, r, S3.mul(r, t01)))
        assert union_find_components(f, 1) == 3
        assert skew_connectivity(f, 1) == 3


class TestTargets:
    def test_target_set_is_u_translate(self):
        assert set(target_set(Z4, 1, 1)) == {1}
        assert set(target_set(Z4, 1, 0)) == {0, 1, 2, 3}
        t01 = S3.parse("t01")
        assert set(target_set(S3, t01, 1)) == {t01}

    def test_delta_matches_covering(self):
        delta, cover = delta_for(S3, S3.parse("t01"), 1)
        assert delta == Fraction(1, 9) and cover.number == 3
