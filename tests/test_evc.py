"""Essential-value witnesses and skew-product connectivity.

Component counts are pinned against hand-computed small cases and
against union-find over every vertex (`word_oracles`), which joins every
word pair of a class where the count walks a spanning chain.
The witness search, which tries a single word level, is checked against
the search that deepened level by level up to the depth budget.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import evc
from cocyclelab.cocycles import CocycleKernel, StepFunction
from cocyclelab.errors import (CocycleLabError, PostconditionFailure,
                               SearchExhausted, SizeGuard)
from cocyclelab.evc import (EvcWitness, WitnessValidation, check_evc,
                            delta_for, essential_value_certificate,
                            skew_connectivity, target_set, validate_witness)
from cocyclelab.groups import (FreeAbelianGroup, cyclic_group,
                               symmetric_group_3)
from cocyclelab.measure import (CylinderSet, ProductMeasure, all_words,
                                index_word, word_index)
from cocyclelab.odometer import FiniteDepthMap
from word_oracles import (WordMap, deviation, image_of, kernel_value,
                          map_apply, union_find_components, word_pairs_map,
                          words_at)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group_3()
UNIFORM = ProductMeasure.uniform()
BIASED = ProductMeasure.iid(Fraction(1, 3))


def first_bit(depth: int) -> StepFunction:
    return StepFunction.from_table(Z2, {w: int(w[0]) for w in all_words(depth)})


def parity(depth: int) -> StepFunction:
    return StepFunction.from_table(Z2, {w: w.count("1") % 2 for w in all_words(depth)})


FIRST_BIT_KERNEL = CocycleKernel.coboundary(first_bit(2), class_depth=2)


def good_witness():
    part = CylinderSet.of(["00", "01"])
    theta = word_pairs_map(2, [("00", "10"), ("01", "11")])
    return part, theta


class TestValidateWitness:
    TARGET = (1,)
    DELTA = Fraction(1, 3)

    def test_valid(self):
        part, theta = good_witness()
        check = validate_witness(FIRST_BIT_KERNEL, CylinderSet.full(),
                                 self.TARGET, self.DELTA, UNIFORM, part, theta)
        assert check.ok
        assert check.measure_slack == Fraction(1, 2) - Fraction(1, 3)
        assert check.derivative_slack == self.DELTA

    def test_part_inside(self):
        part, theta = good_witness()
        check = validate_witness(FIRST_BIT_KERNEL, CylinderSet.of(["1"]),
                                 self.TARGET, self.DELTA, UNIFORM, part, theta)
        assert not check.ok and check.clause == "part-inside"

    def test_image_inside(self):
        check = validate_witness(
            FIRST_BIT_KERNEL, CylinderSet.of(["0"]), self.TARGET,
            self.DELTA, UNIFORM, CylinderSet.of(["00"]),
            word_pairs_map(2, [("00", "10")]))
        assert not check.ok and check.clause == "image-inside"

    def test_mass(self):
        check = validate_witness(
            FIRST_BIT_KERNEL, CylinderSet.full(), self.TARGET, self.DELTA,
            UNIFORM, CylinderSet.of(["00"]),
            word_pairs_map(2, [("00", "10")]))
        assert not check.ok and check.clause == "mass"

    def test_class(self):
        kernel = CocycleKernel.coboundary(first_bit(3), class_depth=1)
        part = CylinderSet.of(["000", "001", "010"])
        theta = word_pairs_map(3, [("000", "011"), ("001", "010")])
        check = validate_witness(kernel, CylinderSet.full(), self.TARGET,
                                 self.DELTA, UNIFORM, part, theta)
        assert not check.ok and check.clause == "class"

    def test_membership(self):
        # theta moving within the same first bit realizes the identity,
        # not the requested value
        part = CylinderSet.of(["00"])
        theta = word_pairs_map(2, [("00", "01")])
        check = validate_witness(FIRST_BIT_KERNEL, CylinderSet.of(["0"]),
                                 self.TARGET, self.DELTA, UNIFORM, part, theta)
        assert not check.ok and check.clause == "membership"

    def test_derivative(self):
        part, theta = good_witness()
        # flipping the first bit under the biased measure moves mass by a
        # factor of 2, far outside a 1/4 deviation allowance
        check = validate_witness(FIRST_BIT_KERNEL, CylinderSet.full(),
                                 self.TARGET, Fraction(1, 4), BIASED, part,
                                 theta)
        assert not check.ok and check.clause == "derivative"


class TestCheckEvc:
    def test_identity_fast_path(self):
        kernel = CocycleKernel.trivial(Z2, 2, 2)
        delta, _ = delta_for(Z2, 0, 1)
        witness = check_evc(kernel, CylinderSet.full(), target_set(Z2, 0, 1),
                            delta, UNIFORM)
        assert witness.part.is_full()
        assert witness.measure_slack == 1 - delta

    def test_pair_search_finds_half(self):
        delta, _ = delta_for(Z2, 1, 1)
        witness = check_evc(FIRST_BIT_KERNEL, CylinderSet.full(),
                            target_set(Z2, 1, 1), delta, UNIFORM)
        assert witness.part.measure(UNIFORM) > delta
        level = witness.theta.depth
        for w in words_at(witness.part, level):
            img = map_apply(witness.theta, w)
            assert FIRST_BIT_KERNEL.value(img[:2], w[:2]) == 1

    def test_exhausted_when_value_absent(self):
        # a constant function has no nontrivial kernel values
        const = StepFunction.from_table(Z2, {w: 0 for w in all_words(2)})
        kernel = CocycleKernel.coboundary(const, class_depth=2)
        delta, _ = delta_for(Z2, 1, 1)
        with pytest.raises(SearchExhausted) as exc:
            check_evc(kernel, CylinderSet.full(), target_set(Z2, 1, 1),
                      delta, UNIFORM, search_depth=20)
        # the report embeds this text, so it is pinned byte for byte
        assert str(exc.value) == "no witness with mass above 1/3 within depth 20"
        assert exc.value.best == {"required_mass": "1/3", "achieved_mass": "0"}

    def test_search_respects_base(self):
        delta, _ = delta_for(Z2, 1, 1)
        base = CylinderSet.of(["0"])
        witness = check_evc(CocycleKernel.coboundary(parity(3), class_depth=3),
                            base, target_set(Z2, 1, 1), delta, UNIFORM)
        assert witness.part.difference(base).is_empty()
        assert image_of(witness.theta, witness.part).difference(base).is_empty()


def deepening_check_evc(kernel, base, target, delta, mu, search_depth=14):
    """Oracle: the level-by-level witness search over words.  It tries
    every level from the kernel's (or the base's) depth up to
    `search_depth`, stops at the first whose pairing has enough mass, and
    computes each word's mass where it uses it."""
    delta = Fraction(delta)
    model = kernel.model
    target = tuple(target)
    target_keys = {model.key(t) for t in target}
    if base.is_empty():
        raise SearchExhausted("the base set is empty", best={})

    if model.key(model.identity()) in target_keys and delta < 1:
        theta = WordMap(kernel.depth, {})
        check = word_validate_witness(kernel, base, target, delta, mu, base,
                                      theta)
        if check.ok:
            return EvcWitness(base, base, theta.indexed(), delta, target,
                              check.measure_slack, check.derivative_slack,
                              check.membership_margin)

    need = delta * base.measure(mu)
    best_mass = Fraction(0)
    start = max(kernel.depth, base.max_depth)
    if start > search_depth:
        raise SearchExhausted(
            f"kernel depth {start} already exceeds search depth {search_depth}",
            best={"required_mass": str(need)})
    for level in range(start, search_depth + 1):
        pairs, b_words, mass = level_pairing(kernel, base, target, target_keys,
                                             delta, mu, level, need)
        best_mass = max(best_mass, mass)
        if mass > need:
            theta = WordMap.from_pairs(level, pairs)
            part = CylinderSet.of(b_words)
            check = word_validate_witness(kernel, base, target, delta, mu,
                                          part, theta)
            if not check.ok:
                raise PostconditionFailure(
                    check.clause or "unknown",
                    f"search produced an invalid witness: {check.detail}")
            return EvcWitness(base, part, theta.indexed(), delta, target,
                              check.measure_slack, check.derivative_slack,
                              check.membership_margin)
    raise SearchExhausted(
        f"no witness with mass above {need} within depth {search_depth}",
        best={"required_mass": str(need), "achieved_mass": str(best_mass)})


def level_pairing(kernel, base, target, target_keys, delta, mu, level, need):
    """Oracle's greedy pairing of words at one level, masses taken per
    use."""
    by_class = {}
    for w in words_at(base, level):
        by_class.setdefault(w[kernel.class_depth:], []).append(w)
    pairs, b_words, mass = [], [], Fraction(0)
    for cls_key in sorted(by_class):
        members = sorted(by_class[cls_key], key=lambda w: (-mu.cylinder(w), w))
        if kernel.kind == "coboundary":
            found = word_match_by_value(kernel, members, target, target_keys,
                                        delta, mu)
        else:
            found = word_match_generic(kernel, members, target_keys, delta, mu)
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


def word_match_generic(kernel, members, target_keys, delta, mu):
    """Quadratic scan over the words of one class."""
    model = kernel.model
    used = set()
    out = []
    for i, x in enumerate(members):
        if x in used:
            continue
        for y in members[i + 1:]:
            if y in used:
                continue
            forward = kernel_value(kernel, y[: kernel.depth], x[: kernel.depth])
            x_ok = (model.key(forward) in target_keys
                    and deviation(mu, x, y) < delta)
            y_ok = (model.key(model.inv(forward)) in target_keys
                    and deviation(mu, y, x) < delta)
            if x_ok or y_ok:
                used.update((x, y))
                out.append((x, y, x_ok, y_ok))
                break
    return out


def word_match_by_value(kernel, members, target, target_keys, delta, mu):
    """Pairing of coboundary words via potential-value lookup: the value
    of (y, x) lands in the target iff f(y) lies in target * f(x)."""
    model = kernel.model
    f = kernel.potential
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


def word_validate_witness(kernel, base, target, delta, mu, part, theta):
    """Oracle: every clause of the condition checked word by word, with
    `theta` a `WordMap`."""
    model = kernel.model
    delta = Fraction(delta)

    def failed(clause, detail, measure_slack=Fraction(0),
               derivative_slack=Fraction(0)):
        return WitnessValidation(False, clause, detail, measure_slack,
                                 derivative_slack, Fraction(0))

    if not part.difference(base).is_empty():
        return failed("part-inside", "B is not contained in A")
    if not theta.image_of(part).difference(base).is_empty():
        return failed("image-inside", "theta(B) is not contained in A")
    mass = part.measure(mu)
    need = delta * base.measure(mu)
    if not mass > need:
        return failed("mass", f"mu(B) = {mass} is not above {need}")
    level = max(kernel.depth, part.max_depth, theta.depth)
    worst = Fraction(0)
    target_keys = {model.key(t) for t in target}
    for w in words_at(part, level):
        img = theta.apply(w)
        if img[kernel.class_depth:] != w[kernel.class_depth:]:
            return failed("class", f"theta throws {w} out of its kernel class",
                          mass - need)
        value = kernel_value(kernel, img[: kernel.depth], w[: kernel.depth])
        if model.key(value) not in target_keys:
            return failed("membership",
                          f"kernel value {model.format(value)} at {w} "
                          "is outside the target set", mass - need)
        worst = max(worst, deviation(mu, w, img))
    if not worst < delta:
        return failed("derivative",
                      f"derivative deviation {worst} is not below {delta}",
                      mass - need, delta - worst)
    return WitnessValidation(True, None, None, mass - need, delta - worst,
                             Fraction(1))


WEIGHTS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)]
# derivatives of one-coordinate moves under WEIGHTS, and the identity
RATIOS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2),
          Fraction(2, 3), Fraction(3), Fraction(1, 3)]


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
    """(kernel, base, target, delta, mu) over every kernel kind, with class
    depths up to the kernel depth and bases up to two levels deeper."""
    mu = draw(measures())
    kind = draw(st.sampled_from(["coboundary", "ratio", "explicit", "trivial"]))
    depth = draw(st.integers(1, 3))
    class_depth = draw(st.integers(0, depth))
    if kind == "ratio":
        kernel = CocycleKernel.ratio(mu, depth, class_depth)
        elements = RATIOS
    else:
        model = draw(st.sampled_from([Z2, Z3, Z4]))
        elements = model.elements()
        values = st.sampled_from(elements)
        if kind == "coboundary":
            f = StepFunction.from_table(
                model, {w: draw(values) for w in all_words(depth)})
            kernel = CocycleKernel.coboundary(f, class_depth=class_depth)
        elif kind == "explicit":
            # c(a, b) = c(b, a)^-1 and c(a, a) = identity, as for a cocycle
            table = {}
            for cls in CocycleKernel.trivial(model, depth, class_depth).classes():
                for i, a in enumerate(cls):
                    table[(a, a)] = model.identity()
                    for b in cls[i + 1:]:
                        table[(a, b)] = draw(values)
                        table[(b, a)] = model.inv(table[(a, b)])
            kernel = CocycleKernel.explicit(model, depth, class_depth, table)
        else:
            kernel = CocycleKernel.trivial(model, depth, class_depth)
    # the identity (listed first) is a target in half the cases, so that
    # the identity fast path does not settle most of them
    target = draw(st.lists(st.sampled_from(elements[1:]), min_size=1, max_size=2))
    if draw(st.booleans()):
        target.append(elements[0])
    words = draw(st.lists(st.text(alphabet="01", max_size=depth + 2),
                          min_size=1, max_size=4))
    if draw(st.booleans()):
        # free the kernel's head coordinates, so that classes keep
        # several members within the base
        words = [h + w[class_depth:] for w in words if len(w) >= class_depth
                 for h in all_words(class_depth)] or words
    base = CylinderSet.of(words)
    delta = draw(st.sampled_from([Fraction(1, 9), Fraction(1, 3),
                                  Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    return kernel, base, tuple(target), delta, mu


def search_outcome(search, *args):
    """The witness's part, map and slacks, or the error with its best."""
    try:
        w = search(*args)
    except CocycleLabError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "best", None)
    return (w.part, w.theta, w.measure_slack, w.derivative_slack,
            w.membership_margin)


class TestSingleLevelSearch:
    @settings(max_examples=300, deadline=None)
    @given(search_cases(), st.integers(-1, 3))
    def test_matches_deepening_search(self, case, extra):
        kernel, base, target, delta, mu = case
        search_depth = max(kernel.depth, base.max_depth) + extra
        args = (kernel, base, target, delta, mu, search_depth)
        assert (search_outcome(check_evc, *args)
                == search_outcome(deepening_check_evc, *args))

    @settings(max_examples=200, deadline=None)
    @given(search_cases())
    def test_next_level_appends_a_bit(self, case):
        kernel, base, target, delta, mu = case
        keys = {kernel.model.key(t) for t in target}
        level = max(kernel.depth, base.max_depth)
        # no mass exceeds 1, so neither level stops early
        unreachable = Fraction(2)
        pairs, words, mass = evc._pair_search(kernel, base, target, keys,
                                              delta, mu, level, unreachable)
        deeper = evc._pair_search(kernel, base, target, keys, delta, mu,
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
        kernel, base, target, delta, mu = case
        keys = {kernel.model.key(t) for t in target}
        level = max(kernel.depth, base.max_depth) + extra
        pairs, words, mass = evc._pair_search(kernel, base, target, keys,
                                              delta, mu, level, need)
        oracle = level_pairing(kernel, base, target, keys, delta, mu, level,
                               need)
        assert [(index_word(x, level), index_word(y, level))
                for x, y in pairs] == oracle[0]
        assert [index_word(w, level) for w in words] == oracle[1]
        assert mass == oracle[2]

    def test_ratio_pairing_matches_word_pairing(self):
        # the kernel value of (y, x) is mu(x) / mu(y): 2 from 01 to 11
        kernel = CocycleKernel.ratio(BIASED, 2, 2)
        target, delta = (Fraction(2),), Fraction(3, 2)
        args = (kernel, CylinderSet.full(), target, {kernel.model.key(2)},
                delta, BIASED, 2, Fraction(2))
        pairs, words, mass = evc._pair_search(*args)
        assert pairs == [(0b11, 0b01), (0b10, 0b00)]
        assert words == [0b01, 0b00] and mass == Fraction(1, 3)
        assert level_pairing(*args) == (
            [("11", "01"), ("10", "00")], ["01", "00"], Fraction(1, 3))

    @settings(max_examples=300, deadline=None)
    @given(search_cases(), st.data())
    def test_validation_matches_word_oracle(self, case, data):
        kernel, base, target, delta, mu = case
        depth = data.draw(st.integers(0, kernel.depth + 1))
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
        assert (validate_witness(kernel, base, target, delta, mu, part, theta)
                == word_validate_witness(kernel, base, target, delta, mu,
                                         part, oracle_theta))


class TestDerivativeBoundary:
    """Under BIASED the first coordinate carries masses 1/3 and 2/3, so
    moving 1 to 0 has derivative deviation exactly 1/2 and moving 0 to 1
    exactly 1.  A deviation equal to delta must fail the strict test."""

    KERNEL = CocycleKernel.coboundary(first_bit(1), class_depth=1)
    # the same values as a table, searched by the generic pairing
    TABLE = CocycleKernel.explicit(Z2, 1, 1, {
        ("0", "0"): 0, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 0})
    SWAP = FiniteDepthMap.from_pairs(1, [(0, 1)])

    @pytest.mark.parametrize("kernel", [KERNEL, TABLE],
                             ids=["coboundary", "explicit"])
    @pytest.mark.parametrize("delta,ok", [
        (Fraction(1, 2), False), (Fraction(501, 1000), True)])
    def test_search(self, kernel, delta, ok):
        args = (kernel, CylinderSet.full(), (1,), delta, BIASED, 2)
        if ok:
            witness = check_evc(*args)
            assert witness.part == CylinderSet.of(["1"])
            assert witness.derivative_slack == delta - Fraction(1, 2)
        else:
            with pytest.raises(SearchExhausted) as exc:
                check_evc(*args)
            assert exc.value.best["achieved_mass"] == "0"
        assert (search_outcome(check_evc, *args)
                == search_outcome(deepening_check_evc, *args))

    @pytest.mark.parametrize("delta,ok", [
        (Fraction(1, 2), False), (Fraction(501, 1000), True)])
    def test_validation(self, delta, ok):
        check = validate_witness(self.KERNEL, CylinderSet.full(), (1,), delta,
                                 BIASED, CylinderSet.of(["1"]), self.SWAP)
        assert check.ok == ok
        assert check.derivative_slack == delta - Fraction(1, 2)
        if not ok:
            assert check.clause == "derivative"
            assert check.detail == ("derivative deviation 1/2 is not below "
                                    "1/2")


class TestEssentialValueCertificate:
    def test_certified_sweep(self):
        kernel = CocycleKernel.coboundary(parity(3), class_depth=3)
        report = essential_value_certificate(
            kernel, 1, UNIFORM,
            [CylinderSet.full(), CylinderSet.of(["0"])], [0, 1])
        assert report.verdict == "certified"
        assert len(report.entries) == 4
        assert all(e.ok for e in report.entries)

    def test_inconclusive_names_failure(self):
        const = StepFunction.from_table(Z2, {w: 0 for w in all_words(2)})
        kernel = CocycleKernel.coboundary(const, class_depth=2)
        report = essential_value_certificate(
            kernel, 1, UNIFORM, [CylinderSet.full()], [1], search_depth=5)
        assert report.verdict == "inconclusive"
        assert next(e for e in report.entries if not e.ok).failure


class TestSkewConnectivity:
    def test_trivial_kernel_gives_group_order(self):
        for model, order in ((Z2, 2), (Z3, 3), (Z4, 4), (S3, 6)):
            kernel = CocycleKernel.trivial(model, 4, 4)
            for depth in (1, 2, 3, 4):
                assert skew_connectivity(kernel, depth=depth) == order

    def test_coboundary_at_full_depth_gives_group_order(self):
        assert skew_connectivity(FIRST_BIT_KERNEL, depth=2) == 2

    def test_deep_parity_projects_to_one(self):
        kernel = CocycleKernel.coboundary(parity(3), class_depth=3)
        assert skew_connectivity(kernel, depth=1) == 1
        assert skew_connectivity(kernel, depth=2) == 1

    def test_half_step_subgroup_z4(self):
        # increments confined to {0, 2} leave two cosets disconnected
        doubled = StepFunction.from_table(
            Z4, {w: 2 * (w.count("1") % 2) for w in all_words(2)})
        kernel = CocycleKernel.coboundary(doubled, class_depth=2)
        assert skew_connectivity(kernel, depth=1) == 2

    def test_chain_matches_exhaustive(self):
        cases = [
            (CocycleKernel.coboundary(parity(3), class_depth=3), 1),
            (CocycleKernel.coboundary(parity(3), class_depth=3), 2),
            (CocycleKernel.coboundary(first_bit(2), class_depth=2), 1),
            (CocycleKernel.trivial(Z3, 3, 3), 2),
        ]
        for kernel, depth in cases:
            assert skew_connectivity(kernel, depth=depth) == \
                union_find_components(kernel, depth, exhaustive=True)

    def test_guards(self, monkeypatch):
        with pytest.raises(SizeGuard):
            skew_connectivity(CocycleKernel.coboundary(
                StepFunction.from_table(FreeAbelianGroup(1), {"0": (0,), "1": (1,)}),
                class_depth=1))
        kernel = CocycleKernel.trivial(Z2, 3, 3)
        with pytest.raises(SizeGuard):
            skew_connectivity(kernel, depth=9)
        monkeypatch.setattr(evc, "SKEW_BUDGET", 1)
        with pytest.raises(SizeGuard):
            skew_connectivity(kernel, depth=2)


def word_components(kernel, level):
    """Oracle: components of the skew graph on (level words x group),
    joining (w, g) to (w', v g), for distinct words w and w', by every
    kernel value v between admissible extensions of w' and w, over words
    and element keys."""
    model = kernel.model
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    words = list(all_words(level))
    tails = list(all_words(kernel.depth - level))
    for w in words:
        for g in model.elements():
            find((w, model.key(g)))
    for second in words:
        for first in words:
            if first == second:
                continue
            for a in tails:
                for b in tails:
                    if not kernel.admissible(first + a, second + b):
                        continue
                    value = kernel_value(kernel, first + a, second + b)
                    for g in model.elements():
                        root = find((second, model.key(g)))
                        other = find((first, model.key(model.mul(value, g))))
                        parent[root] = other
    return len({find(v) for v in list(parent)})


@st.composite
def connectivity_cases(draw):
    model = draw(st.sampled_from([Z2, Z3, S3]))
    depth = draw(st.integers(1, 3))
    class_depth = draw(st.integers(0, depth))
    kind = draw(st.sampled_from(["trivial", "coboundary", "explicit"]))
    if kind == "trivial":
        kernel = CocycleKernel.trivial(model, depth, class_depth)
    elif kind == "coboundary":
        f = StepFunction.from_table(model, {
            w: draw(st.sampled_from(model.elements()))
            for w in all_words(draw(st.integers(0, depth)))})
        kernel = CocycleKernel.coboundary(f, class_depth=class_depth,
                                          depth=depth)
    else:
        # reflexive and antisymmetric, but with any values otherwise, so
        # the chain rule may fail
        table = {}
        for cls in CocycleKernel.trivial(model, depth, class_depth).classes():
            for i, a in enumerate(cls):
                table[(a, a)] = model.identity()
                for b in cls[i + 1:]:
                    table[(a, b)] = draw(st.sampled_from(model.elements()))
                    table[(b, a)] = model.inv(table[(a, b)])
        kernel = CocycleKernel.explicit(model, depth, class_depth, table)
    return kernel, draw(st.integers(1, depth))


class TestIndexedConnectivity:
    @settings(max_examples=150, deadline=None)
    @given(connectivity_cases())
    def test_chain_matches_exhaustive_and_words(self, case):
        kernel, level = case
        full = union_find_components(kernel, level, exhaustive=True)
        assert full == word_components(kernel, level)
        # the chain walk relies on the chain rule, which arbitrary
        # explicit tables break: those are held to the chain's oracle
        assert skew_connectivity(kernel, depth=level) == (
            union_find_components(kernel, level)
            if kernel.kind == "explicit" else full)


@st.composite
def subgroup_cases(draw):
    """(kernel, level) on Z2, Z4 and S3 up to depth 6, at every level and
    class depth, with potentials of any depth and tables of any values."""
    model = draw(st.sampled_from([Z2, Z4, S3]))
    depth = draw(st.integers(1, 6))
    # the kernel depth half of the time, so that classes are large
    deep = st.one_of(st.just(depth), st.integers(0, depth))
    class_depth = draw(deep)
    kind = draw(st.sampled_from(["trivial", "coboundary", "explicit"]))
    rng = draw(st.randoms(use_true_random=True))
    # values from a few elements, so that proper subgroups occur
    elements = model.elements()
    palette = rng.sample(elements, rng.randint(1, min(3, len(elements))))
    if kind == "trivial":
        kernel = CocycleKernel.trivial(model, depth, class_depth)
    elif kind == "coboundary":
        f_depth = draw(deep)
        values = tuple(rng.choice(palette) for _ in range(1 << f_depth))
        kernel = CocycleKernel.coboundary(StepFunction(model, f_depth, values),
                                          class_depth=class_depth, depth=depth)
    else:
        table = {(a, b): rng.choice(palette)
                 for cls in CocycleKernel.trivial(model, depth,
                                                  class_depth).classes()
                 for a in cls for b in cls}
        kernel = CocycleKernel.explicit(model, depth, class_depth, table)
    return kernel, draw(st.integers(1, depth))


class TestSubgroupIndexCount:
    """The count by subgroup index against union-find over every vertex;
    S3 is non-abelian, so left and right cosets differ there."""

    @settings(max_examples=300, deadline=None)
    @given(subgroup_cases())
    def test_matches_union_find(self, case):
        # every word pair for kernels that keep the chain rule, the chain
        # for explicit tables, which may break it
        kernel, level = case
        assert skew_connectivity(kernel, depth=level) == union_find_components(
            kernel, level, exhaustive=kernel.kind != "explicit")

    def test_potential_generators_are_a_inverse_p(self):
        # under 0 the potential takes e and t01, under 1 r and r t01: both
        # give a^-1 p = t01, so H = {e, t01} leaves 3 components; p a^-1
        # would add r t01 r^-1 = t12 and generate S3
        e, r, t01 = (S3.parse(x) for x in ("e", "r", "t01"))
        f = StepFunction(S3, 2, (e, t01, r, S3.mul(r, t01)))
        kernel = CocycleKernel.coboundary(f, class_depth=2)
        assert union_find_components(kernel, 1) == 3
        assert skew_connectivity(kernel, depth=1) == 3

    def test_transport_conjugates_later_edges(self):
        # the chain 0 - 1 - 2 - 3 of depth-2 words: the first edge takes r
        # and t01 r, the second e and t01.  With T_1 = T_2 = r^-1 both give
        # r^-1 t01 r = t02, so H has order 2; leaving the second edge's
        # t01 unconjugated would generate S3
        e, r, t01 = (S3.parse(x) for x in ("e", "r", "t01"))
        table = {(a, b): e for a in all_words(3) for b in all_words(3)}
        for a in ("010", "011"):
            for b in ("000", "001"):
                table[a, b] = S3.mul(t01, r)
        table["010", "000"] = r
        for a in ("100", "101"):
            for b in ("010", "011"):
                table[a, b] = t01
        table["100", "010"] = e
        kernel = CocycleKernel.explicit(S3, 3, 3, table)
        assert union_find_components(kernel, 2) == 3
        assert skew_connectivity(kernel, depth=2) == 3


class TestTargets:
    def test_target_set_is_u_translate(self):
        assert set(target_set(Z4, 1, 1)) == {1}
        assert set(target_set(Z4, 1, 0)) == {0, 1, 2, 3}
        t01 = S3.parse("t01")
        assert set(target_set(S3, t01, 1)) == {t01}

    def test_delta_matches_covering(self):
        delta, cover = delta_for(S3, S3.parse("t01"), 1)
        assert delta == Fraction(1, 9) and cover.number == 3
