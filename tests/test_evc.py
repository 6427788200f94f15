"""Essential-value witnesses and skew-product connectivity.

Component counts are pinned against hand-computed small cases and the
exhaustive edge walk is used as an oracle for the spanning-chain walk.
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
from cocyclelab.evc import (EvcWitness, check_evc, delta_for,
                            essential_value_certificate, skew_connectivity,
                            target_set, validate_witness)
from cocyclelab.groups import (FreeAbelianGroup, cyclic_group,
                               symmetric_group_3)
from cocyclelab.measure import CylinderSet, ProductMeasure, all_words
from cocyclelab.odometer import FiniteDepthMap

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
    theta = FiniteDepthMap.from_pairs(2, [("00", "10"), ("01", "11")])
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
            FiniteDepthMap.from_pairs(2, [("00", "10")]))
        assert not check.ok and check.clause == "image-inside"

    def test_mass(self):
        check = validate_witness(
            FIRST_BIT_KERNEL, CylinderSet.full(), self.TARGET, self.DELTA,
            UNIFORM, CylinderSet.of(["00"]),
            FiniteDepthMap.from_pairs(2, [("00", "10")]))
        assert not check.ok and check.clause == "mass"

    def test_class(self):
        kernel = CocycleKernel.coboundary(first_bit(3), class_depth=1)
        part = CylinderSet.of(["000", "001", "010"])
        theta = FiniteDepthMap.from_pairs(3, [("000", "011"), ("001", "010")])
        check = validate_witness(kernel, CylinderSet.full(), self.TARGET,
                                 self.DELTA, UNIFORM, part, theta)
        assert not check.ok and check.clause == "class"

    def test_membership(self):
        # theta moving within the same first bit realizes the identity,
        # not the requested value
        part = CylinderSet.of(["00"])
        theta = FiniteDepthMap.from_pairs(2, [("00", "01")])
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
        for w in witness.part.words_at(level):
            img = witness.theta.apply(w)
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
        assert witness.theta.image_of(witness.part).difference(base).is_empty()


def deepening_check_evc(kernel, base, target, delta, mu, search_depth=14):
    """Oracle: the level-by-level witness search.  It tries every level
    from the kernel's (or the base's) depth up to `search_depth`, stops
    at the first whose pairing has enough mass, and computes each word's
    mass where it uses it."""
    delta = Fraction(delta)
    model = kernel.model
    target = tuple(target)
    target_keys = {model.key(t) for t in target}
    if base.is_empty():
        raise SearchExhausted("the base set is empty", best={})

    if model.key(model.identity()) in target_keys and delta < 1:
        theta = FiniteDepthMap.identity(kernel.depth)
        check = validate_witness(kernel, base, target, delta, mu, base, theta)
        if check.ok:
            return EvcWitness(base, base, theta, delta, target,
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
            theta = FiniteDepthMap.from_pairs(level, pairs)
            part = CylinderSet.of(b_words)
            check = validate_witness(kernel, base, target, delta, mu, part, theta)
            if not check.ok:
                raise PostconditionFailure(
                    check.clause or "unknown",
                    f"search produced an invalid witness: {check.detail}")
            return EvcWitness(base, part, theta, delta, target,
                              check.measure_slack, check.derivative_slack,
                              check.membership_margin)
    raise SearchExhausted(
        f"no witness with mass above {need} within depth {search_depth}",
        best={"required_mass": str(need), "achieved_mass": str(best_mass)})


def level_pairing(kernel, base, target, target_keys, delta, mu, level, need):
    """Oracle's greedy pairing at one level, masses taken per use."""
    by_class = {}
    for w in base.words_at(level):
        by_class.setdefault(w[kernel.class_depth:], []).append(w)
    pairs, b_words, mass = [], [], Fraction(0)
    for cls_key in sorted(by_class):
        members = sorted(by_class[cls_key], key=lambda w: (-mu.cylinder(w), w))
        if kernel.kind == "coboundary":
            found = evc._match_by_value(kernel, members, target, target_keys,
                                        delta, mu)
        else:
            found = evc._match_generic(kernel, members, target_keys, delta, mu)
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


WEIGHTS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)]
# derivatives of one-coordinate moves under WEIGHTS, and the identity
RATIOS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2),
          Fraction(2, 3), Fraction(3), Fraction(1, 3)]


@st.composite
def measures(draw):
    """Uniform, or a head of weight pairs followed by a repeating cycle."""
    if draw(st.booleans()):
        return UNIFORM
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
        assert sorted(deeper[0]) == sorted(
            (x + b, y + b) for x, y in pairs for b in "01")
        assert sorted(deeper[1]) == sorted(w + b for w in words for b in "01")
        assert deeper[2] == mass


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
            chain = skew_connectivity(kernel, depth=depth)
            full = skew_connectivity(kernel, depth=depth, exhaustive=True)
            assert chain == full

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


class TestTargets:
    def test_target_set_is_u_translate(self):
        assert set(target_set(Z4, 1, 1)) == {1}
        assert set(target_set(Z4, 1, 0)) == {0, 1, 2, 3}
        t01 = S3.parse("t01")
        assert set(target_set(S3, t01, 1)) == {t01}

    def test_delta_matches_covering(self):
        delta, cover = delta_for(S3, S3.parse("t01"), 1)
        assert delta == Fraction(1, 9) and cover.number == 3
