"""The single construction step, pinned against brute-force oracles.

The reference case numbers (levels, masses, deviations) are frozen;
agreement and distance are recomputed here by direct loops over the
function tables so the library helpers are never their own oracle.
"""
import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import stepper
from cocyclelab.cocycles import StepFunction
from cocyclelab.errors import (ConfigError, DepthExhausted, EmptyCore,
                               PostconditionFailure)
from cocyclelab.groups import cyclic_group, symmetric_group_3
from cocyclelab.measure import CylinderSet, ProductMeasure, all_words
from cocyclelab.odometer import (FiniteDepthMap, adding_machine_action,
                                 flip_action)
from cocyclelab.stepper import (CERTIFICATE_ORDER, StepArtifacts, StepInput,
                                construct_step, discard_set,
                                fingerprint_partition, overflow_hull,
                                select_core_and_conjugate,
                                validate_step_output)
from word_oracles import (apply_piece, covers, image_of, pieces, step_at,
                          words_at)

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
S3 = symmetric_group_3()
UNIFORM = ProductMeasure.uniform()

FLAT = StepFunction.from_table(Z2, {"0": 0, "1": 0})


def reference_input(**overrides) -> StepInput:
    base = dict(f=FLAT, n=1, action=adding_machine_action(6), family=(1,),
                target=CylinderSet.full(), candidate=1, u_index=1,
                eps=Fraction(1, 4), mu=UNIFORM, depth_budget=14)
    base.update(overrides)
    return StepInput(**base)


def brute_agreement_mass(inp: StepInput, f_tilde: StepFunction,
                         depth: int) -> Fraction:
    """Mass of words where every generator increment is defined for both
    functions and matches; remainder words count against agreement."""
    model = inp.f.model
    mass = Fraction(0)
    maps = [pieces(g) for g in inp.action.generators]
    for w in all_words(depth):
        ok = True
        for word_pieces in maps:
            img = apply_piece(word_pieces, w)
            if img is None:
                ok = False
                break
            old = model.mul(step_at(inp.f, img), model.inv(step_at(inp.f, w)))
            new = model.mul(step_at(f_tilde, img), model.inv(step_at(f_tilde, w)))
            if old != new:
                ok = False
                break
        if ok:
            mass += inp.mu.cylinder(w)
    return mass


def brute_distance_upper(inp: StepInput, f_tilde: StepFunction,
                         depth: int) -> Fraction:
    """Generator-weighted disagreement mass, word by word: the mass where
    a generator's old and new increments differ or its rule is
    undefined, weighted 2^-j for the j-th generator, as
    `cocycle_distance` reads it off the agreement sets."""
    model = inp.f.model
    total = Fraction(0)
    weight = Fraction(1, 2)
    for g in inp.action.generators:
        word_pieces = pieces(g)
        bad = Fraction(0)
        for w in all_words(depth):
            img = apply_piece(word_pieces, w)
            if img is None:
                bad += inp.mu.cylinder(w)
                continue
            old = model.mul(step_at(inp.f, img), model.inv(step_at(inp.f, w)))
            new = model.mul(step_at(f_tilde, img), model.inv(step_at(f_tilde, w)))
            if old != new:
                bad += inp.mu.cylinder(w)
        total += weight * bad
        weight /= 2
    return total


class TestReferenceCase:
    def test_frozen_profile(self):
        inp = reference_input()
        out = construct_step(inp)
        assert out.m == 6
        assert out.f_tilde.depth == 7
        assert out.h == 1
        assert out.delta == Fraction(1, 3)
        assert inp.eps_prime == Fraction(1, 8)
        assert overflow_hull(inp.action, inp.n,
                             out.m).measure(inp.mu) == Fraction(1, 16)
        assert out.core.measure(inp.mu) == Fraction(15, 32)
        assert all(c.ok for c in out.certificates)
        # eps = 1/4 deliberately exceeds the mass/(40 covering) admission
        # bound; the certificate records this without failing the step
        assert not out.check.admission().ok

    def test_agreement_against_oracle(self):
        inp = reference_input()
        out = construct_step(inp)
        oracle = brute_agreement_mass(inp, out.f_tilde, out.f_tilde.depth)
        assert oracle == Fraction(15, 16)

    def test_distance_against_oracle(self):
        inp = reference_input()
        out = construct_step(inp)
        oracle = brute_distance_upper(inp, out.f_tilde, out.f_tilde.depth)
        assert oracle == Fraction(3, 128)

    def test_update_piecewise_shape(self):
        # with a flat input and h = 1 the update is the indicator of the
        # second exchange side minus the hull
        inp = reference_input()
        out = construct_step(inp)
        on = CylinderSet.of([w for w in all_words(out.f_tilde.depth)
                             if step_at(out.f_tilde, w) == 1])
        tau, b_set = discard_set(
            inp, out.m, overflow_hull(inp.action, inp.n, out.m))
        assert b_set == out.b_set
        # the exchange sides: the suffix words tau moves up, and down
        up = [s for s, t in enumerate(tau.table) if s < t]
        down = [s for s, t in enumerate(tau.table) if s > t]
        a_set = CylinderSet.from_indices(tau.depth, up).prepend_free(out.m)
        c_set = CylinderSet.from_indices(tau.depth, down).prepend_free(out.m)
        assert on == c_set.difference(b_set)
        assert out.core.difference(a_set).is_empty()

    def test_idempotent(self):
        inp = reference_input()
        assert construct_step(inp) == construct_step(inp)

    def test_validator_accepts(self):
        inp = reference_input()
        out = construct_step(inp)
        checks = validate_step_output(inp, out).validator_certificates()
        assert all(c.ok for c in checks)


# (input, m, working depth, formatted h, delta, core mass)
VARIANTS = [
    ("s3-adding", StepInput(
        f=StepFunction.from_table(S3, {"00": S3.identity(), "01": S3.parse("t02"),
                                       "10": S3.parse("t02"), "11": S3.identity()}),
        n=2, action=adding_machine_action(8), family=(S3.parse("t02"),),
        target=CylinderSet.full(), candidate=S3.parse("t01"), u_index=1,
        eps=Fraction(1, 4), mu=UNIFORM),
     7, 8, "t01", Fraction(1, 9), Fraction(15, 64)),
    ("z2-flip-iid13", StepInput(
        f=FLAT, n=1, action=flip_action((1,)), family=(1,),
        target=CylinderSet.full(), candidate=1, u_index=1,
        eps=Fraction(1, 4), mu=ProductMeasure.iid(Fraction(1, 3))),
     2, 10, "1", Fraction(1, 3), Fraction(3152, 6561)),
    ("z4-adding", StepInput(
        f=StepFunction.from_table(Z4, {"00": 0, "01": 2, "10": 2, "11": 0}),
        n=2, action=adding_machine_action(8), family=(2,),
        target=CylinderSet.full(), candidate=1, u_index=1,
        eps=Fraction(1, 4), mu=UNIFORM),
     7, 8, "1", Fraction(1, 3), Fraction(15, 32)),
    ("z2-flip-iid25", StepInput(
        f=FLAT, n=1, action=flip_action((1,)), family=(1,),
        target=CylinderSet.full(), candidate=1, u_index=1,
        eps=Fraction(1, 4), mu=ProductMeasure.iid(Fraction(2, 5))),
     2, 8, "1", Fraction(1, 3), Fraction(7182, 15625)),
    ("z2-flip-period2", StepInput(
        f=FLAT, n=1, action=flip_action((1,)), family=(1,),
        target=CylinderSet.full(), candidate=1, u_index=1,
        eps=Fraction(1, 4),
        mu=ProductMeasure.from_schedule(
            (), [(Fraction(1, 2), Fraction(1, 2)),
                 (Fraction(1, 3), Fraction(2, 3))])),
     2, 3, "1", Fraction(1, 3), Fraction(1, 2)),
    ("z2-adding-subtarget", StepInput(
        f=FLAT, n=1, action=adding_machine_action(10), family=(1,),
        target=CylinderSet.of(["0", "10"]), candidate=1, u_index=1,
        eps=Fraction(1, 16), mu=UNIFORM),
     8, 9, "1", Fraction(1, 3), Fraction(189, 512)),
]


class TestVariants:
    @pytest.mark.parametrize(
        "tag,inp,m,depth,h,delta,core", VARIANTS,
        ids=[v[0] for v in VARIANTS])
    def test_profile(self, tag, inp, m, depth, h, delta, core):
        out = construct_step(inp)
        assert out.m == m
        assert out.f_tilde.depth == depth
        assert inp.f.model.format(out.h) == h
        assert out.delta == delta
        assert out.core.measure(inp.mu) == core
        assert all(c.ok for c in out.certificates)
        assert all(c.ok for c in
                   validate_step_output(inp, out).validator_certificates())

    @pytest.mark.parametrize(
        "tag,inp,m,depth,h,delta,core", VARIANTS[:2],
        ids=[v[0] for v in VARIANTS[:2]])
    def test_oracles(self, tag, inp, m, depth, h, delta, core):
        out = construct_step(inp)
        eps = Fraction(inp.eps)
        assert brute_agreement_mass(inp, out.f_tilde, depth) > 1 - eps
        assert brute_distance_upper(inp, out.f_tilde, depth) < eps


class TestErrorPaths:
    def test_eps_must_be_positive(self):
        with pytest.raises(ConfigError):
            construct_step(reference_input(eps=Fraction(0)))

    def test_target_must_have_mass(self):
        with pytest.raises(ConfigError):
            construct_step(reference_input(target=CylinderSet.empty()))

    def test_input_must_be_inner(self):
        bad = StepFunction.from_table(Z2, {"0": 0, "1": 1})
        with pytest.raises(ConfigError):
            construct_step(reference_input(f=bad))

    def test_input_must_match_family(self):
        bad = StepFunction.from_table(Z4, {"0": 0, "1": 1})
        with pytest.raises(ConfigError):
            construct_step(reference_input(
                f=bad, action=flip_action((1,)), family=(2,), candidate=1))

    def test_target_inside_hull_has_no_core(self):
        with pytest.raises(EmptyCore):
            construct_step(reference_input(
                target=CylinderSet.of(["111111"])))

    def test_depth_budget_exhausts(self):
        with pytest.raises(DepthExhausted):
            construct_step(reference_input(eps=Fraction(1, 64),
                                           depth_budget=4))

    def test_depth_budget_exhausts_tiny_eps(self):
        with pytest.raises(DepthExhausted):
            construct_step(reference_input(eps=Fraction(1, 10 ** 6)))


def failing_clauses(inp, out) -> list[str]:
    return [c.clause for c in validate_step_output(inp, out).validator_certificates()
            if not c.ok]


def right_translate_on(f: StepFunction, s: CylinderSet, g) -> StepFunction:
    """f(x) g on `s`, f(x) elsewhere."""
    depth = max(f.depth, s.max_depth)
    table = {}
    for w in all_words(depth):
        v = step_at(f, w)
        table[w] = f.model.mul(v, g) if covers(s, w) else v
    return StepFunction.from_table(f.model, table)


def _lift_top_word(out):
    # a non-identity value on the adding machine's undecided remainder
    values = out.f_tilde.values[:-1] + (1,)
    return dataclasses.replace(
        out, f_tilde=StepFunction(Z2, out.f_tilde.depth, values))


def _first_core_word(out):
    return dataclasses.replace(out, core=CylinderSet.of(
        words_at(out.core, out.f_tilde.depth)[:1]))


# (clause, input, tampering of the constructed output); each tampering
# breaks the named shared clause, possibly others with it
TAMPERED = [
    ("overflow_small", reference_input(),
     lambda out: dataclasses.replace(out, m=1)),
    ("inner", reference_input(), _lift_top_word),
    ("incremental", VARIANTS[2][1],  # Z4: h = 0 shrinks the enlarged family
     lambda out: dataclasses.replace(out, h=0)),
    ("core_inside", VARIANTS[5][1],
     lambda out: dataclasses.replace(
         out, core=out.core.union(CylinderSet.of(["11"])))),
    ("core_mass", reference_input(), _first_core_word),
    ("core_membership", reference_input(),
     lambda out: dataclasses.replace(
         out, theta=FiniteDepthMap.identity(out.f_tilde.depth))),
    ("core_derivative", VARIANTS[1][1],  # biased measure, first-coordinate flip
     lambda out: dataclasses.replace(out, theta=FiniteDepthMap.from_pairs(
         1, [(0, 1)]))),
    ("agreement", reference_input(),
     lambda out: dataclasses.replace(out, f_tilde=right_translate_on(
         out.f_tilde, CylinderSet.of(["001"]), 1))),
    ("distance", reference_input(),
     lambda out: dataclasses.replace(out, f_tilde=right_translate_on(
         out.f_tilde, CylinderSet.of(["01"]), 1))),
]


class TestValidatorIndependence:
    def test_tampered_delta(self):
        inp = reference_input()
        out = dataclasses.replace(construct_step(inp), delta=Fraction(1, 2))
        bad = failing_clauses(inp, out)
        assert "delta_consistency" in bad

    def test_tampered_core(self):
        inp = reference_input()
        out = construct_step(inp)
        out = dataclasses.replace(out, core=CylinderSet.full())
        bad = failing_clauses(inp, out)
        assert "core_disjoint" in bad

    def test_tampered_update(self):
        inp = reference_input()
        out = construct_step(inp)
        values = out.f_tilde.values
        # the lexicographically first word has index 0
        values = (Z2.mul(values[0], 1),) + values[1:]
        out = dataclasses.replace(
            out, f_tilde=StepFunction(Z2, out.f_tilde.depth, values))
        bad = failing_clauses(inp, out)
        assert bad

    @pytest.mark.parametrize("clause,inp,tamper", TAMPERED,
                             ids=[t[0] for t in TAMPERED])
    def test_clause_fails(self, clause, inp, tamper):
        out = tamper(construct_step(inp))
        bad = failing_clauses(inp, out)
        assert clause in bad

    def test_value_on_the_remainder_fails_inner(self):
        # the overflow includes the truncation remainder, so a
        # non-identity value there fails innerness
        inp = reference_input()
        out = _lift_top_word(construct_step(inp))
        checks = validate_step_output(inp, out).validator_certificates()
        inner = next(c for c in checks if c.clause == "inner")
        assert not inner.ok
        assert inner.detail == f"identity on level-{out.m} overflow"


class TestSharedCheck:
    @pytest.mark.parametrize("inp", [reference_input()] + [v[1] for v in VARIANTS],
                             ids=["reference"] + [v[0] for v in VARIANTS])
    def test_both_lists_come_from_the_step_check(self, inp):
        out = construct_step(inp)
        assert tuple(c.clause for c in out.certificates) == CERTIFICATE_ORDER
        assert validate_step_output(inp, out) == out.check
        shared = {c.clause: c for c in out.check.step_certificates()}
        assert [c for c in out.certificates if c.clause in shared] == \
            list(shared.values())

    def test_artifact_slice_is_enough(self):
        inp = reference_input()
        out = construct_step(inp)
        art = StepArtifacts(out.f_tilde, out.theta, out.core, out.m, out.h,
                            out.delta)
        assert isinstance(out, StepArtifacts)
        assert validate_step_output(inp, art) == validate_step_output(inp, out)


@functools.lru_cache(maxsize=None)
def reference_step():
    inp = reference_input()
    return inp, construct_step(inp)


@st.composite
def cylinder_sets(draw, depth):
    return CylinderSet.of(draw(st.lists(st.text(alphabet="01", max_size=depth),
                                        min_size=1, max_size=4)))


class TestCoreTables:
    """The core tests read membership tables; the set operations are the
    oracle."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_match_set_operations(self, data):
        inp, out = reference_step()
        depth = out.f_tilde.depth
        # targets may be deeper than the working depth, cores may not
        target = data.draw(st.one_of(st.just(CylinderSet.full()),
                                     cylinder_sets(depth + 2)))
        core = data.draw(cylinder_sets(depth))
        if data.draw(st.booleans()):
            inside = core.intersection(target)
            if inside.max_depth <= depth:
                core = inside
        theta_depth = data.draw(st.integers(0, min(depth, 4)))
        theta = FiniteDepthMap(theta_depth, tuple(data.draw(
            st.permutations(range(1 << theta_depth)))))
        check = validate_step_output(dataclasses.replace(inp, target=target),
                                     dataclasses.replace(out, core=core,
                                                         theta=theta))
        image = image_of(theta, core)
        assert check.witness.part_inside == core.difference(target).is_empty()
        assert (check.witness.image_inside
                == image.difference(target).is_empty())
        assert (check.verdicts()["core_disjoint"]
                == image.intersection(core).is_empty())


class TestTolerances:
    def test_image_safe_tolerance_uniform(self):
        inp = reference_input(action=adding_machine_action(6),
                              eps=Fraction(1, 4))
        assert inp.eps_prime == Fraction(1, 8)

    def test_image_safe_tolerance_biased(self):
        biased = ProductMeasure.iid(Fraction(1, 3))
        inp = reference_input(action=adding_machine_action(6), mu=biased,
                              eps=Fraction(1, 4))
        assert inp.eps_prime == Fraction(1, 72)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError, match="eps must be positive"):
            reference_input(action=adding_machine_action(4),
                            eps=Fraction(-1, 2))


class TestDerivativeBoundary:
    """Under iid(1/3) flipping the first coordinate moves mass 1/3 to
    2/3, a derivative deviation of exactly 1 (and 1/2 back).  The strict
    construction clauses must fail when their bound equals it: eps for
    the suffix exchange, 3 eps for the pairing transformation."""

    @staticmethod
    def construction_clauses(eps):
        inp = VARIANTS[1][1]
        out = construct_step(inp)
        selection = select_core_and_conjugate(inp)
        flip = FiniteDepthMap.from_pairs(1, [(0, 1)])
        theta = FiniteDepthMap(out.f_tilde.depth,
                               flip.index_map(out.f_tilde.depth))
        certificates = stepper._certify(
            dataclasses.replace(inp, eps=eps), selection,
            fingerprint_partition(inp.f, selection.z0, inp.n, inp.mu),
            overflow_hull(inp.action, inp.n, out.m), flip,
            theta, out.core.measure(inp.mu), out.m)
        return {c.clause: c for c in certificates}

    @pytest.mark.parametrize("eps,ok", [
        (Fraction(1), False), (Fraction(1001, 1000), True)])
    def test_suffix_derivative(self, eps, ok):
        clause = self.construction_clauses(eps)["suffix_derivative"]
        assert clause.ok == ok
        assert clause.detail.startswith(f"exchange derivative deviation 1 < {eps}")

    @pytest.mark.parametrize("eps,ok", [
        (Fraction(1, 3), False), (Fraction(1001, 3000), True)])
    def test_transfer_derivative(self, eps, ok):
        clause = self.construction_clauses(eps)["transfer_derivative"]
        assert clause.ok == ok
        assert clause.detail == f"pairing derivative deviation 1 < {3 * eps}"
