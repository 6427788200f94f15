"""Acceptance gate.

Eight criteria, one test each, so `pytest tests/test_acceptance.py -v`
prints one pass/fail line per criterion:

  a1  exact measure algebra on random words, three weight schedules
  a2  single-step postconditions on a reference instance and 12 variants
  a3  every step's (core, pairing) re-validates as an essential-value witness
  a4  six-round recursion invariants, strict tolerance halving, ledgers
  a5  connectivity ladder reaches one component; trivial control stays |G|
  a6  negative controls: non-ergodic kernels detected, tampering caught
  a7  direct-sum norm pipeline keeps every generator bound at the family sup
  a8  byte-identical reports from identical configs

All comparisons are exact rational equalities or strict inequalities;
the only tolerances are the wall-clock budgets pinned below.
"""
import copy
import random
import time
from fractions import Fraction

import pytest

from cocyclelab.cocycles import StepFunction
from cocyclelab.driver import (PRESETS, PipelineConfig, certify_report,
                               norm_bounded_pipeline, run_theorem_02i)
from cocyclelab.evc import (skew_connectivity, target_set, validate_witness)
from cocyclelab.groups import (FreeAbelianGroup, covering_number,
                               cyclic_group, symmetric_group_3)
from cocyclelab.measure import CylinderSet, ProductMeasure, all_words
from cocyclelab.odometer import (FiniteDepthMap, adding_machine_action,
                                 flip_action)
from cocyclelab.stepper import StepInput, construct_step, validate_step_output

MEASURE_BUDGET_S = 5.0
STEP_BUDGET_S = 60.0
RUN_BUDGET_S = 600.0
NORM_BUDGET_S = 120.0
DEPTH_CAP = 14

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group_3()
ZZ = FreeAbelianGroup(2)
UNIFORM = ProductMeasure.uniform()
IID13 = ProductMeasure.iid(Fraction(1, 3))
IID25 = ProductMeasure.iid(Fraction(2, 5))
PERIOD2 = ProductMeasure.from_schedule(
    (), [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))])


def preset(name: str, **overrides) -> PipelineConfig:
    raw = dict(PRESETS[name])
    raw.update(overrides)
    return PipelineConfig.from_mapping(raw)


# reference single step: two-element group over the adding machine,
# identity start, full-space target, identity neighborhood
REFERENCE = ("reference", StepInput(
    f=StepFunction.from_table(Z2, {"0": 0, "1": 0}), n=1,
    action=adding_machine_action(6), family=(1,), target=CylinderSet.full(),
    candidate=1, u_index=1, eps=Fraction(1, 4), mu=UNIFORM))

VARIANTS = [
    ("s3-adding", StepInput(
        f=StepFunction.from_table(S3, {"00": S3.identity(), "01": S3.parse("t02"),
                                       "10": S3.parse("t02"), "11": S3.identity()}),
        n=2, action=adding_machine_action(8), family=(S3.parse("t02"),),
        target=CylinderSet.full(), candidate=S3.parse("t01"), u_index=1,
        eps=Fraction(1, 4), mu=UNIFORM)),
    ("s3-flip-iid13", StepInput(
        f=StepFunction.from_table(S3, {"0": S3.identity(), "1": S3.parse("t01")}),
        n=1, action=flip_action((1,)), family=(S3.parse("t01"),),
        target=CylinderSet.full(), candidate=S3.parse("r"), u_index=1,
        eps=Fraction(1, 8), mu=IID13)),
    ("z2-flip-iid13", StepInput(
        f=StepFunction.from_table(Z2, {"0": 0, "1": 0}), n=1,
        action=flip_action((1,)), family=(1,), target=CylinderSet.full(),
        candidate=1, u_index=1, eps=Fraction(1, 4), mu=IID13)),
    ("z2-flip-iid25", StepInput(
        f=StepFunction.from_table(Z2, {"0": 0, "1": 0}), n=1,
        action=flip_action((1,)), family=(1,), target=CylinderSet.full(),
        candidate=1, u_index=1, eps=Fraction(1, 4), mu=IID25)),
    ("z2-flip-period2", StepInput(
        f=StepFunction.from_table(Z2, {"0": 0, "1": 0}), n=1,
        action=flip_action((1,)), family=(1,), target=CylinderSet.full(),
        candidate=1, u_index=1, eps=Fraction(1, 4), mu=PERIOD2)),
    ("z2-adding-subtarget", StepInput(
        f=StepFunction.from_table(Z2, {"0": 0, "1": 0}), n=1,
        action=adding_machine_action(10), family=(1,),
        target=CylinderSet.of(["0", "10"]), candidate=1, u_index=1,
        eps=Fraction(1, 16), mu=UNIFORM)),
    ("z3-flip-iid13", StepInput(
        f=StepFunction.from_table(Z3, {"0": 0, "1": 1}), n=1,
        action=flip_action((1,)), family=(1, 2), target=CylinderSet.full(),
        candidate=1, u_index=1, eps=Fraction(1, 4), mu=IID13)),
    ("z3-adding", StepInput(
        f=StepFunction.from_table(Z3, {"0": 0, "1": 0}), n=1,
        action=adding_machine_action(6), family=(1, 2),
        target=CylinderSet.full(), candidate=2, u_index=1,
        eps=Fraction(1, 4), mu=UNIFORM)),
    ("z4-adding", StepInput(
        f=StepFunction.from_table(Z4, {"00": 0, "01": 2, "10": 2, "11": 0}),
        n=2, action=adding_machine_action(8), family=(2,),
        target=CylinderSet.full(), candidate=1, u_index=1,
        eps=Fraction(1, 4), mu=UNIFORM)),
    ("z4-flip-iid25", StepInput(
        f=StepFunction.from_table(Z4, {"0": 0, "1": 2}), n=1,
        action=flip_action((1,)), family=(2,), target=CylinderSet.full(),
        candidate=3, u_index=1, eps=Fraction(1, 4), mu=IID25)),
    ("sum-flip-uniform", StepInput(
        f=StepFunction.from_table(ZZ, {"0": (0, 0), "1": (1, 0)}), n=1,
        action=flip_action((1,)), family=((1, 0), (-1, 0)),
        target=CylinderSet.full(), candidate=(1, 0), u_index=1,
        eps=Fraction(1, 4), mu=UNIFORM)),
    ("sum-flip-iid13", StepInput(
        f=StepFunction.from_table(ZZ, {"0": (0, 0), "1": (1, 0)}), n=1,
        action=flip_action((1,)), family=((1, 0), (-1, 0)),
        target=CylinderSet.full(), candidate=(1, 0), u_index=1,
        eps=Fraction(1, 4), mu=IID13)),
]


@pytest.fixture(scope="module")
def step_outputs():
    """Every single-step instance, built once: (tag, input, output,
    seconds)."""
    rows = []
    for tag, inp in [REFERENCE] + VARIANTS:
        start = time.monotonic()
        out = construct_step(inp)
        rows.append((tag, inp, out, time.monotonic() - start))
    return rows


@pytest.fixture(scope="module")
def flips_run():
    start = time.monotonic()
    report = run_theorem_02i(preset("z2-flips"))
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def z3_run():
    return run_theorem_02i(preset("z3-flips"))


def random_words(count: int, max_len: int, seed: int) -> list:
    rng = random.Random(seed)
    return ["".join(rng.choice("01") for _ in range(rng.randint(1, max_len)))
            for _ in range(count)]


def test_a1_exact_measure_algebra():
    start = time.monotonic()
    words = random_words(1000, 12, seed=20260823)
    rng = random.Random(20260823)
    for mu in (UNIFORM, IID13, PERIOD2):
        for w in words:
            assert mu.cylinder(w) == mu.cylinder(w + "0") + mu.cylinder(w + "1")
        for _ in range(1000):
            x, y, z = (rng.choice(words) for _ in range(3))
            depth = min(len(x), len(y), len(z))
            x, y, z = x[:depth], y[:depth], z[:depth]
            assert mu.ratio(x, y) * mu.ratio(y, z) == mu.ratio(x, z)
    assert time.monotonic() - start < MEASURE_BUDGET_S


def test_a2_single_step_postconditions(step_outputs):
    assert len(step_outputs) >= 11  # reference plus at least ten variants
    groups = {inp.f.model.name for _, inp, _, _ in step_outputs}
    assert groups == {"Z2", "Z3", "Z4", "S3", "Z^2"}
    assert any(inp.mu is not UNIFORM for _, inp, _, _ in step_outputs)
    for tag, inp, out, seconds in step_outputs:
        cover = covering_number(inp.f.model, inp.candidate, inp.u_index)
        assert out.delta == Fraction(1, 3 * cover.number), tag
        assert all(c.ok for c in out.certificates), tag
        assert all(c.ok for c in validate_step_output(
            inp, out).validator_certificates()), tag
        assert out.f_tilde.depth <= DEPTH_CAP, tag
        assert seconds < STEP_BUDGET_S, tag


def test_a3_witnesses_revalidate(step_outputs, flips_run, z3_run):
    checked = 0
    # fresh single-step outputs
    for tag, inp, out, _ in step_outputs:
        model = inp.f.model
        targets = target_set(model, inp.candidate, inp.u_index)
        check = validate_witness(out.f_tilde, inp.target, targets, out.delta,
                                 inp.mu, out.core, out.theta)
        assert check.ok, (tag, check.clause, check.detail)
        checked += 1
    # recursion rounds, replayed from the stored artifacts alone
    for report in (flips_run[0], z3_run):
        config = PipelineConfig.from_mapping(
            report.by_kind("header")[0]["config"])
        model = config.build_model()
        mu = config.build_measure()
        for rec in report.by_kind("round"):
            table = rec["artifacts"]["f"]
            f = StepFunction.from_table(
                model, {w: model.parse(v) for w, v in table.items()})
            theta = FiniteDepthMap.from_moves(f.depth, rec["witness"]["moves"])
            core = CylinderSet.of(rec["witness"]["core"])
            base = CylinderSet.of(rec["triple"]["base"])
            targets = target_set(model, model.parse(rec["triple"]["candidate"]),
                                 rec["triple"]["u_index"])
            check = validate_witness(f, base, targets,
                                     Fraction(rec["delta"]), mu, core, theta)
            assert check.ok, (rec["round"], check.clause, check.detail)
            checked += 1
    assert checked == len(step_outputs) + 12  # 100% of all rounds


def test_a4_recursion_invariants(flips_run):
    """Strict eps halving, the ledgers and the per-round conditions on the
    six-round flips run.  Its rounds cannot change an increment: a flip's
    increment can change only on the discard set, which is empty in every
    round here.  So this run drives the stabilization ledger and the
    distance rows only on no-op rounds, where change masses and distances
    are 0; the first run whose rounds change increments (two adding
    rounds) needs working depth 20, beyond DEPTH_CAP."""
    report, seconds = flips_run
    rounds = report.by_kind("round")
    assert len(rounds) == 6
    for r in rounds:
        cond = r["conditions"]
        assert cond["finite_values"] >= 1
        assert cond["inner"] and cond["incremental"]
        assert cond["agreement_ok"] and cond["distance_ok"]
        assert cond["evc_witness_ok"] and cond["evc_search"]["ok"]
        assert all(c["ok"] for c in r["validator"])
        assert r["working_depth"] <= DEPTH_CAP
    eps = [Fraction(r["eps"]) for r in rounds]
    assert all(b < a / 2 for a, b in zip(eps, eps[1:]))
    assert sum(eps) < 2 * eps[0]
    for rows in report.by_kind("stabilization")[0]["ledger"].values():
        assert all(row["ok"] for row in rows)
    bound = report.by_kind("boundedness")[0]
    assert bound["ok"]
    assert bound["closure"] == ["1"]  # range set {identity} u closure
    assert seconds < RUN_BUDGET_S


def test_a5_connectivity_ladder(flips_run, z3_run):
    for report, order in ((flips_run[0], 2), (z3_run, 3)):
        ladder = report.by_kind("ladder")[0]
        assert ladder["nonincreasing"]
        assert ladder["terminal_components"] == 1
        assert ladder["control_components"] == [order] * len(
            ladder["rung_depths"])
        assert ladder["control_constant"]


def test_a6_negative_controls(flips_run):
    # non-surjective increment subgroups leave the skew product
    # disconnected at the projected rung
    controls = [
        (StepFunction.from_table(Z4, {w: 2 * (w.count("1") % 2)
                                      for w in all_words(2)}), 2),
        (StepFunction.from_table(Z2, {w: 0 for w in all_words(2)}), 2),
        (StepFunction.from_table(S3, {"00": S3.identity(), "01": S3.parse("r"),
                                      "10": S3.parse("r2"),
                                      "11": S3.identity()}), 2),
    ]
    for potential, expected in controls:
        assert skew_connectivity(potential, 1) == expected
        assert expected > 1

    # tampered reports are rejected with the violated clause named
    report, _ = flips_run
    records = [copy.deepcopy(r) for r in report.records]
    rounds = [r for r in records if r["record"] == "round"]
    rounds[2]["eps"] = rounds[1]["eps"]
    failures = certify_report(records)
    assert any(f["clause"] == "eps_halving" for f in failures)

    records = [copy.deepcopy(r) for r in report.records]
    rounds = [r for r in records if r["record"] == "round"]
    table = rounds[-1]["artifacts"]["f"]
    word = sorted(table)[0]
    table[word] = "1" if table[word] == "0" else "0"
    failures = certify_report(records)
    assert failures and all(f["clause"] for f in failures)


def test_a7_norm_pipeline():
    start = time.monotonic()
    for rounds in (1, 2, 3):
        report = norm_bounded_pipeline(preset("sum-z", rounds=rounds))
        record = report.by_kind("norm_bounds")[0]
        assert record["ok"]
        assert record["sup_family_norm"] == "1"
        assert all(row["ok"] for row in record["per_generator"].values())
        assert Fraction(record["max_c"]) <= 1
    assert time.monotonic() - start < NORM_BUDGET_S


def test_a8_determinism(flips_run):
    first, _ = flips_run
    second = run_theorem_02i(preset("z2-flips"))
    assert first.text() == second.text()
    assert first.text().encode() == second.text().encode()
