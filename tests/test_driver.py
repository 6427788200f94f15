"""End-to-end recursion runs: frozen profiles, report certification,
checkpoint recovery, and exports.

The six-round flip cascade is the workhorse; its tolerance chain and
level cascade are pinned against closed forms computed here.
"""
import copy
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import sys
from fractions import Fraction

import pytest

import cocyclelab.cli as cli
import cocyclelab.driver as driver
import cocyclelab.evc as evc
import cocyclelab.stepper as stepper
from cocyclelab.cocycles import (PartialStepFunction, StepFunction,
                                 coboundary_increment, cocycle_distance,
                                 increment_agreement)
from cocyclelab.driver import (PRESETS, PipelineConfig, RunReport, Schedule,
                               bounded_cocycle_pipeline, certify_report,
                               export_report, load_report,
                               norm_bounded_pipeline, run_theorem_02i,
                               run_theorem_02ii)
from cocyclelab.errors import ConfigError, SearchExhausted
from cocyclelab.measure import CylinderSet
from cocyclelab.odometer import (FiniteDepthMap, GammaAction,
                                 adding_machine_action, flip_action)
from cocyclelab.stepper import construct_step


def preset(name: str, **overrides) -> PipelineConfig:
    raw = dict(PRESETS[name])
    raw.update(overrides)
    return PipelineConfig.from_mapping(raw)


def labels(action: GammaAction) -> list[str]:
    return [label for label, _ in action.generators]


def agreement_set(old, new, action: GammaAction) -> CylinderSet:
    """Where every generator's increment of `new` equals that of `old`:
    the intersection of the per-generator agreement sets."""
    agree = CylinderSet.full()
    for same in increment_agreement(old, new, action).values():
        agree = agree.intersection(same)
    return agree


@pytest.fixture(scope="module")
def flips_run():
    return run_theorem_02i(preset("z2-flips"))


class TestConfig:
    def test_mapping_round_trip(self):
        config = preset("z2-flips")
        again = PipelineConfig.from_mapping(config.to_mapping())
        assert again == config
        assert again.digest() == config.digest()

    def test_missing_key(self):
        raw = dict(PRESETS["z2-flips"])
        del raw["group"]
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping(raw)

    def test_digest_ignores_mapping_order(self):
        raw = dict(PRESETS["z2-flips"])
        reordered = dict(reversed(list(raw.items())))
        assert (PipelineConfig.from_mapping(raw).digest()
                == PipelineConfig.from_mapping(reordered).digest())

    def test_flip_stream_action_grows(self):
        config = preset("z2-flip-stream")
        assert config.enumerated
        assert labels(config.build_action(1)) == ["s1"]
        assert labels(config.build_action(3)) == ["s1", "s2", "s3"]

    def test_fixed_action_is_round_independent(self):
        config = preset("z2-flips")
        assert not config.enumerated
        assert config.build_action(1) == config.build_action(5)


class TestSchedule:
    @staticmethod
    def walk_oracle(triples, count):
        """Concatenated prefixes of growing width, capped at the full
        list, repeated forever."""
        out = []
        width = 1
        while len(out) < count:
            out.extend(triples[:width])
            width = min(width + 1, len(triples))
        return out[:count]

    def test_prefix_block_walk(self):
        schedule = Schedule.from_config(preset("z2-flips"))
        assert len(schedule.triples) == 3
        expected = self.walk_oracle(schedule.triples, 20)
        assert [schedule.round_triple(i) for i in range(20)] == expected

    def test_every_triple_recurs(self):
        # next_occurrence is strictly after the given round index
        schedule = Schedule.from_config(preset("z2-flips"))
        walk = self.walk_oracle(schedule.triples, 40)
        for triple in schedule.triples:
            for after in (0, 6, 11):
                assert (schedule.next_occurrence(triple, after)
                        == walk.index(triple, after + 1))

    def test_recurrence_record(self, flips_run):
        report = flips_run
        record = report.by_kind("recurrence")[0]
        assert record["executed"] == 6
        assert record["next_occurrence"] == {
            "(X, 1, U1)": 6, "(0, 1, U1)": 7, "(1, 1, U1)": 8}

    def test_triples_cover_all_combinations(self):
        schedule = Schedule.from_config(preset("z2-flip-stream"))
        labels = {t.label() for t in schedule.triples}
        assert labels == {"(X, 1, U1)", "(0, 1, U1)"}


class TestFlipCascade:
    def test_level_cascade(self, flips_run):
        report = flips_run
        rounds = report.by_kind("round")
        assert [r["refined_level"] for r in rounds] == [2, 3, 4, 5, 6, 7]
        assert [r["working_depth"] for r in rounds] == [3, 4, 5, 6, 7, 8]
        assert all(r["working_depth"] <= 14 for r in rounds)

    def test_eps_chain_closed_form(self, flips_run):
        # nothing binds except the previous tolerance, so each round
        # shrinks by exactly 7/16
        report = flips_run
        got = [Fraction(r["eps"]) for r in report.by_kind("round")]
        expected = [Fraction(1, 40) * Fraction(7, 16) ** k for k in range(6)]
        assert got == expected
        assert all(b < a / 2 for a, b in zip(got, got[1:]))
        assert sum(got) < 2 * got[0]

    def test_round_conditions(self, flips_run):
        report = flips_run
        for r in report.by_kind("round"):
            cond = r["conditions"]
            assert cond["inner"] and cond["incremental"]
            assert cond["agreement_ok"] and cond["distance_ok"]
            assert cond["evc_witness_ok"] and cond["evc_search"]["ok"]
            assert all(c["ok"] for c in r["validator"])

    def test_ladder_reaches_one(self, flips_run):
        report = flips_run
        ladder = report.by_kind("ladder")[0]
        assert ladder["rung_depths"] == list(range(1, 8))
        assert ladder["components"] == [1] * 7
        assert ladder["control_components"] == [2] * 7
        assert ladder["nonincreasing"] and ladder["control_constant"]
        assert ladder["terminal_components"] == 1
        assert report.by_kind("final")[0]["depth"] == ladder["kernel_depth"] == 8

    @pytest.mark.parametrize("budget,depths", [(32, [1, 2, 3, 4]), (3, [])])
    def test_ladder_stops_within_budget(self, flips_run, monkeypatch, budget,
                                        depths):
        whole = flips_run
        # Z2 gives 2^(d + 1) skew vertices at rung depth d
        monkeypatch.setattr(evc, "SKEW_BUDGET", budget)
        report = run_theorem_02i(preset("z2-flips"))
        ladder = report.by_kind("ladder")[0]
        assert ladder["rung_depths"] == depths
        assert (ladder["components"]
                == whole.by_kind("ladder")[0]["components"][:len(depths)])
        assert certify_report(report.records) == []

    def test_boundedness(self, flips_run):
        report = flips_run
        bound = report.by_kind("boundedness")[0]
        assert bound["ok"] and bound["closure"] == ["1"]
        assert set(bound["per_generator"]) == {"s1", "s2"}

    def test_stabilization_ledger(self, flips_run):
        report = flips_run
        ledger = report.by_kind("stabilization")[0]["ledger"]
        assert set(ledger) == {"s1", "s2"}
        for rows in ledger.values():
            assert [r["after_round"] for r in rows] == list(range(6))
            assert all(r["ok"] for r in rows)

    def test_distances(self, flips_run):
        report = flips_run
        rows = report.by_kind("distances")[0]["rows"]
        assert len(rows) == 6
        assert all(r["ok"] for r in rows)

    def test_final_record(self, flips_run):
        report = flips_run
        final = report.by_kind("final")[0]
        assert final["depth"] == 8
        assert final["halving_ok"]
        assert final["tail_bound"] == final["eps_history"][-1]
        assert len(final["eps_history"]) == 6

    def test_certify_clean(self, flips_run):
        report = flips_run
        assert certify_report(report.records) == []


class TestAddingRoundProfile:
    def test_frozen_numbers(self):
        # one full adding-machine round; the update genuinely moves the
        # increments, unlike the shallow-flip cascade
        report = run_theorem_02i(preset("z2-adding"))
        r = report.by_kind("round")[0]
        assert r["refined_level"] == 9
        assert r["working_depth"] == 10
        assert r["conditions"]["agreement"] == "2039/2048"
        assert r["conditions"]["distance"] == "27/16384"
        assert Fraction(r["artifacts"]["core_mass"]) == Fraction(127, 256)
        assert all(c["ok"] for c in r["validator"])
        ledger = report.by_kind("stabilization")[0]["ledger"]
        assert set(ledger) == {"T+T~"}
        assert certify_report(report.records) == []


# sha256 of the one-round z2-adding report at action depth D with depth
# budget D + 2, recorded before step functions became dense tables; the
# tables here are four and sixteen times the size of the preset's
DEEP_ADDING_SHA256 = {
    14: "cefea28846e02dd76999229b49a715062a63f9e8c15e27ef302518c0bfee40b1",
    16: "139fe3361929158151cc99038feab5af4abd70a60563640b59182dd248357e44",
}


@pytest.mark.parametrize("depth", sorted(DEEP_ADDING_SHA256))
def test_deep_adding_report_bytes(depth):
    config = preset("z2-adding", depth_budget=depth + 2,
                    action={"kind": "adding-machine", "depth": depth})
    report = run_theorem_02i(config)
    assert hashlib.sha256(report.text().encode()).hexdigest() == \
        DEEP_ADDING_SHA256[depth]
    assert certify_report(report.records) == []


class TestIncrementReuse:
    def test_each_increment_is_computed_once(self, monkeypatch):
        made = []
        check = PartialStepFunction.__post_init__

        def counting(self):
            # frames: this check, the dataclass __init__, its caller
            if sys._getframe(2).f_code.co_name == "coboundary_increment":
                made.append(self)
            check(self)

        monkeypatch.setattr(PartialStepFunction, "__post_init__", counting)
        report = run_theorem_02i(preset("z2-adding"))
        # (old, new) function x (T, T~)
        assert len(made) == 4
        made.clear()
        assert certify_report(report.records) == []
        assert len(made) == 4

    @pytest.mark.parametrize("name", ["z2-adding", "z2-flips"])
    def test_round_numbers_match_a_fresh_computation(self, name, monkeypatch):
        steps = []

        def recording(inp):
            out = construct_step(inp)
            steps.append((inp, out))
            return out

        def fresh(f):
            # a new instance carries no memoized increments
            return StepFunction(f.model, f.depth, f.values)

        monkeypatch.setattr(driver, "construct_step", recording)
        report = run_theorem_02i(preset(name))
        rounds = report.by_kind("round")
        assert len(rounds) == len(steps) == PRESETS[name]["rounds"]
        for rec, (inp, out) in zip(rounds, steps):
            old, new, action, mu = fresh(inp.f), fresh(out.f_tilde), inp.action, inp.mu
            agreement = agreement_set(old, new, action).measure(mu)
            dist = cocycle_distance(
                [coboundary_increment(old, g) for g in action.maps()],
                [coboundary_increment(new, g) for g in action.maps()], mu)
            assert rec["conditions"]["agreement"] == str(agreement)
            assert rec["conditions"]["distance"] == str(dist)
            change = {}
            for group in action.inverse_groups():
                sub = GammaAction("+".join(group), tuple(
                    (label, g) for label, g in action.generators if label in group))
                moved = agreement_set(old, new, sub).complement()
                change["+".join(group)] = str(moved.measure(mu))
            assert rec["artifacts"]["change_mass"] == change


class TestSingleCheck:
    @pytest.mark.parametrize("name,rounds", [("z2-flips", 6), ("z2-adding", 1)])
    def test_agreement_once_per_round(self, name, rounds, monkeypatch):
        calls = []
        real = stepper.increment_agreement

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(stepper, "increment_agreement", counting)
        report = run_theorem_02i(preset(name))
        assert len(calls) == rounds
        calls.clear()
        assert certify_report(report.records) == []
        assert len(calls) == rounds

    @pytest.mark.parametrize("name", ["z2-adding", "z2-flips"])
    def test_stored_validator_matches_certify(self, name, monkeypatch):
        replayed = []
        real = driver.validate_step_output

        def recording(inp, out):
            check = real(inp, out)
            replayed.append([{"clause": c.clause, "ok": c.ok, "detail": c.detail}
                             for c in check.validator_certificates()])
            return check

        report = run_theorem_02i(preset(name))
        monkeypatch.setattr(driver, "validate_step_output", recording)
        assert certify_report(report.records) == []
        stored = [r["validator"] for r in report.by_kind("round")]
        assert len(stored) == PRESETS[name]["rounds"]
        assert replayed == stored


class TestWitnessOnce:
    RUNNERS = {"z2-flips": run_theorem_02i, "z3-flips": run_theorem_02i,
               "z2-adding": run_theorem_02i,
               "z2-flip-stream": run_theorem_02ii}

    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_step_check_matches_validate_witness(self, name, monkeypatch):
        steps = []

        def recording(inp):
            out = construct_step(inp)
            steps.append((inp, out))
            return out

        monkeypatch.setattr(driver, "construct_step", recording)
        report = self.RUNNERS[name](preset(name))
        rounds = report.by_kind("round")
        assert len(rounds) == len(steps) == PRESETS[name]["rounds"]
        for rec, (inp, out) in zip(rounds, steps):
            targets = evc.target_set(out.f_tilde.model, inp.candidate,
                                     inp.u_index)
            oracle = evc.validate_witness(out.f_tilde, inp.target, targets,
                                          out.delta, inp.mu, out.core,
                                          out.theta)
            assert out.check.witness == oracle
            assert rec["conditions"]["evc_witness_ok"] == oracle.ok
            assert rec["witness"]["measure_slack"] == str(oracle.measure_slack)
            assert rec["witness"]["reserve"] == str(oracle.measure_slack / 4)

    @pytest.mark.parametrize("tamper", ["delta_zero", "delta_one",
                                        "identity_theta", "core_outside"])
    def test_failing_witness_agrees(self, tamper, monkeypatch):
        steps = []

        def recording(inp):
            out = construct_step(inp)
            steps.append((inp, out))
            return out

        monkeypatch.setattr(driver, "construct_step", recording)
        run_theorem_02i(preset("z2-flips", rounds=3))
        inp, out = steps[-1]
        assert not inp.target.is_full()
        art = stepper.StepArtifacts(out.f_tilde, out.theta, out.core, out.m,
                                    out.h, out.delta)
        art = dataclasses.replace(art, **{
            "delta_zero": {"delta": Fraction(0)},
            "delta_one": {"delta": Fraction(1)},
            "identity_theta": {
                "theta": FiniteDepthMap.identity(out.f_tilde.depth)},
            "core_outside": {"core": inp.target.complement()},
        }[tamper])
        targets = evc.target_set(art.f_tilde.model, inp.candidate, inp.u_index)
        oracle = evc.validate_witness(art.f_tilde, inp.target, targets,
                                      art.delta, inp.mu, art.core, art.theta)
        assert not oracle.ok
        check = stepper.validate_step_output(inp, art)
        assert check.witness == oracle and check.witness.ok is False

    def test_run_validates_in_the_step_check_and_the_search(self, monkeypatch):
        callers = []
        real = evc.validate_witness

        def counting(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args)

        monkeypatch.setattr(evc, "validate_witness", counting)
        monkeypatch.setattr(stepper, "validate_witness", counting)
        report = run_theorem_02i(preset("z2-flips"))
        rounds = PRESETS["z2-flips"]["rounds"]
        assert callers.count("validate_step_output") == rounds
        assert set(callers) == {"validate_step_output", "_search_witness"}
        callers.clear()
        # certify replays each round's step check, and searches nothing
        assert certify_report(report.records) == []
        assert callers == ["validate_step_output"] * rounds


@pytest.fixture(scope="module")
def stream_run():
    return run_theorem_02ii(preset("z2-flip-stream"))


class TestStreamRun:
    def test_gates(self):
        with pytest.raises(ConfigError):
            run_theorem_02ii(preset("z2-flips"))
        with pytest.raises(ConfigError):
            run_theorem_02i(preset("z2-flip-stream"))

    def test_value_bounds_per_generator(self, stream_run):
        report = stream_run
        record = report.by_kind("stream_bounds")[0]
        assert record["ok"]
        rows = record["rows"]
        assert [r["generator"] for r in rows] == ["s1", "s2", "s3", "s4"]
        assert all(r["k_size_bound_ok"] for r in rows)
        assert all(r["k_size"] <= r["f_values"] ** 2 for r in rows)

    def test_late_generators_see_changes(self, stream_run):
        # s3 and s4 reach coordinates modified in earlier rounds, so
        # their increments are nontrivial; realized values are listed as
        # group keys
        report = stream_run
        rows = report.by_kind("stream_bounds")[0]["rows"]
        by_gen = {r["generator"]: r["realized"] for r in rows}
        assert by_gen["s1"] == ["(0,)"] and by_gen["s2"] == ["(0,)"]
        assert by_gen["s3"] == ["(1,)"] and by_gen["s4"] == ["(1,)"]

    def test_certify_clean(self, stream_run):
        report = stream_run
        assert certify_report(report.records) == []


class TestGeneratorGroups:
    def test_adding_machine_pairs(self):
        groups = adding_machine_action(5).inverse_groups()
        assert groups == [("T", "T~")]

    def test_flips_stay_single(self):
        groups = flip_action((1, 2)).inverse_groups()
        assert groups == [("s1",), ("s2",)]


class TestZeroRounds:
    def test_trivial_terminal(self):
        config = preset("z2-flips", rounds=0)
        report = run_theorem_02i(config)
        final = report.by_kind("final")[0]
        assert final["eps_history"] == [] and final["level"] == 1
        f = driver._parse_table(config.build_model(), final["f"])
        assert set(f.value_set()) == {0}
        ladder = report.by_kind("ladder")[0]
        assert ladder["rung_depths"] == [1]
        assert ladder["components"] == [2]
        assert ladder["terminal_components"] == 2
        assert certify_report(report.records) == []


class TestDeterminism:
    def test_reports_byte_identical(self, flips_run):
        first = flips_run
        second = run_theorem_02i(preset("z2-flips"))
        assert first.text() == second.text()

    def test_header_digest_matches_config(self, flips_run):
        report = flips_run
        header = report.by_kind("header")[0]
        assert header["config_digest"] == preset("z2-flips").digest()


class TestCertifyTampering:
    @staticmethod
    def tampered(report: RunReport, mutate) -> list[dict]:
        records = [copy.deepcopy(r) for r in report.records]
        mutate(records)
        return certify_report(records)

    @staticmethod
    def clauses(failures):
        return {f["clause"] for f in failures}

    def test_eps_inflation(self, flips_run):
        report = flips_run
        def bump(records):
            rounds = [r for r in records if r["record"] == "round"]
            rounds[2]["eps"] = rounds[1]["eps"]
        assert "eps_halving" in self.clauses(self.tampered(report, bump))

    def test_function_table_forgery(self, flips_run):
        report = flips_run
        def flip_value(records):
            rounds = [r for r in records if r["record"] == "round"]
            table = rounds[-1]["artifacts"]["f"]
            word = sorted(table)[0]
            table[word] = "1" if table[word] == "0" else "0"
        failures = self.tampered(report, flip_value)
        assert failures
        assert self.clauses(failures) & {"inner", "agreement", "distance",
                                         "final", "evc-membership"}

    def test_core_padding(self, flips_run):
        report = flips_run
        def pad(records):
            rounds = [r for r in records if r["record"] == "round"]
            witness = rounds[0]["witness"]
            image = {img for _, img in witness["moves"]}
            extra = next(w for w in witness["core"] if w)
            witness["core"] = sorted(set(witness["core"]) | image | {extra})
        failures = self.tampered(report, pad)
        assert self.clauses(failures) & {"core_disjoint", "evc-part-inside",
                                         "validator"}

    def test_schedule_swap(self, flips_run):
        report = flips_run
        def swap(records):
            rounds = [r for r in records if r["record"] == "round"]
            rounds[0]["triple"]["u_index"] = 0
        assert "schedule" in self.clauses(self.tampered(report, swap))

    # forged values of the second round's fields that the step check
    # determines, or that the round's input, its update or the tolerance
    # rule does; certify recomputes each (a number in a path indexes a list)
    FORGED = {
        "conditions.agreement": "1/2",
        "conditions.agreement_ok": False,
        "conditions.distance": "1/3",
        "conditions.distance_ok": False,
        "conditions.evc_witness_ok": False,
        "conditions.inner": False,
        "conditions.incremental": False,
        "conditions.finite_values": 99,
        "witness.measure_slack": "9",
        "witness.reserve": "7",
        "artifacts.core_mass": "3",
        "artifacts.change_mass.s1": "1/2",
        "artifacts.z0": ["0"],
        "artifacts.b_set": ["1"],
        "eps_rule.min_reserve": "5",
        "eps": "1/100000",
        "eps_prime": "1/3",
        "level": 9,
        "working_depth": 5,
        "admission.ok": False,
        "validator.3.ok": False,
        "certificates.7.ok": False,
    }
    # the clause a forgery fails under, where it is not the forged path
    CLAUSE = {
        "artifacts.change_mass.s1": "artifacts.change_mass",
        "eps_rule.min_reserve": "eps_rule",
        "admission.ok": "admission",
        "validator.3.ok": "validator",
        "certificates.7.ok": "certificates.overflow_small",
    }

    @pytest.mark.parametrize("path", sorted(FORGED))
    def test_checked_round_field(self, path, flips_run):
        report = flips_run
        *sections, field = path.split(".")

        def forge(records):
            rec = [r for r in records if r["record"] == "round"][1]
            for section in sections:
                rec = rec[int(section)] if isinstance(rec, list) else rec[section]
            assert rec[field] != self.FORGED[path]
            rec[field] = self.FORGED[path]
        clause = self.CLAUSE.get(path, path)
        assert clause in self.clauses(self.tampered(report, forge))

    def test_working_depth_beyond_the_budget(self, flips_run):
        # the check reads the update's own depth, so a forged depth far
        # beyond the budget fails at once instead of building its tables
        report = flips_run
        def forge(records):
            next(r for r in records if r["record"] == "round")[
                "working_depth"] = 40
        assert self.clauses(self.tampered(report, forge)) == {"working_depth"}

    # on the adding machine the discard set is not empty; a forged z0 or
    # b_set fails even when its words are malformed
    @pytest.fixture(scope="class")
    def adding_report(self):
        return run_theorem_02i(preset("z2-adding"))

    @pytest.mark.parametrize("field,value", [
        ("z0", ["0"]), ("z0", ["z"]), ("b_set", ["1"]), ("b_set", ["1a"])])
    def test_adding_selection_and_discard(self, field, value, adding_report):
        def forge(records):
            rec = next(r for r in records if r["record"] == "round")
            assert rec["artifacts"][field] != value
            rec["artifacts"][field] = value
        failures = self.tampered(adding_report, forge)
        assert self.clauses(failures) == {f"artifacts.{field}"}

    # one forgery per record kind that certify rebuilds, keyed by kind and
    # forged field: (report, forgery of that record)
    REBUILT = {
        "header.closure": ("flips", lambda r: r["closure"].append("0")),
        "header.schedule": ("flips", lambda r: r["schedule"].pop()),
        "recurrence.executed": ("flips", lambda r: r.update(executed=99)),
        "boundedness.per_generator": (
            "flips", lambda r: r["per_generator"].update(s1=["0", "1"])),
        "ladder.nonincreasing": (
            "flips", lambda r: r.update(nonincreasing=False)),
        "ladder.terminal_components": (
            "flips", lambda r: r.update(terminal_components=7)),
        "stabilization.ledger": (
            "flips", lambda r: r["ledger"]["s1"][0].update(ok=False)),
        "final.eps_history": ("flips", lambda r: r["eps_history"].reverse()),
        "final.halving_ok": ("flips", lambda r: r.update(halving_ok=False)),
        "final.level": ("flips", lambda r: r.update(level=99)),
        "stream_bounds.ok": ("stream", lambda r: r.update(ok=False)),
        "distances.rows": (
            "flips", lambda r: r["rows"][0].update(distance="1/2")),
        "compact_range.rounds": ("bounded", lambda r: r.update(rounds=9)),
        "norm_bounds.max_c": ("norm", lambda r: r.update(max_c="9")),
    }

    @pytest.fixture(scope="class")
    def reports(self, flips_run, stream_run):
        return {"flips": flips_run.records, "stream": stream_run.records,
                "bounded": bounded_cocycle_pipeline(
                    preset("z2-flips", rounds=2)).records,
                "norm": norm_bounded_pipeline(preset("sum-z")).records}

    @pytest.mark.parametrize("path", sorted(REBUILT))
    def test_rebuilt_record(self, path, reports):
        kind, field = path.split(".")
        name, forge = self.REBUILT[path]
        records = [copy.deepcopy(r) for r in reports[name]]
        assert certify_report(records) == []
        forge(next(r for r in records if r["record"] == kind))
        failures = [f for f in certify_report(records) if f["clause"] == kind]
        assert [f["detail"] for f in failures] == [
            f"{field!r} differs from the rebuilt record"]

    @pytest.mark.parametrize("kind", ["ladder", "final", "distances"])
    def test_missing_record(self, kind, flips_run):
        report = flips_run
        records = [r for r in report.records if r["record"] != kind]
        failures = certify_report(records)
        assert {"clause": kind, "where": "report",
                "detail": "record missing"} in failures
        assert "records" in self.clauses(failures)

    def test_digest_mismatch(self, flips_run):
        report = flips_run
        def corrupt(records):
            records[0]["config_digest"] = "0" * 64
        assert "config_digest" in self.clauses(self.tampered(report, corrupt))


class TestCertifyCoverage:
    """Every record kind a pipeline writes is checked by certify: a round
    field by field (TestCertifyTampering.FORGED), a SEARCHED record not
    at all, and every other record by rebuilding it whole."""

    @pytest.mark.parametrize("command,name", [
        ("run", "z2-flips"), ("run-infinite", "z2-flip-stream"),
        ("bounded", "z2-flips"), ("norm-bounded", "sum-z")])
    def test_every_record_kind_is_rebuilt(self, command, name, tmp_path):
        out = str(tmp_path)
        assert cli.main([command, "--config", name, "--rounds", "2",
                         "--out", out]) == 0
        records = load_report(os.path.join(out, "report.jsonl"))
        assert certify_report(records) == []
        for i, rec in enumerate(records):
            kind = rec["record"]
            if kind == "round" or kind in driver.SEARCHED:
                continue
            forged = copy.deepcopy(records)
            forged[i]["unchecked"] = True
            failures = certify_report(forged)
            assert {"clause": kind, "where": "report",
                    "detail": "'unchecked' differs from the rebuilt record"
                    } in failures, kind


class TestCheckpoints:
    def test_fresh_run_writes_checkpoint(self, tmp_path):
        out = str(tmp_path)
        report = run_theorem_02i(preset("z2-flips", rounds=2), out_dir=out)
        assert os.path.exists(os.path.join(out, "checkpoint.json"))
        # on-disk records equal the in-memory ones up to JSON canonical form
        assert (load_report(os.path.join(out, "report.jsonl"))
                == [json.loads(line) for line in report.lines()])

    def test_resume_from_complete_checkpoint(self, tmp_path):
        out = str(tmp_path)
        config = preset("z2-flips", rounds=3)
        first = run_theorem_02i(config, out_dir=out)
        second = run_theorem_02i(config, out_dir=out, resume=True)
        assert first.text() == second.text()

    def test_resume_after_crash(self, tmp_path, monkeypatch):
        out_crash = str(tmp_path / "crash")
        out_full = str(tmp_path / "full")
        config = preset("z2-flips")
        full = run_theorem_02i(config, out_dir=out_full)

        calls = {"n": 0}
        real = driver.construct_step

        def bomb(inp):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("simulated crash")
            return real(inp)

        monkeypatch.setattr(driver, "construct_step", bomb)
        with pytest.raises(RuntimeError):
            run_theorem_02i(config, out_dir=out_crash)
        monkeypatch.setattr(driver, "construct_step", real)

        # the checkpoint's functions come back with empty increment and
        # witness memos, which must not change a report byte
        resumed = run_theorem_02i(config, out_dir=out_crash, resume=True)
        assert resumed.text() == full.text()

    @staticmethod
    def crash_after(monkeypatch, rounds, runner, config, out):
        """Run until the step of round `rounds` + 1 raises."""
        calls = {"n": 0}
        real = driver.construct_step

        def bomb(inp):
            calls["n"] += 1
            if calls["n"] > rounds:
                raise RuntimeError("simulated crash")
            return real(inp)

        monkeypatch.setattr(driver, "construct_step", bomb)
        with pytest.raises(RuntimeError):
            runner(config, out_dir=out)
        monkeypatch.setattr(driver, "construct_step", real)

    def test_stream_resume_after_crash(self, tmp_path, monkeypatch):
        config = preset("z2-flip-stream")
        full = run_theorem_02ii(config, out_dir=str(tmp_path / "full"))
        out = str(tmp_path / "crash")
        self.crash_after(monkeypatch, 2, run_theorem_02ii, config, out)

        steps = []
        real = driver.construct_step

        def counting(inp):
            steps.append(inp)
            return real(inp)

        monkeypatch.setattr(driver, "construct_step", counting)
        resumed = run_theorem_02ii(config, out_dir=out, resume=True)
        # only the rounds after the checkpoint run again
        assert len(steps) == config.rounds - 2
        assert resumed.text() == full.text()
        with open(os.path.join(out, "report.jsonl")) as fh:
            assert fh.read() == full.text()

    def test_checkpoint_holds_digest_and_records(self, tmp_path):
        out = str(tmp_path)
        config = preset("z2-flips", rounds=3)
        report = run_theorem_02i(config, out_dir=out)
        with open(os.path.join(out, "checkpoint.json")) as fh:
            payload = json.load(fh)
        # no function table, tolerance, reserve or change set beside the
        # records
        assert set(payload) == {"digest", "records"}
        assert payload["digest"] == config.digest()
        # the records as the report stores them, up to JSON canonical form
        assert payload["records"] == [
            json.loads(line) for line in report.lines()[:1 + config.rounds]]

    @staticmethod
    def change_sets(payload, config):
        """Each round's change sets, as earlier layouts stored them."""
        functions, _, _ = driver._replay_rounds(
            config, config.build_model(), payload["records"])
        stored = []
        for t in range(1, len(functions)):
            action = config.build_action(t)
            changes = driver._change_sets(action, increment_agreement(
                functions[t - 1], functions[t], action))
            stored.append({"+".join(k): list(v.words)
                           for k, v in changes.items()})
        return stored

    @staticmethod
    def parent_layout(payload, config):
        """The same checkpoint in the layout that stored every round's
        function, tolerance, reserve and state beside the records."""
        rounds = [r for r in payload["records"] if r["record"] == "round"]
        model = config.build_model()
        first = driver.initial_function(config, model)
        tables = [driver._function_table(first)]
        tables += [r["artifacts"]["f"] for r in rounds]
        return {
            "digest": payload["digest"],
            "round": len(rounds),
            "level": rounds[-1]["refined_level"],
            "records": payload["records"],
            "eps_history": [r["eps"] for r in rounds],
            "reserves": [r["witness"]["reserve"] for r in rounds],
            "functions": [{"depth": len(next(iter(t))), "table": t}
                          for t in tables],
            "states": [{"index": r["round"], "triple": r["triple"],
                        "eps": r["eps"],
                        "witness_slack": r["witness"]["measure_slack"],
                        "change_sets": changes}
                       for r, changes in zip(
                           rounds, TestCheckpoints.change_sets(payload, config))],
        }

    @pytest.mark.parametrize("damage", ["parent_layout", "change_sets_layout",
                                        "truncated"])
    def test_unreadable_checkpoint_restarts(self, damage, tmp_path,
                                            monkeypatch):
        config = preset("z2-flips", rounds=4)
        full = run_theorem_02i(config, out_dir=str(tmp_path / "full"))
        out = str(tmp_path / "crash")
        self.crash_after(monkeypatch, 2, run_theorem_02i, config, out)
        path = os.path.join(out, "checkpoint.json")
        with open(path) as fh:
            text = fh.read()
        if damage == "parent_layout":
            text = json.dumps(self.parent_layout(json.loads(text), config),
                              sort_keys=True)
        elif damage == "change_sets_layout":
            # the layout that kept each round's change sets beside the records
            payload = json.loads(text)
            payload["change_sets"] = self.change_sets(payload, config)
            text = json.dumps(payload, sort_keys=True)
        else:
            text = text[: len(text) // 2]
        with open(path, "w") as fh:
            fh.write(text)
        assert driver._load_checkpoint(config, out) is None
        resumed = run_theorem_02i(config, out_dir=out, resume=True)
        assert resumed.text() == full.text()

    def test_digest_mismatch_restarts(self, tmp_path):
        out = str(tmp_path)
        run_theorem_02i(preset("z2-flips", rounds=2), out_dir=out)
        report = run_theorem_02i(preset("z2-flips", rounds=3),
                                    out_dir=out, resume=True)
        assert len(report.by_kind("round")) == 3
        assert certify_report(report.records) == []


class TestBoundedPipelines:
    def test_compact_range(self):
        report = bounded_cocycle_pipeline(preset("z2-flips", rounds=2))
        record = report.by_kind("compact_range")[0]
        assert record["ok"]
        assert record["range_set"] == ["identity", "1"]
        assert record["rounds"] == 2

    def test_norm_bound_unit_family(self):
        report = norm_bounded_pipeline(preset("sum-z"))
        record = report.by_kind("norm_bounds")[0]
        assert record["ok"]
        assert record["sup_family_norm"] == "1"
        assert Fraction(record["max_c"]) <= 1

    def test_norm_bound_wide_family(self):
        report = norm_bounded_pipeline(preset("sum-z-wide"))
        record = report.by_kind("norm_bounds")[0]
        assert record["ok"]
        assert record["sup_family_norm"] == "5"


class TestEvcSearch:
    @staticmethod
    def counting(monkeypatch):
        """Count `_pair_search` calls per `check_evc`; each check is logged
        as (search key, outcome, searches made)."""
        searches, checks, potentials = [], [], []
        real_search, real_check = evc._pair_search, evc.check_evc
        signature = inspect.signature(real_check)

        def counting_search(*args):
            searches.append(args)
            return real_search(*args)

        def counting_check(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            f = a["f"]
            # the potential itself is kept alive by `potentials`, so its id
            # names it for the whole run
            key = (id(f), a["base"], tuple(f.model.key(t) for t in a["target"]),
                   Fraction(a["delta"]), a["mu"], a["search_depth"])
            potentials.append(f)
            before, outcome = len(searches), "exhausted"
            try:
                witness = real_check(*args, **kwargs)
                # only the identity fast path returns a map that moves nothing
                outcome = "pairs" if witness.theta.word_moves() else "identity"
                return witness
            finally:
                checks.append((key, outcome, len(searches) - before))

        monkeypatch.setattr(evc, "_pair_search", counting_search)
        monkeypatch.setattr(evc, "check_evc", counting_check)
        monkeypatch.setattr(driver, "check_evc", counting_check)
        return searches, checks

    @pytest.mark.parametrize("budget", [14, 18])
    def test_one_pair_search_per_check(self, budget, monkeypatch):
        _, checks = self.counting(monkeypatch)
        norm_bounded_pipeline(preset("sum-z", depth_budget=budget))
        # the unscheduled candidates 0/1 and 0/-1, on both bases
        assert [o for _, o, _ in checks].count("exhausted") == 4
        # one search per distinct key that passes the identity fast path,
        # none when a key comes back
        seen = set()
        for key, outcome, made in checks:
            assert made == (0 if outcome == "identity" or key in seen else 1)
            seen.add(key)
        # the last round's search is repeated by the terminal sweep
        assert len(seen) < len(checks)

    def test_adding_run_searches_once(self, monkeypatch):
        searches, checks = self.counting(monkeypatch)
        run_theorem_02i(preset("z2-adding"))
        # the round's search, and the terminal sweep's on the same potential
        assert [made for _, _, made in checks] == [1, 0]
        assert checks[0][0] == checks[1][0]
        assert len(searches) == 1

    def test_repeated_exhaustion_is_replayed(self, monkeypatch):
        config = preset("sum-z")
        final = run_theorem_02i(config).by_kind("final")[0]
        model, mu = config.build_model(), config.build_measure()
        f = driver._parse_table(model, final["f"])
        candidate = model.parse("0/1")
        delta, _ = evc.delta_for(model, candidate, 1)
        target = evc.target_set(model, candidate, 1)
        base = CylinderSet.full()

        def exhausted(potential, tolerance=delta):
            with pytest.raises(SearchExhausted) as caught:
                evc.check_evc(potential, base, target, tolerance, mu)
            return caught.value

        first = exhausted(f)
        searches, _ = self.counting(monkeypatch)
        again = exhausted(f)
        assert searches == []
        assert again is not first
        assert (str(again), again.best) == (str(first), first.best)
        assert "achieved_mass" in first.best
        # a copy of the function starts with an empty memo and searches
        fresh = exhausted(StepFunction(f.model, f.depth, f.values))
        assert len(searches) == 1
        assert (str(fresh), fresh.best) == (str(first), first.best)
        # another tolerance is another search
        tighter = exhausted(f, delta / 2)
        assert len(searches) == 2
        assert tighter.best["required_mass"] == str(delta / 2)

    def test_essential_values_do_not_depend_on_budget(self):
        records = [norm_bounded_pipeline(preset("sum-z", depth_budget=budget))
                   .by_kind("essential_values") for budget in (14, 18)]
        assert records[0] == records[1]


class TestExports:
    def test_export_files(self, tmp_path, flips_run):
        report = flips_run
        out = str(tmp_path)
        written = export_report(report.records, out)
        names = {os.path.basename(p) for p in written}
        assert "final_function.csv" in names
        assert "ladder.csv" in names
        assert "terminal_kernel.csv" in names
        assert {f"round_{i:02d}_core.csv" for i in range(1, 7)} <= names
        for path in written:
            assert os.path.exists(path)

    def test_final_function_csv_parses(self, tmp_path, flips_run):
        report = flips_run
        written = export_report(report.records, str(tmp_path))
        path = next(p for p in written
                    if p.endswith("final_function.csv"))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 ** 8
        assert {r["value"] for r in rows} <= {"0", "1"}
