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
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cocyclelab.cli as cli
import cocyclelab.driver as driver
import cocyclelab.evc as evc
import cocyclelab.stepper as stepper
from cocyclelab.cocycles import (PartialStepFunction, StepFunction,
                                 cocycle_distance, increment_agreement)
from cocyclelab.driver import (PRESETS, PipelineConfig, RunReport, Schedule,
                               bounded_cocycle_pipeline, certify_report,
                               export_report, load_report,
                               norm_bounded_pipeline, run_theorem_02i,
                               run_theorem_02ii)
from cocyclelab.errors import (CocycleLabError, ConfigError, MalformedInput,
                               SearchExhausted)
from cocyclelab.measure import CylinderSet, all_words
from cocyclelab.odometer import (FiniteDepthMap, Flip, GammaAction,
                                 adding_machine_action, flip_action,
                                 orbit_overflow)
from cocyclelab.stepper import construct_step
from word_oracles import covers


def preset(name: str, **overrides) -> PipelineConfig:
    raw = dict(PRESETS[name])
    raw.update(overrides)
    return PipelineConfig.from_mapping(raw)


def records_of(report: RunReport, kind: str) -> list[dict]:
    return [r for r in report.records if r["record"] == kind]


def labels(action: GammaAction) -> list[str]:
    return [g.label for g in action.generators]


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
        record = records_of(report, "recurrence")[0]
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
        rounds = records_of(report, "round")
        assert [r["refined_level"] for r in rounds] == [2, 3, 4, 5, 6, 7]
        assert [r["working_depth"] for r in rounds] == [3, 4, 5, 6, 7, 8]
        assert all(r["working_depth"] <= 14 for r in rounds)

    def test_eps_chain_closed_form(self, flips_run):
        # nothing binds except the previous tolerance, so each round
        # shrinks by exactly 7/16
        report = flips_run
        got = [Fraction(r["eps"]) for r in records_of(report, "round")]
        expected = [Fraction(1, 40) * Fraction(7, 16) ** k for k in range(6)]
        assert got == expected
        assert all(b < a / 2 for a, b in zip(got, got[1:]))
        assert sum(got) < 2 * got[0]

    def test_round_conditions(self, flips_run):
        report = flips_run
        for r in records_of(report, "round"):
            cond = r["conditions"]
            assert cond["inner"] and cond["incremental"]
            assert cond["agreement_ok"] and cond["distance_ok"]
            assert cond["evc_witness_ok"] and cond["evc_search"]["ok"]
            assert all(c["ok"] for c in r["validator"])

    def test_ladder_reaches_one(self, flips_run):
        report = flips_run
        ladder = records_of(report, "ladder")[0]
        assert ladder["rung_depths"] == list(range(1, 8))
        assert ladder["components"] == [1] * 7
        assert ladder["control_components"] == [2] * 7
        assert ladder["nonincreasing"] and ladder["control_constant"]
        assert ladder["terminal_components"] == 1
        assert records_of(report, "final")[0]["depth"] == ladder["kernel_depth"] == 8

    @pytest.mark.parametrize("budget,depths", [(32, [1, 2, 3, 4]), (3, [])])
    def test_ladder_stops_within_budget(self, flips_run, monkeypatch, budget,
                                        depths):
        whole = flips_run
        # Z2 gives 2^(d + 1) skew vertices at rung depth d
        monkeypatch.setattr(evc, "SKEW_BUDGET", budget)
        report = run_theorem_02i(preset("z2-flips"))
        ladder = records_of(report, "ladder")[0]
        assert ladder["rung_depths"] == depths
        assert (ladder["components"]
                == records_of(whole, "ladder")[0]["components"][:len(depths)])
        assert certify_report(report.records) == []

    def test_boundedness(self, flips_run):
        report = flips_run
        bound = records_of(report, "boundedness")[0]
        assert bound["ok"] and bound["closure"] == ["1"]
        assert set(bound["per_generator"]) == {"s1", "s2"}

    def test_stabilization_ledger(self, flips_run):
        report = flips_run
        ledger = records_of(report, "stabilization")[0]["ledger"]
        assert set(ledger) == {"s1", "s2"}
        for rows in ledger.values():
            assert [r["after_round"] for r in rows] == list(range(6))
            assert all(r["ok"] for r in rows)

    def test_distances(self, flips_run):
        report = flips_run
        rows = records_of(report, "distances")[0]["rows"]
        assert len(rows) == 6
        assert all(r["ok"] for r in rows)

    def test_final_record(self, flips_run):
        report = flips_run
        final = records_of(report, "final")[0]
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
        r = records_of(report, "round")[0]
        assert r["refined_level"] == 9
        assert r["working_depth"] == 10
        assert r["conditions"]["agreement"] == "2039/2048"
        assert r["conditions"]["distance"] == "27/16384"
        assert Fraction(r["artifacts"]["core_mass"]) == Fraction(127, 256)
        assert all(c["ok"] for c in r["validator"])
        ledger = records_of(report, "stabilization")[0]["ledger"]
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


def test_deep_adding_second_refinement():
    # round 1 of the two-round adding run (action depth 19, budget 20),
    # and the refinement level its round 2 chooses from that record
    config = preset("z2-adding", depth_budget=20,
                    action={"kind": "adding-machine", "depth": 19})
    [r] = records_of(run_theorem_02i(config), "round")
    assert (r["refined_level"], r["working_depth"], r["eps"]) == (9, 10, "1/40")
    assert r["witness"]["reserve"] == "125/3072"
    # the change set includes the truncated odometer's undefined
    # remainder, the words 1^19 and 0^19
    assert Fraction(r["artifacts"]["change_mass"]["T+T~"]) == \
        Fraction(1, 256) + 2 * Fraction(1, 2 ** 19)

    mu = config.mu
    triple = config.schedule.round_triple(1)
    eps, _ = driver.round_eps(config, triple, [r])
    assert eps == Fraction(7, 640)
    f = driver._parse_table(config.model, r["artifacts"]["f"])
    inp, _ = driver.round_input(config, 2, [r], f)
    assert (inp.n, inp.eps) == (9, eps)
    assert inp.threshold == Fraction(7, 1920)
    m = stepper.choose_refinement_depth(inp, r["working_depth"])
    assert m == 19

    # the level-m overflow of T and its inverse is the points whose first
    # m coordinates are all 1 or all 0; freeing the first 9 leaves
    # coordinates 10..m all 1 or all 0, of mass 2 * 2^(9 - m)
    def hull_mass(level: int) -> Fraction:
        return Fraction(2, 2 ** (level - 9))

    assert inp.hull(18).measure(mu) == hull_mass(18) == Fraction(1, 256)
    assert inp.hull(m).measure(mu) == hull_mass(19) == Fraction(1, 512)


# the paper's headline case: G = Z, acting values 1 and -1, over the
# truncated adding machine; no preset, so a config of its own
Z_ADDING = {
    "name": "z-adding",
    "group": {"kind": "free-abelian", "rank": 1},
    "measure": {"kind": "uniform"},
    "action": {"kind": "adding-machine", "depth": 12},
    "family": ["1", "-1"],
    "bases": [""],
    "u_indices": [0],
    "rounds": 1,
}


def test_integers_over_the_adding_machine():
    report = norm_bounded_pipeline(PipelineConfig.from_mapping(Z_ADDING))
    [r] = records_of(report, "round")
    assert (r["refined_level"], r["working_depth"], r["eps"]) == (9, 10, "1/40")
    assert r["artifacts"]["change_mass"] == {"T+T~": "9/2048"}
    per_generator = records_of(report, "boundedness")[0]["per_generator"]
    assert per_generator == {"T": ["-1", "0", "1"], "T~": ["-1", "0", "1"]}
    sweeps = records_of(report, "essential_values")[0]["sweeps"]
    assert [s["verdict"] for s in sweeps] == ["certified", "certified"]
    assert [e["mass"] for s in sweeps for e in s["entries"]] == \
        ["127/256", "127/256"]
    assert records_of(report, "norm_bounds")[0]["max_c"] == "1"
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
        rounds = records_of(report, "round")
        assert len(rounds) == len(steps) == PRESETS[name]["rounds"]
        for rec, (inp, out) in zip(rounds, steps):
            old, new, action, mu = fresh(inp.f), fresh(out.f_tilde), inp.action, inp.mu
            agreement = agreement_set(old, new, action).measure(mu)
            dist = cocycle_distance(increment_agreement(old, new, action), mu)
            assert rec["conditions"]["agreement"] == str(agreement)
            assert rec["conditions"]["distance"] == str(dist)
            change = {}
            for group in action.inverse_groups():
                sub = GammaAction(tuple(
                    g for g in action.generators if g.label in group))
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
            replayed.append([
                {"clause": clause, "ok": ok, "detail": detail}
                for clause, (ok, _, detail) in check.clauses.items()
                if detail is not None])
            return check

        report = run_theorem_02i(preset(name))
        monkeypatch.setattr(driver, "validate_step_output", recording)
        assert certify_report(report.records) == []
        stored = [r["validator"] for r in records_of(report, "round")]
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
        rounds = records_of(report, "round")
        assert len(rounds) == len(steps) == PRESETS[name]["rounds"]
        for rec, (inp, out) in zip(rounds, steps):
            targets = evc.target_set(out.f_tilde.model, inp.candidate,
                                     inp.u_index)
            oracle = evc.validate_witness(out.f_tilde, inp.target, targets,
                                          out.delta, inp.mu, out.check.core,
                                          out.theta)
            assert out.check.witness == oracle
            assert rec["conditions"]["evc_witness_ok"] == oracle.ok
            assert rec["witness"]["measure_slack"] == str(oracle.measure_slack)
            assert rec["witness"]["reserve"] == str(oracle.measure_slack / 4)

    @pytest.mark.parametrize("tamper", ["delta_zero", "delta_one",
                                        "identity_theta"])
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
        art = stepper.StepArtifacts(out.f_tilde, out.theta, out.m, out.delta)
        art = dataclasses.replace(art, **{
            "delta_zero": {"delta": Fraction(0)},
            "delta_one": {"delta": Fraction(1)},
            "identity_theta": {
                "theta": FiniteDepthMap.identity(out.f_tilde.depth)},
        }[tamper])
        check = stepper.validate_step_output(inp, art)
        targets = evc.target_set(art.f_tilde.model, inp.candidate, inp.u_index)
        oracle = evc.validate_witness(art.f_tilde, inp.target, targets,
                                      art.delta, inp.mu, check.core, art.theta)
        assert not oracle.ok
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
        record = records_of(report, "stream_bounds")[0]
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
        rows = records_of(report, "stream_bounds")[0]["rows"]
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
        final = records_of(report, "final")[0]
        assert final["eps_history"] == [] and final["level"] == 1
        f = driver._parse_table(config.model, final["f"])
        assert set(f.value_set()) == {0}
        ladder = records_of(report, "ladder")[0]
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
        header = records_of(report, "header")[0]
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
        assert "eps" in self.clauses(self.tampered(report, bump))

    @pytest.mark.parametrize("eps", ["0", "-1/2"])
    def test_nonpositive_eps(self, eps, flips_run):
        # certify replays the round under its rule's tolerance, so the
        # forged one fails under "eps" alone and does not raise
        def zero(records):
            records[2]["eps"] = eps
        failures = self.tampered(flips_run, zero)
        assert [(f["clause"], f["where"]) for f in failures
                if f["where"] == "round 2"] == [("eps", "round 2")]

    def test_norm_bounds_without_a_norm(self, flips_run, tmp_path, capsys):
        # no run over Z/2, which carries no norm, writes this record:
        # certify fails the report under the record's kind (exit 1), not
        # as a configuration problem (exit 2)
        path = tmp_path / "report.jsonl"
        path.write_text(flips_run.text() + '{"record":"norm_bounds","ok":true}\n')
        assert cli.main(["certify", str(path)]) == 1
        failures = [json.loads(line)
                    for line in capsys.readouterr().err.splitlines()]
        assert {"clause": "norm_bounds", "where": "report",
                "detail": "the group model carries no norm"} in failures

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

    def test_final_table_differs_from_the_last_round(self, flips_run):
        # the final record's table is the last round's, which certify
        # has checked; one label changed in the final record alone fails
        # under "final"
        def respell(records):
            table = next(r for r in records if r["record"] == "final")["f"]
            word = sorted(table)[0]
            table[word] = "1" if table[word] == "0" else "0"
        failures = self.tampered(flips_run, respell)
        assert failures == [{"clause": "final", "where": "report",
                             "detail": "'f' differs from the rebuilt record"}]

    def test_core_padding(self, flips_run):
        report = flips_run
        def pad(records):
            rounds = [r for r in records if r["record"] == "round"]
            witness = rounds[0]["witness"]
            image = {img for _, img in witness["moves"]}
            extra = next(w for w in witness["core"] if w)
            witness["core"] = sorted(set(witness["core"]) | image | {extra})
        # the core is rebuilt from z0 and the pairing, and compared
        failures = self.tampered(report, pad)
        assert [(f["clause"], f["where"]) for f in failures] == [
            ("witness.core", "round 1")]

    def test_schedule_swap(self, flips_run):
        report = flips_run
        def swap(records):
            rounds = [r for r in records if r["record"] == "round"]
            rounds[0]["triple"]["u_index"] = 0
        assert "triple" in self.clauses(self.tampered(report, swap))

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

    # forgeries of the second round's certificate list, which certify
    # checks for the step's clause order and for every verdict held:
    # (forgery of the list, the clause it fails under)
    CERTIFICATES = {
        "eps_prime-not-held": (lambda certs: certs[0].update(ok=False),
                               "certificates.eps_prime"),
        "construction-clauses-dropped": (lambda certs: certs.__delitem__(
            slice(0, 7)), "certificates"),
        "two-clauses-swapped": (lambda certs: certs.insert(1, certs.pop(0)),
                                "certificates"),
    }

    # forgeries of the second round's witness-search outcome, which
    # certify checks for its keys and for what its fields determine
    EVC_SEARCH = {
        "slack": lambda rec: rec.update(measure_slack="9"),
        "mass-beyond-the-base": lambda rec: rec.update(
            mass="2", measure_slack=str(Fraction(2) - Fraction(rec["mass"])
                                        + Fraction(rec["measure_slack"]))),
        # an equal fraction over a doubled numerator and denominator
        "mass-respelled": lambda rec: rec.update(mass="{}/{}".format(
            *(2 * n for n in Fraction(rec["mass"]).as_integer_ratio()))),
        "slack-respelled": lambda rec: rec.update(measure_slack="{}/{}".format(
            *(2 * n for n in Fraction(rec["measure_slack"]).as_integer_ratio()))),
        "found-with-a-failure": lambda rec: rec.update(failure="forged"),
        "failed-without-a-failure": lambda rec: rec.update(ok=False),
        "missing": lambda rec: rec.clear(),
    }

    @pytest.mark.parametrize("name", sorted(EVC_SEARCH))
    def test_evc_search_outcome(self, name, flips_run):
        def forge(records):
            rec = [r for r in records if r["record"] == "round"][1]
            assert rec["conditions"]["evc_search"]["ok"] is True
            self.EVC_SEARCH[name](rec["conditions"]["evc_search"])
        failures = self.tampered(flips_run, forge)
        assert self.clauses(failures) == {"conditions.evc_search"}

    @pytest.mark.parametrize("name", sorted(CERTIFICATES))
    def test_construction_certificates(self, name, flips_run):
        forge, clause = self.CERTIFICATES[name]
        def mutate(records):
            forge([r for r in records if r["record"] == "round"][1][
                "certificates"])
        assert clause in self.clauses(self.tampered(flips_run, mutate))

    @staticmethod
    def repair(records, differ):
        """Re-pair round 2's pairing: its first two pairs (a, b) and
        (c, d), a < b and c < d, whose lower words a and c satisfy
        `differ(round, a, c)`, become (a, d) and (c, b); the moves are
        stored in word order, as a run writes them."""
        rounds = [r for r in records if r["record"] == "round"]
        image = dict(rounds[1]["witness"]["moves"])
        pairs = [(a, b) for a, b in image.items() if a < b]
        (a, b), (c, d) = next((p, q) for p in pairs for q in pairs
                              if differ(rounds, p[0], q[0]))
        image.update({a: d, d: a, c: b, b: c})
        rounds[1]["witness"]["moves"] = [list(move)
                                         for move in sorted(image.items())]

    @staticmethod
    def masked(rounds, w):
        """Round 2's masked value of word w: round 1's label on round
        2's z0, None elsewhere."""
        table = rounds[0]["artifacts"]["f"]
        z0 = CylinderSet.of(rounds[1]["artifacts"]["z0"])
        return table[w[:len(next(iter(table)))]] if covers(z0, w) else None

    def test_pairing_across_masked_values(self, two_round_reports):
        # under the uniform measure a re-paired word keeps its mass, but
        # it moves across masked values; certify recomputes the pairing's
        # fingerprint clause instead of passing its stored text through
        records = two_round_reports["run"]

        def across(records):
            self.repair(records, lambda rounds, a, c: self.masked(rounds, a)
                        != self.masked(rounds, c))
        clauses = self.clauses(self.tampered(RunReport(tuple(records)), across))
        assert "certificates.transfer_fingerprint" in clauses
        assert "certificates.transfer_derivative" not in clauses

    def test_pairing_beyond_the_derivative_ledger(self):
        # under a schedule whose even coordinates weigh 1/3 and 2/3 a
        # re-paired word within its masked class doubles or halves its
        # mass, a derivative deviation far above 3 eps
        config = PipelineConfig.from_mapping({
            **PRESETS["z2-flips"], "name": "s3-flips", "rounds": 2,
            "group": {"kind": "symmetric", "n": 3}, "family": ["t01"],
            "measure": {"kind": "schedule",
                        "cycle": [["1/2", "1/2"], ["1/3", "2/3"]]}})
        report = run_theorem_02i(config)
        assert certify_report(report.records) == []

        def heavier(records):
            self.repair(records, lambda rounds, a, c: (
                self.masked(rounds, a) == self.masked(rounds, c)
                and config.mu.cylinder(a) != config.mu.cylinder(c)))
        clauses = self.clauses(self.tampered(report, heavier))
        assert "certificates.transfer_derivative" in clauses
        assert "certificates.transfer_fingerprint" not in clauses

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

    # forgeries of a round record into one that no run writes: (report,
    # index of the round, forgery of its record, the clause it fails under)
    ROUND_RECORD = {
        "adding-round-number": ("adding", 0, lambda r: r.update(round=5),
                                "round"),
        "flips-round-number": ("flips", 1, lambda r: r.update(round=1),
                               "round"),
        "conditions-key": ("flips", 1, lambda r: r["conditions"].update(
            unchecked=True), "conditions.unchecked"),
        "witness-key": ("flips", 1, lambda r: r["witness"].update(
            unchecked=True), "witness.unchecked"),
        "artifacts-key": ("adding", 0, lambda r: r["artifacts"].update(
            unchecked=True), "artifacts.unchecked"),
        "conjugate-spelling": ("adding", 0, lambda r: r.update(
            conjugate="0" + r["conjugate"]), "conjugate"),
    }

    # respellings of the second round's replayed artifacts that read back
    # as the same function, map and core, so every step check holds;
    # certify compares each with the run's rendering of what it holds
    def relabel(rec):
        table = rec["artifacts"]["f"]
        word = next(w for w in sorted(table) if table[w] == "1")
        table[word] = "01"

    def swap_moves(rec):
        moves = rec["witness"]["moves"]
        moves[0], moves[1] = moves[1], moves[0]

    def split_core_word(rec):
        core = rec["witness"]["core"]
        i = next(i for i, w in enumerate(core) if w)
        core[i:i + 1] = [core[i] + "0", core[i] + "1"]

    RESPELLED = {"artifacts.f": relabel, "witness.moves": swap_moves,
                 "witness.core": split_core_word}

    @pytest.mark.parametrize("clause", sorted(RESPELLED))
    def test_respelled_artifact(self, clause, flips_run):
        def forge(records):
            self.RESPELLED[clause]([r for r in records
                                    if r["record"] == "round"][1])
        failures = self.tampered(flips_run, forge)
        assert [(f["clause"], f["where"]) for f in failures] == [
            (clause, "round 2")]

    def test_listed_fixed_word(self, adding_report):
        # a word the map fixes, listed as moved to itself, leaves the map
        # as it was; the moves still ascend, but are one too many
        def forge(records):
            moves = [r for r in records if r["record"] == "round"][0][
                "witness"]["moves"]
            moved = {s for s, _ in moves}
            word = next(w for w in all_words(len(moves[0][0]))
                        if w not in moved)
            moves.append((word, word))
            moves.sort()
        failures = self.tampered(adding_report, forge)
        assert [(f["clause"], f["where"]) for f in failures] == [
            ("witness.moves", "round 1")]

    @pytest.mark.parametrize("name", sorted(ROUND_RECORD))
    def test_round_record_no_run_writes(self, name, flips_run, adding_report):
        report, index, forge, clause = self.ROUND_RECORD[name]
        run = {"adding": adding_report, "flips": flips_run}[report]
        def mutate(records):
            forge([r for r in records if r["record"] == "round"][index])
        assert self.clauses(self.tampered(run, mutate)) == {clause}

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

    # forgeries that keep a field equal under Python's == but change its
    # JSON type: (record kind, index among the records of that kind, path,
    # the forged value's type, the clause it fails under)
    RETYPED = {
        "round-inner": ("round", 1, "conditions.inner", int,
                        "conditions.inner"),
        "round-finite-values": ("round", 1, "conditions.finite_values", float,
                                "conditions.finite_values"),
        "round-level": ("round", 1, "level", float, "level"),
        "round-validator-ok": ("round", 1, "validator.0.ok", int,
                               "validator.delta_consistency"),
        "boundedness-ok": ("boundedness", 0, "ok", int, "boundedness"),
        "ladder-terminal-components": ("ladder", 0, "terminal_components",
                                       float, "ladder"),
    }

    @pytest.mark.parametrize("name", sorted(RETYPED))
    def test_retyped_field(self, name, flips_run):
        kind, index, path, retype, clause = self.RETYPED[name]
        *sections, field = path.split(".")

        def forge(records):
            rec = [r for r in records if r["record"] == kind][index]
            for section in sections:
                rec = rec[int(section)] if isinstance(rec, list) else rec[section]
            assert type(rec[field]) is not retype
            rec[field] = retype(rec[field])
        failures = self.tampered(flips_run, forge)
        assert clause in self.clauses(failures)

    def test_loader_reads_no_float(self, flips_run, tmp_path):
        # no run writes a float; a report line that holds one is malformed
        path = tmp_path / "report.jsonl"
        path.write_text(flips_run.text().replace(
            '"finite_values":2,', '"finite_values":2.0,', 1))
        with pytest.raises(MalformedInput, match="no floats, and 2.0"):
            load_report(str(path))

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

    def test_nothing_is_rebuilt_from_a_config_off_its_digest(self, flips_run):
        # a config that no longer matches its digest is not read, so one
        # that would not even parse fails under config_digest alone
        def corrupt(records):
            records[0]["config"]["measure"]["kind"] = "0uniform"
        assert self.tampered(flips_run, corrupt) == [
            {"clause": "config_digest", "where": "header",
             "detail": "config does not match its digest"}]

    def test_missing_section(self, flips_run):
        # a round without its conditions names each of their fields
        def drop(records):
            del [r for r in records if r["record"] == "round"][1]["conditions"]
        failures = self.tampered(flips_run, drop)
        assert {(f["clause"], f["where"]) for f in failures} == {
            (f"conditions.{field}", "round 2") for field in (
                "agreement", "agreement_ok", "distance", "distance_ok",
                "evc_search", "evc_witness_ok", "finite_values",
                "incremental", "inner")}

    def test_core_is_the_part_of_z0_moved_up(self, flips_run):
        # the core with one word's last letter flipped passes every
        # witness clause, but is not the part of z0 that the pairing
        # moves up, which the step takes
        def flip(records):
            core = [r for r in records if r["record"] == "round"][1][
                "witness"]["core"]
            core[0] = core[0][:-1] + "10"[int(core[0][-1])]
        failures = self.tampered(flips_run, flip)
        assert [(f["clause"], f["where"]) for f in failures] == [
            ("witness.core", "round 2")]

    @pytest.fixture(scope="class")
    def conjugate_reports(self):
        return {"run": run_theorem_02i(preset("z3-flips", rounds=2)),
                "norm-bounded": norm_bounded_pipeline(
                    preset("sum-z", rounds=2))}

    @pytest.mark.parametrize("command", ["run", "norm-bounded"])
    @pytest.mark.parametrize("index", [0, 1])
    def test_forged_conjugate(self, command, index, conjugate_reports):
        # the conjugate is the step input's selection, which certify
        # rebuilds: another member of the closure fails under "conjugate"
        def forge(records):
            closure = records[0]["closure"]
            rec = [r for r in records if r["record"] == "round"][index]
            rec["conjugate"] = next(h for h in closure
                                    if h != rec["conjugate"])
        failures = self.tampered(conjugate_reports[command], forge)
        assert [(f["clause"], f["where"]) for f in failures] == [
            ("conjugate", f"round {index + 1}")]


# a two-round report of each pipeline on its preset
PIPELINES = [("run", "z2-flips"), ("run-infinite", "z2-flip-stream"),
             ("bounded", "z2-flips"), ("norm-bounded", "sum-z")]


@pytest.fixture(scope="module")
def two_round_reports(tmp_path_factory):
    reports = {}
    for command, name in PIPELINES:
        out = str(tmp_path_factory.mktemp(command))
        assert cli.main([command, "--config", name, "--rounds", "2",
                         "--out", out]) == 0
        reports[command] = load_report(os.path.join(out, "report.jsonl"))
    return reports


class TestCertifyCoverage:
    """Every record kind a pipeline writes is checked by certify: a round
    field by field (TestCertifyTampering.FORGED), with any key a run does
    not write failing, a SEARCHED record not at all, and every other
    record by rebuilding it whole."""

    @pytest.mark.parametrize("command,name", PIPELINES)
    def test_every_record_kind_is_rebuilt(self, command, name,
                                          two_round_reports):
        records = two_round_reports[command]
        assert certify_report(records) == []
        for i, rec in enumerate(records):
            kind = rec["record"]
            if kind in driver.SEARCHED:
                continue
            forged = copy.deepcopy(records)
            forged[i]["unchecked"] = True
            failures = certify_report(forged)
            assert ({"clause": "unchecked", "where": f"round {rec['round']}",
                     "detail": "not a field of a round record"}
                    if kind == "round" else
                    {"clause": kind, "where": "report",
                     "detail": "'unchecked' differs from the rebuilt record"}
                    ) in failures, kind


class TestLeafFalsification:
    """Each leaf of each record of a two-round report, changed alone,
    fails certify with a named clause, except the changes in UNCHECKED,
    which README's "Left unchecked" list names as well.  A fraction gets
    1/7 added, a boolean is flipped, an integer gets 1 added, a group
    label is respelled as the same element, a word or other text gets a
    leading "0", a word also its last letter flipped, and a null becomes
    1/7.  Besides, a boolean is set to its integer and an integer to its
    float, which equal them in Python; a round certificate's or validator
    entry's ``ok`` set to 1 must fail under that certificate's clause, and
    so must a certificate's changed detail, since certify rebuilds every
    certificate.  A table of more than 12 entries that are not objects is
    sampled at its first, middle and last entry."""

    UNCHECKED = {
        "essential_values": "the SEARCHED record: rebuilding it would "
                            "rerun its witness searches",
        "conditions.evc_search.failure": "an exhausted search's text "
                                         "needs the search",
        "<field>.<number inside>": "a number's JSON type inside a field "
                                   "(a ledger row's ok: 1): typing every "
                                   "node costs 4-8 % of certify",
    }
    WORDS = {"base", "bases", "core", "moves", "z0", "b_set"}
    LABELS = {"f", "conjugate", "candidate", "family", "closure"}
    FRACTION = re.compile(r"-?[0-9]+(/[0-9]+)?")

    @classmethod
    def leaves(cls, node, path=()):
        """(path, container, key) of each leaf to change."""
        items = list(node.items() if isinstance(node, dict) else enumerate(node))
        if path and len(items) > 12 and not any(
                isinstance(v, dict) for _, v in items):
            items = [items[0], items[len(items) // 2], items[-1]]
        for key, value in items:
            if isinstance(value, (dict, list)):
                yield from cls.leaves(value, path + (key,))
            else:
                yield path + (key,), node, key

    @classmethod
    def changes(cls, path, value):
        """The changed values of a leaf."""
        keys = {k for k in path if isinstance(k, str)}
        if value is None:
            return ["1/7"]
        if type(value) is bool:
            return [not value, int(value)]
        if type(value) is int:
            return [value + 1, float(value)]
        if keys & cls.WORDS:
            return ["0" + value] + ([value[:-1] + "10"[int(value[-1])]]
                                    if value else [])
        if keys & cls.LABELS:
            sign = "-" if value.startswith("-") else ""
            return [sign + "0" + value[len(sign):]]
        if cls.FRACTION.fullmatch(value):
            return [str(Fraction(value) + Fraction(1, 7))]
        return ["0" + value]

    @staticmethod
    def unchecked(record, path, value, changed):
        """The UNCHECKED entry a change falls under, or None."""
        kind = record["record"]
        sectioned = kind == "round" and path[0] in (
            "conditions", "witness", "artifacts", "certificates")
        if kind == "essential_values":
            return "essential_values"
        if path == ("conditions", "evc_search", "failure"):
            return "conditions.evc_search.failure"
        if (changed == value and len(path) > 1 + sectioned
                and TestLeafFalsification.entry_clause(record, path) is None):
            return "<field>.<number inside>"
        return None

    @staticmethod
    def entry_clause(record, path):
        """The clause a round's certificate or validator entry fails under
        when its ``ok`` changes, or a certificate when its detail does;
        None for any other leaf.  Certify requires each entry to be
        stored as ``true`` itself, not as ``1``, and rebuilds every
        certificate."""
        if record["record"] != "round" or not (
                path[0] in ("certificates", "validator") and path[-1] == "ok"
                or path[0] == "certificates" and path[-1] == "detail"):
            return None
        return f"{path[0]}.{record[path[0]][path[1]]['clause']}"

    @pytest.mark.parametrize("command,name", PIPELINES)
    def test_every_leaf(self, command, name, two_round_reports):
        records = copy.deepcopy(two_round_reports[command])
        passed, excluded = [], set()
        for index, record in enumerate(records):
            for path, node, key in list(self.leaves(record)):
                value = node[key]
                for changed in self.changes(path, value):
                    reason = self.unchecked(record, path, value, changed)
                    if reason is not None:
                        excluded.add(reason)
                        continue
                    node[key] = changed
                    try:
                        failures = certify_report(records)
                    except CocycleLabError as exc:
                        failures = [exc.record()]
                    node[key] = value
                    clauses = {f.get("clause") for f in failures}
                    if not failures or "clause" not in failures[0] or (
                            self.entry_clause(record, path) not in clauses | {None}):
                        passed.append((index, path, changed, failures))
        assert passed == []
        assert excluded <= set(self.UNCHECKED)
        assert records == two_round_reports[command]

    def test_exclusions_are_readmes(self):
        # README's "Left unchecked" list: one bullet per entry, its name
        # in backquotes first
        text = (Path(__file__).parents[1] / "README.md").read_text()
        listed = text.split("Left unchecked", 1)[1].split("\n\n", 1)[0]
        names = re.findall(r"^ *- `([^`]+)`", listed, re.MULTILINE)
        assert sorted(names) == sorted(self.UNCHECKED)


class TestCheckpoints:
    """With --out, a run appends each record to `checkpoint.json` as it
    is built, so the checkpoint is always the report's first lines, and
    the finished checkpoint is renamed `report.jsonl`."""

    def test_fresh_run_writes_checkpoint(self, tmp_path, monkeypatch):
        out = str(tmp_path)
        path = os.path.join(out, "checkpoint.json")
        real = driver._save_checkpoint
        sizes, snapshots = [], []

        def saving(record, out_dir):
            sizes.append(os.path.getsize(path))
            real(record, out_dir)
            with open(path) as fh:
                snapshots.append(fh.read())

        monkeypatch.setattr(driver, "_save_checkpoint", saving)
        report = run_theorem_02i(preset("z2-flips"), out_dir=out)
        lines = report.text().splitlines(keepends=True)
        # after k calls the checkpoint is the report's first k lines
        assert snapshots == ["".join(lines[:k])
                             for k in range(1, len(lines) + 1)]
        # each record is written once: the run starts from an empty file,
        # and the bytes appended add up to the report (49,416 B), not to
        # a rewrite of every record after every round
        assert sizes[0] == 0
        with open(os.path.join(out, "report.jsonl"), "rb") as fh:
            assert fh.read() == report.text().encode()

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

    @staticmethod
    def resume_counting(monkeypatch, runner, config, out):
        """Resume the run in `out`; returns its report and the number of
        construction steps it ran."""
        steps = []
        real = driver.construct_step

        def counting(inp):
            steps.append(inp)
            return real(inp)

        monkeypatch.setattr(driver, "construct_step", counting)
        report = runner(config, out_dir=out, resume=True)
        monkeypatch.setattr(driver, "construct_step", real)
        return report, len(steps)

    def test_stream_resume_after_crash(self, tmp_path, monkeypatch):
        config = preset("z2-flip-stream")
        full = run_theorem_02ii(config, out_dir=str(tmp_path / "full"))
        out = str(tmp_path / "crash")
        self.crash_after(monkeypatch, 2, run_theorem_02ii, config, out)

        resumed, steps = self.resume_counting(monkeypatch, run_theorem_02ii,
                                              config, out)
        # only the rounds after the checkpoint run again
        assert steps == config.rounds - 2
        assert resumed.text() == full.text()
        with open(os.path.join(out, "report.jsonl")) as fh:
            assert fh.read() == full.text()

    def test_checkpoint_holds_digest_and_records(self, tmp_path,
                                                 monkeypatch):
        config = preset("z2-flips", rounds=4)
        full = run_theorem_02i(config, out_dir=str(tmp_path / "full"))
        out = str(tmp_path / "crash")
        self.crash_after(monkeypatch, 3, run_theorem_02i, config, out)
        with open(os.path.join(out, "checkpoint.json")) as fh:
            text = fh.read()
        # byte for byte the finished report's header and first three
        # rounds, the header carrying the config digest
        assert text == "".join(full.text().splitlines(keepends=True)[:4])
        assert json.loads(text.splitlines()[0])["config_digest"] \
            == config.digest()
        assert sorted(os.listdir(out)) == ["checkpoint.json"]

    def test_torn_line_resumes_missing_rounds(self, tmp_path, monkeypatch):
        config = preset("z2-flips", rounds=4)
        full = run_theorem_02i(config, out_dir=str(tmp_path / "full"))
        out = str(tmp_path / "crash")
        self.crash_after(monkeypatch, 3, run_theorem_02i, config, out)
        path = os.path.join(out, "checkpoint.json")
        with open(path) as fh:
            lines = fh.readlines()
        # round 3's line cut short, as by a crash inside its write
        with open(path, "w") as fh:
            fh.writelines(lines[:3] + [lines[3][:len(lines[3]) // 2]])

        saved = []
        real = driver._save_checkpoint

        def saving(record, out_dir):
            if not saved:
                # the kept prefix was rewritten without the torn line
                with open(path) as fh:
                    saved.append(fh.read() == "".join(lines[:3]))
            real(record, out_dir)

        monkeypatch.setattr(driver, "_save_checkpoint", saving)
        resumed, steps = self.resume_counting(monkeypatch, run_theorem_02i,
                                              config, out)
        assert saved == [True]
        assert steps == 2
        assert resumed.text() == full.text()
        with open(os.path.join(out, "report.jsonl")) as fh:
            assert fh.read() == full.text()

    def test_crash_in_terminal_records_resumes_without_rounds(
            self, tmp_path, monkeypatch):
        config = preset("z2-flips", rounds=3)
        full = run_theorem_02i(config, out_dir=str(tmp_path / "full"))
        out = str(tmp_path / "crash")
        real = driver._terminal_records

        def bomb(*args):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(driver, "_terminal_records", bomb)
        with pytest.raises(RuntimeError):
            run_theorem_02i(config, out_dir=out)
        monkeypatch.setattr(driver, "_terminal_records", real)
        resumed, steps = self.resume_counting(monkeypatch, run_theorem_02i,
                                              config, out)
        assert steps == 0
        assert resumed.text() == full.text()

    def test_resume_of_finished_run_runs_no_step(self, tmp_path,
                                                 monkeypatch):
        out = str(tmp_path)
        config = preset("z2-flip-stream", rounds=3)
        first = run_theorem_02ii(config, out_dir=out)
        resumed, steps = self.resume_counting(monkeypatch, run_theorem_02ii,
                                              config, out)
        assert steps == 0
        assert resumed.text() == first.text()
        assert os.listdir(out) == ["report.jsonl"]

    @pytest.mark.parametrize("pipeline", [
        run_theorem_02i, bounded_cocycle_pipeline, norm_bounded_pipeline])
    def test_finished_directory_holds_only_report(self, pipeline, tmp_path):
        out = str(tmp_path / "out")
        report = pipeline(preset("sum-z", rounds=2), out_dir=out)
        assert os.listdir(out) == ["report.jsonl"]
        with open(os.path.join(out, "report.jsonl")) as fh:
            assert fh.read() == report.text()

    @staticmethod
    def change_sets(payload, config):
        """Each round's change sets, as earlier layouts stored them."""
        rounds = [r for r in payload["records"] if r["record"] == "round"]
        functions = driver._replay_rounds(config, rounds)
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
        first = driver.initial_function(config)
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
                                        "truncated", "records_layout",
                                        "binary"])
    def test_unreadable_checkpoint_restarts(self, damage, tmp_path,
                                            monkeypatch):
        """Earlier layouts and bytes that do not parse restart the run; a
        cut checkpoint resumes from its complete lines."""
        config = preset("z2-flips", rounds=4)
        full = run_theorem_02i(config, out_dir=str(tmp_path / "full"))
        out = str(tmp_path / "crash")
        self.crash_after(monkeypatch, 2, run_theorem_02i, config, out)
        path = os.path.join(out, "checkpoint.json")
        with open(path) as fh:
            text = fh.read()
        # the layout that stored the config digest and the records
        payload = {"digest": config.digest(),
                   "records": [json.loads(line) for line in text.splitlines()]}
        rounds_kept = 0
        if damage == "parent_layout":
            text = json.dumps(self.parent_layout(payload, config),
                              sort_keys=True)
        elif damage == "change_sets_layout":
            # the layout that kept each round's change sets beside the records
            payload["change_sets"] = self.change_sets(payload, config)
            text = json.dumps(payload, sort_keys=True)
        elif damage == "records_layout":
            text = json.dumps(payload, sort_keys=True) + "\n"
        elif damage == "binary":
            text = "\udcff\udcfe" + text
        else:
            # inside round 2's line: the header and round 1 are kept
            text = text[: 3 * len(text) // 4]
            rounds_kept = 1
        with open(path, "w", errors="surrogateescape") as fh:
            fh.write(text)
        resumed, steps = self.resume_counting(monkeypatch, run_theorem_02i,
                                              config, out)
        assert steps == config.rounds - rounds_kept
        assert resumed.text() == full.text()

    def test_digest_mismatch_restarts(self, tmp_path):
        out = str(tmp_path)
        run_theorem_02i(preset("z2-flips", rounds=2), out_dir=out)
        report = run_theorem_02i(preset("z2-flips", rounds=3),
                                    out_dir=out, resume=True)
        assert len(records_of(report, "round")) == 3
        assert certify_report(report.records) == []


class TestBoundedPipelines:
    def test_compact_range(self):
        report = bounded_cocycle_pipeline(preset("z2-flips", rounds=2))
        record = records_of(report, "compact_range")[0]
        assert record["ok"]
        assert record["range_set"] == ["identity", "1"]
        assert record["rounds"] == 2

    def test_norm_bound_unit_family(self):
        report = norm_bounded_pipeline(preset("sum-z"))
        record = records_of(report, "norm_bounds")[0]
        assert record["ok"]
        assert record["sup_family_norm"] == "1"
        assert Fraction(record["max_c"]) <= 1

    def test_norm_bound_wide_family(self):
        report = norm_bounded_pipeline(preset("sum-z-wide"))
        record = records_of(report, "norm_bounds")[0]
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
        final = records_of(run_theorem_02i(config), "final")[0]
        model, mu = config.model, config.mu
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
        records = [records_of(norm_bounded_pipeline(preset(
            "sum-z", depth_budget=budget)), "essential_values")
            for budget in (14, 18)]
        assert records[0] == records[1]


class TestComputedOnce:
    """What the config builds (its group model, schedule and actions)
    and what a step's data fixes (the action's distortion sum) is
    computed once: per command, one model, one schedule, one distortion
    sum per round and one distortion per generator."""

    def test_counts_per_command(self, tmp_path, monkeypatch):
        counts = {"distortion": 0, "generator_distortion": 0, "model": 0,
                  "schedule": 0}

        def count(owner, name, key, wrap=lambda fn: fn):
            real = getattr(owner, name)

            def counting(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrap(counting))

        count(GammaAction, "max_distortion_sum", "distortion")
        count(Flip, "distortion", "generator_distortion")
        count(driver, "model_from_config", "model")
        count(Schedule, "from_config", "schedule", staticmethod)
        out = str(tmp_path)
        for argv in (["run", "--config", "z2-flips", "--out", out],
                     ["certify", os.path.join(out, "report.jsonl")]):
            counts.update(dict.fromkeys(counts, 0))
            assert cli.main(argv) == 0
            # the rounds share one action, which keeps its sum: each of
            # its two flips' distortions is computed once
            assert counts == {"distortion": 6, "generator_distortion": 2,
                              "model": 1, "schedule": 1}, argv

    def test_one_instance_per_equal_action(self):
        flips = PipelineConfig.from_mapping(PRESETS["z2-flips"])
        action = flips.build_action(1)
        assert flips.build_action(3) is action and flips.build_action() is action
        stream = PipelineConfig.from_mapping(PRESETS["z2-flip-stream"])
        assert stream.build_action(2) is stream.build_action(2)
        assert stream.build_action(2) is not stream.build_action(3)
        assert stream.build_action() is stream.build_action(stream.rounds)
        # what the action keeps: its distortion sum and its overflows
        assert action.max_distortion_sum(flips.mu) is \
            action.max_distortion_sum(flips.mu)
        assert orbit_overflow(action, 1) is orbit_overflow(action, 1)
        assert orbit_overflow(action, 3) is orbit_overflow(action, 3)


class TestEssentialValueSweep:
    """The terminal sweep: per candidate, one witness search on the final
    potential for each neighborhood and nonempty base, at 1/(3 covering
    number); the verdict is certified only if every search succeeds."""

    def test_certified_sweep(self):
        config = preset("z2-flips", u_indices=[0, 1])
        report = run_theorem_02i(config)
        model, mu = config.model, config.mu
        f = driver._parse_table(model, records_of(report, "final")[0]["f"])
        [sweep] = records_of(report, "essential_values")[0]["sweeps"]
        assert sweep["candidate"] == "1" and sweep["verdict"] == "certified"
        # neighborhoods outside, bases inside; U0 is the whole group
        assert [(e["u_index"], e["base"], e["delta"]) for e in sweep["entries"]] \
            == [(k, base, "1/3") for k in (0, 1) for base in ([""], ["0"], ["1"])]
        for entry in sweep["entries"]:
            k, base = entry["u_index"], CylinderSet.of(entry["base"])
            witness = evc.check_evc(f, base, evc.target_set(model, 1, k),
                                    Fraction(1, 3), mu, config.depth_budget)
            assert entry["ok"] is True
            assert entry["mass"] == str(witness.part.measure(mu))

    def test_inconclusive_sweep(self):
        # the constant identity has no kernel value 1, and the empty base
        # gets no entry
        report = run_theorem_02i(preset("z2-flips", rounds=0,
                                        bases=["", []]))
        [sweep] = records_of(report, "essential_values")[0]["sweeps"]
        assert sweep == {"candidate": "1", "verdict": "inconclusive",
                         "entries": [{"base": [""], "u_index": 1,
                                      "delta": "1/3", "ok": False,
                                      "mass": None}]}
        assert certify_report(report.records) == []


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

    def test_round_files_are_named_by_position(self, tmp_path, flips_run):
        # a stored round number is not checked on export: a repeated one
        # names no file twice
        records = copy.deepcopy(list(flips_run.records))
        [r for r in records if r["record"] == "round"][1]["round"] = 1
        written = export_report(records, str(tmp_path))
        assert len(set(written)) == len(written) == 9
        assert str(tmp_path / "round_02_core.csv") in written

    def test_final_function_csv_parses(self, tmp_path, flips_run):
        report = flips_run
        written = export_report(report.records, str(tmp_path))
        path = next(p for p in written
                    if p.endswith("final_function.csv"))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 ** 8
        assert {r["value"] for r in rows} <= {"0", "1"}
