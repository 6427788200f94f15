"""Command line front end: exit codes and emitted records."""
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

import cocyclelab.cli as cli
import cocyclelab.driver as driver
import cocyclelab.evc as evc
import cocyclelab.groups as groups
import cocyclelab.stepper as stepper
from cocyclelab.cli import YAML_LOADER, main
from cocyclelab.driver import PRESETS, PipelineConfig
from cocyclelab.errors import ConfigError


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestStep:
    def test_step_preset(self, capsys):
        rc, out, err = run_cli(capsys, "step", "--config", "z2-flips")
        assert rc == 0 and err == ""
        record = json.loads(out)
        assert record["refined_level"] == 2
        assert record["delta"] == "1/3"
        assert all(c["ok"] for c in record["certificates"])
        assert all(c["ok"] for c in record["validator"])

    def test_step_takes_no_out(self, tmp_path, capsys):
        # step prints its record; an output directory is a usage error
        target = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["step", "--config", "z2-flips", "--out", str(target)])
        assert exc.value.code == 2
        assert not target.exists()
        assert capsys.readouterr().out == ""

    def test_step_takes_no_rounds(self, capsys):
        # step runs one round; a round count is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["step", "--config", "z2-flips", "--rounds", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_step_depth_override_fails_cleanly(self, capsys):
        # the preset's odometer has depth 12: a configuration problem
        rc, out, err = run_cli(capsys, "step", "--config", "z2-adding",
                               "--depth", "3")
        assert rc == 2 and out == ""
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert "generator T of depth 12 within depth_budget 3" in record["message"]


# sha256 of `cocyclelab step --config <preset>` stdout, recorded before the
# step's shared clauses were folded into one check; the check's rewrite,
# the first-round eps rule and the CSV writers must leave them unchanged
STEP_STDOUT_SHA256 = {
    "z2-flips": "4084e23a018046ca8859013685cf9bf59957423125589baef32f105ef65601cc",
    "z3-flips": "f635c0941227cbaebc3de7c14cdde37d6b8841f0b0637ccf34dc26973bb6c62a",
    "z2-adding": "20a438862ddbc610d9ab85b78ea82970c1d1bb7b59397d5d2e92abf8d3bb31fb",
    "z2-flip-stream": "3423f33415aafc3fce7e3bee985ba5a5a1076554f1ca6cf1a0b4086a6e125c3e",
    "sum-z": "f413faeb5d0c378334dc060f944c2257f13831c158fa1cd53c0ed2a1cddce15e",
    "sum-z-wide": "f97e166684b8e44a16065c56af737a7607021356ccfc14dbc16707d2d919c13b",
}

# sha256 of each CSV that `export` writes for a z2-flips report
EXPORT_CSV_SHA256 = {
    "final_function.csv": "7c25db49fdf807ec2f38504a81332e26bbf85647c16b61974c5c4102a0574723",
    "ladder.csv": "f4bc9190f0955b3e3aa3deb05939117e41864d356d4ffd3b18ccf72659fbd883",
    "round_01_core.csv": "c6580a6335888d2b8df64347f5ff5bbbf6488ee2b792b7d28811c13c4fdffbc6",
    "round_02_core.csv": "d7634ecacb74ca0f777d02a1bf7e6be652946a8413cb6e48e68d372baae0dfb9",
    "round_03_core.csv": "b33ac6939dce252e611ee23ae4696d992813d07ba8bc23c85a2d93230e18ec0f",
    "round_04_core.csv": "5005068d2f07b678da924c976766a9250f1304fdd28c1d80621c7a30fc519bc4",
    "round_05_core.csv": "84cf8c146163c8c7d01923208a2198ee331ad73028749f0e76cd2bbf0a31f80f",
    "round_06_core.csv": "71a26e6eacc8914aa9ed33e93585aafdc05ca1a273892587eb02aaa9d42f398c",
    "terminal_kernel.csv": "1b62e6ce918b636b99a690124cb4c50e98f8c4bc79d5b141bb1535d6f96b2398",
}


class TestStepIsTheFirstRound:
    # `step` prints these fields of the first round record of a run
    KEYS = ("triple", "level", "refined_level", "working_depth", "eps",
            "delta", "conjugate", "certificates", "validator")

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_projection_of_round_one(self, preset, capsys):
        rc, step, _ = run_cli(capsys, "step", "--config", preset)
        assert rc == 0
        command = ("run-infinite" if PRESETS[preset]["action"]["kind"]
                   == "flip-stream" else "run")
        rc, out, _ = run_cli(capsys, command, "--config", preset,
                             "--rounds", "1")
        assert rc == 0
        first = next(r for r in map(json.loads, out.splitlines())
                     if r["record"] == "round")
        assert step == json.dumps({key: first[key] for key in self.KEYS},
                                  sort_keys=True, separators=(",", ":")) + "\n"


class TestFloatConfig:
    def test_floats_are_stored_without_floats(self, tmp_path, capsys):
        # a YAML float weight is read by its decimal text, and a whole
        # float as its integer; the header stores those, since a report
        # holds no floats, and the report certifies
        raw = {**PRESETS["z2-flips"], "group": {"kind": "cyclic", "order": 2.0},
               "measure": {"kind": "iid", "p0": 0.5}, "rounds": 2}
        path = tmp_path / "iid.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = out / "report.jsonl"
        config = json.loads(report.read_text().splitlines()[0])["config"]
        assert config["measure"] == {"kind": "iid", "p0": "0.5"}
        assert config["group"] == {"kind": "cyclic", "order": 2}
        capsys.readouterr()
        rc, stdout, _ = run_cli(capsys, "certify", str(report))
        assert rc == 0 and json.loads(stdout)["ok"] is True

    @pytest.mark.parametrize("key,value,text", [
        ("group", {"kind": "cyclic", "order": 2.5}, "'2.5'"),
        ("action", {"kind": "flips", "coords": [1, 2.5]}, "'2.5'"),
        ("action", {"kind": "adding-machine", "depth": 12.5}, "'12.5'"),
        ("group", {"kind": "cyclic", "order": float("inf")}, "'Infinity'"),
        ("rounds", 2.5, "'2.5'"), ("depth_budget", 14.5, "'14.5'"),
        ("start_level", 1.5, "'1.5'"), ("u_indices", [1, 1.5], "'1.5'")],
        ids=["order", "flip-coordinate", "adding-depth", "infinite-order",
             "rounds", "depth-budget", "start-level", "u-index"])
    def test_a_count_must_be_whole(self, key, value, text, tmp_path, capsys):
        # a float count is read as its text, which no count takes, so the
        # config fails to load, naming the key, rather than run truncated
        path = tmp_path / "count.yaml"
        path.write_text(yaml.safe_dump({**PRESETS["z2-flips"], key: value}))
        rc, _, err = run_cli(capsys, "step", "--config", str(path))
        assert rc == 2 and json.loads(err)["error"] == "ConfigError"
        assert text in json.loads(err)["message"]
        assert f"config key {key!r}" in json.loads(err)["message"]

    def test_a_whole_count_keeps_its_meaning(self):
        config = PipelineConfig.from_mapping({
            **PRESETS["z2-flips"], "rounds": 2.0, "depth_budget": "12",
            "start_level": 1.0, "u_indices": [1.0, "2"]})
        counts = (config.rounds, config.depth_budget, config.start_level,
                  *config.u_indices)
        assert counts == (2, 12, 1, 1, 2)
        assert {type(n) for n in counts} == {int}


class TestBooleanConfig:
    @pytest.mark.parametrize("key,value", [
        ("rounds", True), ("depth_budget", True), ("start_level", False),
        ("u_indices", [True]), ("group", {"kind": "cyclic", "order": True}),
        ("measure", {"kind": "iid", "p0": True}),
        ("action", {"kind": "flips", "coords": [1, True]})],
        ids=["rounds", "depth-budget", "start-level", "u-index", "order",
             "measure", "flip-coordinate"])
    def test_a_boolean_is_not_a_number(self, key, value, tmp_path, capsys):
        # YAML's true reads as the number 1 in Python, so `rounds: true`
        # would run one round and `order: true` build the trivial group
        path = tmp_path / "boolean.yaml"
        path.write_text(yaml.safe_dump({**PRESETS["z2-flips"], key: value}))
        rc, _, err = run_cli(capsys, "step", "--config", str(path))
        assert rc == 2 and json.loads(err)["error"] == "ConfigError"
        assert f"config key {key!r}" in json.loads(err)["message"]
        assert "boolean" in json.loads(err)["message"]


class TestFirstRoundEps:
    def test_step_matches_first_run_round(self, tmp_path, capsys):
        # eps_start above the admission bound (1/40) is capped by it
        raw = {**PRESETS["z2-flips"], "eps_start": "1/4"}
        path = tmp_path / "eps.yaml"
        path.write_text(yaml.safe_dump(raw))
        rc, out, _ = run_cli(capsys, "step", "--config", str(path))
        assert rc == 0
        step = json.loads(out)
        rc, out, _ = run_cli(capsys, "run", "--config", str(path),
                             "--rounds", "1")
        assert rc == 0
        first = next(r for r in map(json.loads, out.splitlines())
                     if r["record"] == "round")
        assert step["eps"] == first["eps"] == "1/40"
        assert step["refined_level"] == first["refined_level"]
        assert step["conjugate"] == first["conjugate"]

    @pytest.mark.parametrize("eps_start", [0.01, "0.01", "1/100"],
                             ids=["yaml-float", "decimal-text", "fraction"])
    def test_eps_start_reads_as_written(self, eps_start, tmp_path, capsys):
        # a YAML float is read by its decimal text, as measure weights
        # are, not by its binary value
        raw = {**PRESETS["z2-flips"], "eps_start": eps_start}
        path = tmp_path / "eps.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert isinstance(yaml.load(path.read_text(), Loader=YAML_LOADER)[
            "eps_start"], type(eps_start))
        rc, out, _ = run_cli(capsys, "run", "--config", str(path),
                             "--rounds", "1")
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        first = next(r for r in records if r["record"] == "round")
        assert first["eps"] == "1/100"
        # the config is stored as read, so all three are one config
        fraction = {**raw, "eps_start": "1/100", "rounds": 1}
        assert (records[0]["config_digest"]
                == PipelineConfig.from_mapping(fraction).digest())
        assert records[0]["config"]["eps_start"] == "1/100"


class TestPinnedBytes:
    @pytest.mark.parametrize("preset", sorted(STEP_STDOUT_SHA256))
    def test_step_stdout(self, capsys, preset):
        rc, out, err = run_cli(capsys, "step", "--config", preset)
        assert rc == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == \
            STEP_STDOUT_SHA256[preset]

    def test_export_csvs(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc, _, _ = run_cli(capsys, "run", "--config", "z2-flips", "--out", out)
        assert rc == 0
        rc, stdout, _ = run_cli(capsys, "export",
                                os.path.join(out, "report.jsonl"),
                                "--out", str(tmp_path / "csv"))
        assert rc == 0
        digests = {os.path.basename(p): hashlib.sha256(
            Path(p).read_bytes()).hexdigest() for p in stdout.splitlines()}
        assert digests == EXPORT_CSV_SHA256


class TestRun:
    def test_run_to_stdout(self, capsys):
        rc, out, err = run_cli(capsys, "run", "--config", "z2-flips",
                               "--rounds", "2", "--seedless")
        assert rc == 0 and err == ""
        records = [json.loads(line) for line in out.splitlines()]
        kinds = [r["record"] for r in records]
        assert kinds[0] == "header"
        assert kinds.count("round") == 2
        assert kinds[-1] == "final"

    def test_run_certify_export_cycle(self, tmp_path, capsys):
        out = str(tmp_path)
        rc, _, _ = run_cli(capsys, "run", "--config", "z2-flips",
                           "--rounds", "3", "--out", out)
        assert rc == 0
        report = os.path.join(out, "report.jsonl")
        assert os.path.exists(report)

        rc, stdout, _ = run_cli(capsys, "certify", report)
        assert rc == 0
        assert json.loads(stdout)["ok"] is True

        rc, stdout, _ = run_cli(capsys, "export", report, "--out", out)
        assert rc == 0
        paths = stdout.splitlines()
        assert any(p.endswith("final_function.csv") for p in paths)
        assert all(os.path.exists(p) for p in paths)

    def test_export_skips_the_kernel_beyond_its_depth(self, tmp_path, capsys):
        # one z2-adding round ends at depth 10, past KERNEL_EXPORT_DEPTH
        out = str(tmp_path)
        rc, _, _ = run_cli(capsys, "run", "--config", "z2-adding",
                           "--out", out)
        assert rc == 0
        rc, stdout, err = run_cli(capsys, "export",
                                  os.path.join(out, "report.jsonl"),
                                  "--out", str(tmp_path / "csv"))
        assert rc == 0 and err == ""
        assert sorted(os.path.basename(p) for p in stdout.splitlines()) == [
            "final_function.csv", "ladder.csv", "round_01_core.csv"]

    def test_certify_tampered_report(self, tmp_path, capsys):
        out = str(tmp_path)
        run_cli(capsys, "run", "--config", "z2-flips", "--rounds", "2",
                "--out", out)
        path = os.path.join(out, "report.jsonl")
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        for record in records:
            if record["record"] == "round" and record["round"] == 2:
                record["eps"] = records[1]["eps"]
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

        rc, _, err = run_cli(capsys, "certify", path)
        assert rc == 1
        failures = [json.loads(line) for line in err.splitlines()]
        assert any(f["clause"] == "eps" for f in failures)

    def test_run_resume(self, tmp_path, capsys):
        out = str(tmp_path)
        rc, _, _ = run_cli(capsys, "run", "--config", "z2-flips",
                           "--rounds", "2", "--out", out)
        assert rc == 0
        rc, _, _ = run_cli(capsys, "run", "--config", "z2-flips",
                           "--rounds", "2", "--out", out, "--resume")
        assert rc == 0

    def test_run_infinite(self, capsys):
        rc, out, _ = run_cli(capsys, "run-infinite", "--config",
                             "z2-flip-stream", "--rounds", "2")
        assert rc == 0
        kinds = [json.loads(line)["record"] for line in out.splitlines()]
        assert "stream_bounds" in kinds


def _round_table(records):
    return records[1]["artifacts"]["f"]


def _rename_first_key(table, key):
    table[key] = table.pop(sorted(table)[0])


def _drop(record, key):
    del record[key]


# malformed data in a stored z2-flips report, each once a traceback
MALFORMED = {
    "header-config": lambda rs: _drop(rs[0], "config"),
    "round-witness": lambda rs: _drop(rs[1], "witness"),
    "round-artifacts": lambda rs: _drop(rs[1], "artifacts"),
    "eps-text": lambda rs: rs[1].update(eps="abc"),
    "delta-text": lambda rs: rs[1].update(delta="x"),
    "round-number": lambda rs: rs[1].update(round="x"),
    "record-list": lambda rs: rs.__setitem__(2, list(rs[2].items())),
    "table-key": lambda rs: _rename_first_key(_round_table(rs), "0x1"),
    "empty-table": lambda rs: _round_table(rs).clear(),
    "element-label": lambda rs: _round_table(rs).update(
        {sorted(_round_table(rs))[0]: "7"}),
    "negative-label": lambda rs: _round_table(rs).update(
        {sorted(_round_table(rs))[0]: "-1"}),
}


# malformed data in a stored one-round norm-bounded sum-z report
MALFORMED_SUM_Z = {
    "value-text": lambda rs: _round_table(rs).update(
        {sorted(_round_table(rs))[0]: "x"}),
    "table-list": lambda rs: rs[1]["artifacts"].update(
        f=sorted(_round_table(rs).items())),
}


def _report_lines(out, argv):
    assert main([*argv, "--out", out]) == 0
    with open(os.path.join(out, "report.jsonl")) as fh:
        return fh.read().splitlines()


class TestMalformedReport:
    @pytest.fixture(scope="class")
    def report_lines(self, tmp_path_factory):
        return _report_lines(str(tmp_path_factory.mktemp("malformed")),
                             ["run", "--config", "z2-flips", "--rounds", "2"])

    @pytest.fixture(scope="class")
    def sum_z_lines(self, tmp_path_factory):
        return _report_lines(str(tmp_path_factory.mktemp("malformed-sum-z")),
                             ["norm-bounded", "--config", "sum-z",
                              "--rounds", "1"])

    @staticmethod
    def certify_edited(lines, edit, tmp_path, capsys):
        records = [json.loads(line) for line in lines]
        assert records[1]["record"] == "round"
        edit(records)
        path = tmp_path / "report.jsonl"
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))
        rc, out, err = run_cli(capsys, "certify", str(path))
        assert rc == 1 and out == ""
        record = json.loads(err.strip())
        assert record["error"] and record["message"]
        return record

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_certify_reports_an_error_record(self, case, report_lines,
                                             tmp_path, capsys):
        record = self.certify_edited(report_lines, MALFORMED[case], tmp_path,
                                     capsys)
        assert record["error"] == "MalformedInput"

    @pytest.mark.parametrize("command", ["certify", "export"])
    def test_line_that_is_not_json(self, command, report_lines, tmp_path,
                                   capsys):
        path = tmp_path / "report.jsonl"
        path.write_text("\n".join(report_lines[:2] + ["{not json"]
                                  + report_lines[2:]) + "\n")
        rc, out, err = run_cli(capsys, command, str(path),
                               *(["--out", str(tmp_path)]
                                 if command == "export" else []))
        assert rc == 1 and out == ""
        assert json.loads(err.strip())["error"] == "MalformedInput"

    @pytest.mark.parametrize("command", ["certify", "export"])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_path(self, command, where, tmp_path, capsys):
        path = tmp_path / "absent.jsonl" if where == "missing" else tmp_path
        rc, out, err = run_cli(capsys, command, str(path),
                               *(["--out", str(tmp_path / "csv")]
                                 if command == "export" else []))
        assert rc == 1 and out == ""
        [line] = err.splitlines()
        record = json.loads(line)
        assert record["error"] == "MalformedInput"
        assert str(path) in record["message"]

    # one key of length 60 sets the table's depth to 60: the word it lacks
    # is named at once, without listing the 2^60 words
    @pytest.mark.parametrize("command, kind", [("certify", "round"),
                                               ("export", "final")])
    def test_one_deep_key(self, command, kind, report_lines, tmp_path,
                          capsys):
        records = [json.loads(line) for line in report_lines]
        record = next(r for r in records if r["record"] == kind)
        (record["artifacts"] if kind == "round" else record)["f"] = {
            "0" * 60: "0"}
        path = tmp_path / "report.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc, out, err = run_cli(capsys, command, str(path),
                               *(["--out", str(tmp_path / "csv")]
                                 if command == "export" else []))
        assert rc == 1 and out == ""
        [line] = err.splitlines()
        assert json.loads(line) == {
            "error": "MalformedInput",
            "message": "a function table must hold the words of one depth "
                       f"(table lacks the word {'0' * 59 + '1'!r})"}

    # certify rebuilds a round's core and compares the stored words with
    # it, so a malformed core word fails as a differing field; export
    # reads the stored core, so there it is malformed input
    @pytest.mark.parametrize("command, key, value", [
        ("certify", "clause", "witness.core"),
        ("export", "error", "MalformedInput")], ids=["certify", "export"])
    def test_malformed_core_word(self, command, key, value, report_lines,
                                 tmp_path, capsys):
        records = [json.loads(line) for line in report_lines]
        records[1]["witness"]["core"] = ["0x0"]
        path = tmp_path / "report.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc, out, err = run_cli(capsys, command, str(path),
                               *(["--out", str(tmp_path / "csv")]
                                 if command == "export" else []))
        assert rc == 1 and out == ""
        [line] = err.splitlines()
        assert json.loads(line)[key] == value

    @pytest.mark.parametrize("case", sorted(MALFORMED_SUM_Z))
    def test_sum_z_certify_reports_an_error_record(self, case, sum_z_lines,
                                                   tmp_path, capsys):
        record = self.certify_edited(sum_z_lines, MALFORMED_SUM_Z[case],
                                     tmp_path, capsys)
        assert record["error"] == "MalformedInput"


class TestWrappedPipelines:
    def test_bounded(self, capsys):
        rc, out, _ = run_cli(capsys, "bounded", "--config", "z2-flips",
                             "--rounds", "2")
        assert rc == 0
        kinds = [json.loads(line)["record"] for line in out.splitlines()]
        assert kinds[-1] == "compact_range"

    def test_norm_bounded(self, capsys):
        rc, out, _ = run_cli(capsys, "norm-bounded", "--config", "sum-z",
                             "--rounds", "2")
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[-1]["record"] == "norm_bounds"
        assert records[-1]["ok"]


class TestReportWrites:
    @pytest.mark.parametrize("argv", [
        ("run", "--config", "z2-flips"),
        ("run-infinite", "--config", "z2-flip-stream"),
        ("bounded", "--config", "z2-flips"),
        ("norm-bounded", "--config", "sum-z"),
    ])
    def test_report_written_once(self, argv, tmp_path, capsys, monkeypatch):
        # each record is appended once, as the report's next line, and the
        # finished checkpoint is renamed to the report
        writes = []
        real = driver._save_checkpoint

        def counting(record, out_dir):
            writes.append((record["record"], out_dir))
            real(record, out_dir)

        monkeypatch.setattr(driver, "_save_checkpoint", counting)
        out = str(tmp_path / "out")
        rc, stdout, _ = run_cli(capsys, *argv, "--rounds", "2", "--out", out)
        path = os.path.join(out, "report.jsonl")
        assert rc == 0
        assert stdout == f"report written to {path}\n"
        assert os.listdir(out) == ["report.jsonl"]
        with open(path) as fh:
            kinds = [json.loads(line)["record"] for line in fh]
        assert writes == [(kind, out) for kind in kinds]
        assert kinds[-1] in ("final", "compact_range", "norm_bounds")


class TestComputedOnce:
    """A command computes a covering number once per (candidate,
    neighborhood) pair, and a conjugate closure once for its config and
    once per round for the family enlarged by the round's conjugate."""

    @pytest.mark.parametrize("argv,run,certify", [
        # six rounds on one pair; the sweep asks for no other
        (("run", "--config", "z2-flips"), (1, 7), (1, 7)),
        # three rounds on the candidates 1, 1 and -1; the sweep covers
        # all four family members, which certify takes from the report
        (("norm-bounded", "--config", "sum-z"), (4, 4), (2, 4)),
    ])
    def test_calls_per_command(self, argv, run, certify, tmp_path, capsys,
                               monkeypatch):
        calls = Counter()
        for name in ("covering_number", "conjugate_closure"):
            real = getattr(groups, name)

            def counting(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)
            # rebound wherever the name was imported
            for module in (groups, evc, driver, stepper):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)

        def counted(*command):
            calls.clear()
            assert main(list(command)) == 0
            return calls["covering_number"], calls["conjugate_closure"]
        out = str(tmp_path)
        assert counted(*argv, "--out", out) == run
        capsys.readouterr()
        assert counted("certify", os.path.join(out, "report.jsonl")) == certify


class TestGrammarPerProcess:
    """`main` builds its argument grammar on its first call in a process
    and shares it with every later call; each call still parses alone."""

    def test_import_builds_no_grammar(self):
        probe = subprocess.run(
            [sys.executable, "-c", "import cocyclelab.cli as cli; "
             "print(cli._parser.cache_info().currsize)"],
            capture_output=True, text=True)
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout == "0\n"

    def test_no_option_carries_over(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_cmd_run",
                            lambda args, pipeline: seen.append(vars(args)) or 0)
        out = str(tmp_path)
        assert main(["run", "--config", "z2-flips", "--depth", "9",
                     "--out", out, "--resume", "--rounds", "2"]) == 0
        assert main(["run", "--config", "z2-flips"]) == 0
        assert main(["bounded", "--config", "z2-flips"]) == 0
        common = {"config": "z2-flips", "seedless": False}
        assert seen == [
            {**common, "command": "run", "depth": 9, "out": out,
             "resume": True, "rounds": 2},
            {**common, "command": "run", "depth": None, "out": None,
             "resume": False, "rounds": None},
            {**common, "command": "bounded", "depth": None, "out": None,
             "rounds": None},
        ]

    # usage output and exit codes: (arguments, exit code)
    USAGE = [(["--help"], 0), (["run", "--help"], 0), (["certify", "-h"], 0),
             ([], 2), (["nonsense"], 2), (["certify"], 2),
             (["run", "--config", "z2-flips", "--depth", "deep"], 2),
             (["step", "--config", "z2-flips", "--resume"], 2)]

    @pytest.mark.parametrize("argv,code", USAGE)
    def test_usage_matches_a_fresh_grammar(self, argv, code, capsys,
                                           monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

        def usage(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err
        fresh = usage(cli._parser.__wrapped__().parse_args)
        assert fresh[0] == code
        # the shared grammar prints the same before and after other calls
        assert usage(main) == fresh
        for other, _ in self.USAGE:
            with pytest.raises(SystemExit):
                main(other)
        capsys.readouterr()
        assert usage(main) == fresh


class TestConfigHandling:
    def test_unknown_preset(self, capsys):
        rc, out, err = run_cli(capsys, "run", "--config", "no-such-preset")
        assert rc == 2 and out == ""
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert "no-such-preset" in record["message"]

    def test_yaml_config_file(self, tmp_path, capsys):
        raw = dict(PRESETS["z2-flips"])
        raw["rounds"] = 1
        path = tmp_path / "custom.yaml"
        path.write_text(yaml.safe_dump(raw))
        rc, out, _ = run_cli(capsys, "run", "--config", str(path))
        assert rc == 0
        kinds = [json.loads(line)["record"] for line in out.splitlines()]
        assert kinds.count("round") == 1

    def test_yaml_config_must_be_mapping(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("- just\n- a\n- list\n")
        rc, _, err = run_cli(capsys, "run", "--config", str(path))
        assert rc == 2
        assert json.loads(err.strip())["error"]

    def test_malformed_yaml_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "unclosed.yaml"
        path.write_text("group: {name: z2\nrounds: 1\n")
        rc, out, err = run_cli(capsys, "run", "--config", str(path))
        assert rc == 2 and out == ""
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert str(path) in record["message"]

    @pytest.mark.parametrize("override, value", [
        ({"rounds": "abc"}, "'abc'"),
        ({"group": 5}, "5"),
        ({"action": {"kind": "flips", "coords": ["x"]}}, "'x'"),
        ({"eps_start": "abc"}, "'abc'"),
        ({"measure": {"kind": "iid", "p0": 2}}, "'p0': 2"),
        ({"group": {"kind": "cyclic"}}, "'order'"),
        ({"eps_start": "1/0"}, "'1/0'"),
        ({"start_level": -1}, "'start_level' cannot take -1"),
        ({"rounds": -2}, "'rounds' cannot take -2"),
        ({"depth_budget": -1}, "'depth_budget' cannot take -1"),
        ({"action": {"kind": "flips", "coords": [1, 30]}},
         "generator s30 of depth 30 within depth_budget 14"),
        ({"action": {"kind": "adding-machine", "depth": 30}},
         "generator T of depth 30 within depth_budget 14"),
        ({"action": {"kind": "flip-stream"}, "rounds": 30},
         "generator s30 of depth 30 within depth_budget 14"),
        ({"action": {"kind": "flips", "coords": []}},
         "at least one generator"),
        ({"action": {"kind": "flips", "coords": [1, 1]}},
         "a generator twice: ['s1', 's1']"),
        ({"u_indices": [-3]}, "'u_indices' cannot take [-3]"),
        # the initial function's depth, built before any round
        ({"start_level": 15, "depth_budget": 14},
         "'start_level' cannot take 15 within depth_budget 14"),
        ({"group": {"kind": "symmetric", "n": 4}},
         "group kind 'symmetric' supports n = 3 only, not 4"),
        ({"group": {"kind": "dihedral", "n": 6}},
         "group kind 'dihedral' supports n = 4 only, not 6"),
    ], ids=["rounds", "group", "flip-coords", "eps_start", "iid-p0",
            "group-order", "eps_start-zero", "start_level-negative",
            "rounds-negative", "depth_budget-negative", "flips-too-deep",
            "adding-too-deep", "stream-too-deep", "no-generator",
            "repeated-generator", "u_index-negative", "start_level-too-deep",
            "symmetric-order", "dihedral-order"])
    def test_malformed_value_is_a_config_error(self, override, value,
                                               tmp_path, capsys):
        raw = {**PRESETS["z2-flips"], **override}
        # the config load rejects it, so the run below never starts
        with pytest.raises(ConfigError) as exc:
            PipelineConfig.from_mapping(raw)
        assert value in str(exc.value)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        rc, out, err = run_cli(capsys, "run", "--config", str(path))
        assert rc == 2 and out == ""
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert value in record["message"]

    @pytest.mark.parametrize("key, value", [
        ("family", "12"), ("bases", "01"), ("u_indices", "1")])
    def test_list_key_rejects_a_string(self, key, value):
        # a string is iterable: "12" would load as the family ["1", "2"]
        with pytest.raises(ConfigError, match=f"'{key}' cannot take '{value}'"):
            PipelineConfig.from_mapping({**PRESETS["z2-flips"], key: value})

    @pytest.mark.parametrize("where", ["directory", "undecodable"])
    def test_unreadable_config_path(self, where, tmp_path, capsys):
        path = tmp_path
        if where == "undecodable":
            path = tmp_path / "binary.yaml"
            path.write_bytes(b"rounds: \xff\n")
        rc, out, err = run_cli(capsys, "run", "--config", str(path))
        assert rc == 2 and out == ""
        [line] = err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ConfigError"
        assert str(path) in record["message"]

    def test_unknown_element_stays_malformed_input(self, tmp_path, capsys):
        # MalformedInput is a ValueError too, but keeps its record and exit 1
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({**PRESETS["z2-flips"], "family": ["7"]}))
        rc, out, err = run_cli(capsys, "run", "--config", str(path))
        assert rc == 1 and out == ""
        assert json.loads(err.strip())["error"] == "MalformedInput"

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_yaml_loaders_agree_on_presets(self, name):
        text = yaml.safe_dump(dict(PRESETS[name]))
        if yaml.__with_libyaml__:
            assert YAML_LOADER is yaml.CSafeLoader
        fast = yaml.load(text, Loader=YAML_LOADER)
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)
        assert PipelineConfig.from_mapping(fast) == PipelineConfig.from_mapping(
            dict(PRESETS[name]))

    def test_installed_entry_point(self, tmp_path):
        """Checks the entry point the build backend emits from this repo's pyproject.toml."""
        pytest.importorskip("setuptools")
        from importlib.metadata import PathDistribution
        build = subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "egg_info", "--egg-base", str(tmp_path)],
            cwd=Path(__file__).parents[1], capture_output=True, text=True)
        assert build.returncode == 0, build.stderr
        dist = PathDistribution(tmp_path / "artifact.egg-info")
        scripts = dist.entry_points.select(group="console_scripts")
        match = [ep for ep in scripts if ep.name == "cocyclelab"]
        assert match and match[0].value == "cocyclelab.cli:main"
        assert match[0].load() is main
