"""Command line interface, exercised through real subprocesses."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from arityopt import cli
from arityopt.bitcore import BitString
from arityopt.consistency import ENUMERATION_DIM_LIMIT
from arityopt.harness import RUNS_HEADER, SUMMARY_HEADER, ExperimentConfig, run_experiment, seed_trial
from arityopt.problems import MonotoneInstance


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "arityopt", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def runs_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "runs.csv")
    proc = run_cli(
        "run", "--algorithm", "binary_onemax", "--class", "onemax",
        "--n", "16", "--n", "32", "--n", "64", "--trials", "10",
        "--seed", "7", "--out", path,
    )
    assert proc.returncode == 0, proc.stderr
    return path


class TestRun:
    def test_stdout_summary_without_out(self):
        proc = run_cli(
            "run", "--algorithm", "rls", "--class", "onemax",
            "--n", "12", "--trials", "4", "--seed", "0",
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("rls,onemax,12,1,4,")

    def test_stdout_is_the_summary_file(self, tmp_path):
        config = ("run", "--algorithm", "binary_onemax", "--class", "monotone",
                  "--n", "8", "--n", "12", "--trials", "3", "--seed", "5")
        printed = run_cli(*config)
        written = run_cli(*config, "--out", str(tmp_path / "runs.csv"))
        assert printed.returncode == written.returncode == 0, printed.stderr + written.stderr
        assert printed.stdout.encode() == (tmp_path / "runs.summary.csv").read_bytes()

    def test_out_files(self, runs_csv):
        with open(runs_csv) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == RUNS_HEADER
        assert len(lines) == 31
        base = runs_csv[:-4]
        summary = open(base + ".summary.csv").read().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert len(summary) == 4
        report = json.load(open(base + ".report.json"))
        assert len(report["summaries"]) == 3

    def test_debug_instances(self, tmp_path):
        path = str(tmp_path / "dbg.csv")
        proc = run_cli(
            "run", "--algorithm", "binary_leadingones", "--class", "leadingones",
            "--n", "8", "--trials", "2", "--seed", "3", "--out", path,
            "--debug-instances",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.load(open(path[:-4] + ".instances.json"))
        assert len(payload) == 2
        assert payload[0]["seed"] == 3
        assert len(payload[0]["z"]) == 8
        assert sorted(payload[0]["sigma"]) == list(range(1, 9))

        proc = run_cli(
            "run", "--algorithm", "binary_onemax", "--class", "monotone",
            "--n", "8", "--n", "70", "--trials", "2", "--seed", "3", "--out", path,
            "--debug-instances",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.load(open(path[:-4] + ".instances.json"))
        assert [(e["n"], e["seed"]) for e in payload] == [(8, 3), (8, 4), (70, 5), (70, 6)]
        for entry in payload:
            rebuilt = MonotoneInstance(BitString.from_string(entry["z"]), tuple(entry["weights"]))
            assert rebuilt == seed_trial("monotone", entry["n"], entry["seed"])[0]

    @pytest.mark.parametrize("ns, run_ids", [(("12", "8"), [2, 3, 0, 1]), (("8", "12"), [0, 1, 2, 3])])
    def test_run_id_is_seed_less_base_seed(self, tmp_path, ns, run_ids):
        # rows stay sorted by n, so for an unsorted --n list run_id is not
        # the row index; README: each trial's seed is base_seed + run_id
        path = str(tmp_path / "runs.csv")
        proc = run_cli(
            "run", "--algorithm", "rls", "--class", "onemax", "--n", ns[0], "--n", ns[1],
            "--trials", "2", "--seed", "100", "--out", path, "--debug-instances",
        )
        assert proc.returncode == 0, proc.stderr
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["run_id"]) for r in rows] == run_ids
        assert all(int(r["seed"]) == 100 + int(r["run_id"]) for r in rows)
        records = run_experiment(ExperimentConfig("rls", "onemax", tuple(map(int, ns)), 2, 100))
        assert [(int(r["n"]), int(r["seed"]), int(r["queries"])) for r in rows] == [
            (r.n, r.seed, r.queries) for r in records]
        payload = json.load(open(path[:-4] + ".instances.json"))
        assert [(e["run_id"], e["seed"]) for e in payload] == [(i, 100 + i) for i in run_ids]

    def test_debug_instances_requires_out(self):
        proc = run_cli(
            "run", "--algorithm", "rls", "--class", "onemax",
            "--n", "8", "--trials", "1", "--debug-instances",
        )
        assert proc.returncode == 1

    def test_workers_reproducibility(self, tmp_path):
        # an unsorted --n list: a pool hands out the largest n first, and
        # the records must still come back in run order
        outputs = []
        for workers in ("1", "2", "3"):
            path = tmp_path / f"w{workers}.csv"
            proc = run_cli(
                "run", "--algorithm", "kary_onemax", "--class", "onemax",
                "--n", "20", "--n", "12", "--n", "16", "--k", "4", "--trials", "6",
                "--seed", "5", "--workers", workers, "--out", str(path),
            )
            assert proc.returncode == 0, proc.stderr
            stem = tmp_path / f"w{workers}"
            outputs.append([p.read_bytes() for p in (
                path, stem.with_suffix(".summary.csv"), stem.with_suffix(".report.json"))])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_bad_combination_exits_1(self):
        proc = run_cli(
            "run", "--algorithm", "binary_leadingones", "--class", "onemax",
            "--n", "8", "--trials", "1",
        )
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr

    def test_k_for_fixed_arity_algorithm_exits_1(self):
        proc = run_cli(
            "run", "--algorithm", "binary_onemax", "--class", "onemax",
            "--n", "8", "--k", "7", "--trials", "1",
        )
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr
        assert proc.stdout == ""

    def test_negative_seed_exits_1(self, tmp_path):
        # rejected with the config, before any trial or output file
        path = tmp_path / "runs.csv"
        proc = run_cli(
            "run", "--algorithm", "rls", "--class", "onemax",
            "--n", "8", "--trials", "2", "--seed", "-5", "--out", str(path),
        )
        assert proc.returncode == 1
        assert "configuration error: seed must be non-negative, got -5" in proc.stderr
        assert "TrialFailed" not in proc.stderr
        assert proc.stdout == ""
        assert not path.exists()

    def test_unknown_flag_exits_1(self):
        proc = run_cli("run", "--algorithm", "rls", "--frobnicate")
        assert proc.returncode == 1


class TestVerifyUnbiased:
    def test_small_certification_passes(self):
        proc = run_cli("verify-unbiased", "--n", "5", "--trials", "5", "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert "constantOnes" in proc.stdout
        assert "fail (negative control)" in proc.stdout
        assert proc.stdout.count("pass") >= 10

    @pytest.mark.parametrize("args,flag", [
        (("--n", "0"), "--n"),
        (("--n", "-3"), "--n"),
        (("--trials", "0"), "--trials"),
    ])
    def test_bad_input_exits_1(self, args, flag):
        proc = run_cli("verify-unbiased", *args)
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr
        assert f"{flag} must be positive, got {args[1]}" in proc.stderr
        assert proc.stdout == ""

    def test_negative_seed_exits_1(self):
        proc = run_cli("verify-unbiased", "--n", "5", "--trials", "1", "--seed", "-1")
        assert proc.returncode == 1
        assert "configuration error: --seed must be non-negative, got -1" in proc.stderr
        assert proc.stdout == ""

    def test_n_above_enumeration_limit_exits_1(self):
        # rejected before any certification: chooseConsistent could not
        # enumerate its consistent set at this n
        proc = run_cli("verify-unbiased", "--n", str(ENUMERATION_DIM_LIMIT + 1), "--trials", "1")
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr
        assert f"enumeration limit {ENUMERATION_DIM_LIMIT}, got {ENUMERATION_DIM_LIMIT + 1}" in proc.stderr
        assert proc.stdout == ""


class TestCheckBound:
    def test_large_n_holds(self):
        proc = run_cli("check-bound", "--n", "65536")
        assert proc.returncode == 0, proc.stderr
        assert "bound: holds" in proc.stdout

    def test_explicit_grid(self):
        proc = run_cli("check-bound", "--n", "4096", "--grid", "2,10,100,4096")
        assert proc.returncode == 0, proc.stderr

    def test_odd_grid_value_exits_1(self):
        proc = run_cli("check-bound", "--n", "64", "--grid", "3")
        assert proc.returncode == 1

    @pytest.mark.parametrize("args, message", [
        (("--n", "1"), "--n must be at least 2, got 1: there is no even d in 2..n"),
        (("--n", "64", "--grid", "2,2"), "--grid values must be distinct, got '2,2'"),
    ])
    def test_bad_input_exits_1(self, args, message):
        proc = run_cli("check-bound", *args)
        assert proc.returncode == 1
        assert f"configuration error: {message}" in proc.stderr
        assert proc.stdout == ""

    def test_output_at_two_to_the_20_is_pinned(self, capsys):
        # the bytes printed before log2_binomial and the central term moved
        # onto Stirling's series
        assert cli.main(["check-bound", "--n", "1048576"]) == 0
        assert capsys.readouterr().out == (
            "n=1048576 t=195496 grid_points=1087\n"
            "rhs_log2=-146622\n"
            "min_margin_log2=48835 at d=2\n"
            "bound: holds\n"
        )

    @pytest.mark.parametrize("e", [50, 56, 60, 63, 64, 80])
    def test_holds_at_large_n(self, capsys, e):
        # lgamma's differences cancelled from n = 2**50 (a margin of -3.15e14
        # in place of +1.63e13), and numpy rejected the grid from 2**63
        assert cli.main(["check-bound", "--n", str(2**e)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("at d=2\nbound: holds\n")

    @pytest.mark.parametrize("n", [2**1022, 2**1100])
    def test_n_too_large_for_a_float_exits_1(self, capsys, n):
        assert cli.main(["check-bound", "--n", str(n)]) == 1
        captured = capsys.readouterr()
        assert "configuration error: n must be below 2**1022" in captured.err
        assert captured.out == ""

    def test_tiny_n_violation_exits_3(self):
        # the asymptotic inequality may genuinely fail at tiny sizes
        proc = run_cli("check-bound", "--n", "4")
        if proc.returncode == 3:
            assert "VIOLATED" in proc.stdout
        else:
            assert proc.returncode == 0


class TestFit:
    def test_fit_reports_coefficient(self, runs_csv):
        proc = run_cli("fit", "--input", runs_csv, "--model", "a_n")
        assert proc.returncode == 0, proc.stderr
        assert "a=" in proc.stdout

    def test_assertions_pass_and_fail(self, runs_csv):
        ok = run_cli(
            "fit", "--input", runs_csv, "--model", "a_n",
            "--min-a", "1.5", "--max-a", "2.5", "--max-residual", "0.2",
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        bad = run_cli(
            "fit", "--input", runs_csv, "--model", "a_n", "--min-a", "50",
        )
        assert bad.returncode == 3
        assert "assertion failed" in bad.stdout

    def test_missing_input_exits_2(self):
        proc = run_cli("fit", "--input", "/no/such/file.csv", "--model", "a_n")
        assert proc.returncode == 2

    def test_one_group_exits_1(self, tmp_path):
        path = str(tmp_path / "rls.csv")
        proc = run_cli("run", "--algorithm", "rls", "--class", "onemax", "--n", "8",
                       "--trials", "3", "--out", path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("fit", "--input", path, "--model", "a_n")
        assert proc.returncode == 1
        assert "configuration error: need at least 3 distinct (n, k) groups, got 1" in proc.stderr

    @pytest.mark.parametrize("model, outcome, message", [
        ("a_n_over_logk", "true,false", "a_n_over_logk needs k >= 2 in records, got k=0"),
        # every run hit the budget, so no group is left to fit
        ("a_n", "false,true", "need at least 3 distinct (n, k) groups, got 0"),
    ])
    def test_csv_that_cannot_carry_the_fit_exits_1(self, tmp_path, model, outcome, message):
        path = str(tmp_path / "star.csv")
        rows = [f"{i},star_ary_onemax,onemax,{n},0,{i},{n + 10},{outcome}"
                for i, n in enumerate((8, 10, 12))]
        with open(path, "w") as fh:
            fh.write("\n".join([RUNS_HEADER, *rows]) + "\n")
        proc = run_cli("fit", "--input", path, "--model", model)
        assert proc.returncode == 1
        assert f"configuration error: {message}" in proc.stderr


class TestReport:
    def test_rebuilds_summary(self, runs_csv, tmp_path):
        out = str(tmp_path / "again.csv")
        proc = run_cli("report", "--input", runs_csv, "--out", out)
        assert proc.returncode == 0, proc.stderr
        original = open(runs_csv[:-4] + ".summary.csv").read()
        assert open(out).read() == original
        assert json.load(open(out[:-4] + ".report.json"))["summaries"]
        with open(out[:-4] + ".report.json", "rb") as again, \
                open(runs_csv[:-4] + ".report.json", "rb") as first:
            assert again.read() == first.read()
        assert proc.stdout == f"wrote {out}\nwrote {out[:-4]}.report.json\n"

    @pytest.mark.parametrize("bad", [
        "0,foo,onemax,16,2,7,40,true,false",
        "0,binary_onemax,plateau,16,2,7,40,true,false",
        "0,binary_onemax,onemax,16,2,seven,40,true,false",
        "0,binary_onemax,onemax,16,2,7,40,True,False",
        "0,binary_onemax,onemax,16,2,7,40,true,false,surplus",
        "0,binary_onemax,onemax,-5,2,7,40,true,false",
        "0,binary_onemax,onemax,16,-2,7,40,true,false",
        "0,binary_onemax,onemax,16,2,-7,40,true,false",
        "0,binary_onemax,onemax,16,2,7,-9,true,true",
        "0,binary_onemax,onemax,16,2,7,9,true,true",
        ",rls,onemax,8,57,0,9,true,false",
        "banana,rls,onemax,8,1,0,9,true,false",
        "-3,rls,onemax,8,1,0,9,true,false",
        "0,rls,onemax,8,57,0,9,true,false",
        "0,kary_onemax,onemax,60,2,7,40,true,false",
        "0,kary_onemax,onemax,60,25,7,40,true,false",
        "0,binary_onemax,leadingones,16,2,7,40,true,false",
    ])
    def test_bad_row_exits_1(self, tmp_path, bad):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write(RUNS_HEADER + "\n" + bad + "\n")
        proc = run_cli("report", "--input", path, "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr
        assert f"{path}, line 2" in proc.stderr


class TestOutDirectory:
    """An --out that cannot take the output (a directory, a file in a missing
    directory, a file written beside it that is a directory, or a report
    written over its --input) fails with exit 1
    before any work, in process, so a batch or a report never runs only to
    be lost, and no input is overwritten."""

    def _fail_if_called(self, *args, **kwargs):
        pytest.fail("called although --out cannot be written")

    def test_run_checks_out_before_the_batch(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiment", self._fail_if_called)
        out = tmp_path / "missing" / "runs.csv"
        code = cli.main(["run", "--algorithm", "rls", "--class", "onemax", "--n", "4",
                         "--trials", "2", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: --out {out}: directory {out.parent} does not exist" in err
        assert not out.parent.exists()

    def test_report_checks_out_before_reading(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "read_runs_csv", self._fail_if_called)
        out = tmp_path / "missing" / "again.csv"
        code = cli.main(["report", "--input", str(tmp_path / "runs.csv"), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: --out {out}: directory {out.parent} does not exist" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_out_may_not_be_a_directory(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiment", self._fail_if_called)
        monkeypatch.setattr(cli, "read_runs_csv", self._fail_if_called)
        out = tmp_path / "runs"
        out.mkdir()
        args = {"run": ["--algorithm", "rls", "--class", "onemax", "--n", "4", "--trials", "2"],
                "report": ["--input", str(tmp_path / "runs.csv")]}[command]
        code = cli.main([command, *args, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"configuration error: --out {out}: is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, beside, extra", [
        ("run", "runs.summary.csv", []),
        ("run", "runs.report.json", []),
        ("run", "runs.instances.json", ["--debug-instances"]),
        ("report", "runs.report.json", []),
    ])
    def test_no_file_written_beside_out_may_be_a_directory(self, command, beside, extra,
                                                          tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiment", self._fail_if_called)
        monkeypatch.setattr(cli, "read_runs_csv", self._fail_if_called)
        blocked = tmp_path / beside
        blocked.mkdir()
        out = tmp_path / "runs.csv"
        args = {"run": ["--algorithm", "rls", "--class", "onemax", "--n", "4", "--trials", "2"],
                "report": ["--input", str(tmp_path / "input.csv")]}[command]
        code = cli.main([command, *args, *extra, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"configuration error: --out {out}: {blocked} is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [blocked]
        assert list(blocked.iterdir()) == []

    @pytest.mark.parametrize("input_name, out_name, written", [
        # the summary CSV over the input, then the JSON report over it
        ("runs.csv", "runs.csv", "runs.csv"),
        ("runs.report.json", "runs.csv", "runs.report.json"),
        ("runs.report.json", "runs", "runs.report.json"),
    ])
    def test_report_does_not_overwrite_its_input(self, runs_csv, input_name, out_name, written,
                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "read_runs_csv", self._fail_if_called)
        data = open(runs_csv, "rb").read()
        source = tmp_path / input_name
        source.write_bytes(data)
        out = tmp_path / out_name
        code = cli.main(["report", "--input", str(source), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: --out {out}: {tmp_path / written} is the --input file" in err
        assert source.read_bytes() == data
        assert list(tmp_path.iterdir()) == [source]


class TestOutOfMemory:
    def test_memory_error_names_the_command(self, monkeypatch, capsys):
        def exhausted(cfg):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        code = cli.main(["run", "--algorithm", "rls", "--class", "onemax", "--n", "4",
                         "--trials", "2"])
        assert code == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == "arityopt: error: run ran out of memory (MemoryError)\n"
