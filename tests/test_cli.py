"""Command line interface, exercised through real subprocesses."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from arityopt.bitcore import BitString
from arityopt.consistency import ENUMERATION_DIM_LIMIT
from arityopt.harness import RUNS_HEADER, SUMMARY_HEADER, seed_trial
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

    def test_debug_instances_requires_out(self):
        proc = run_cli(
            "run", "--algorithm", "rls", "--class", "onemax",
            "--n", "8", "--trials", "1", "--debug-instances",
        )
        assert proc.returncode == 1

    def test_workers_reproducibility(self, tmp_path):
        paths = []
        for name, workers in (("a.csv", "1"), ("b.csv", "2")):
            path = str(tmp_path / name)
            proc = run_cli(
                "run", "--algorithm", "kary_onemax", "--class", "onemax",
                "--n", "20", "--k", "4", "--trials", "6", "--seed", "5",
                "--workers", workers, "--out", path,
            )
            assert proc.returncode == 0, proc.stderr
            paths.append(path)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

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
