"""Seeded outputs pinned byte for byte.

Each algorithm and class pair is run once through ``cli.main`` at n = 8
(k = 4 for ``kary_onemax``), 3 trials, seed 0, with ``--debug-instances``;
the sha256 of the runs CSV, the summary CSV, the report JSON and the
instances JSON must be the recorded ones.  So must the stdout of
``verify-unbiased --n 6 --trials 5``.  A refactor keeps every digest; a
change of behaviour re-records them and says so.

``BUDGET_HIT_DIGESTS`` pins the budget-exhausted path the same way: ``rls``
on ``leadingones`` at n = 8, 3 trials, seed 0, ``--budget 30``, where runs 0
and 1 hit the budget and run 2 completes.
"""

from __future__ import annotations

import hashlib

import pytest

from arityopt import cli
from arityopt.algorithms import ALGORITHMS

OUTPUTS = ("runs.csv", "runs.summary.csv", "runs.report.json", "runs.instances.json")

RUN_DIGESTS = {
    ("binary_onemax", "onemax"): (
        "55a9a20c8ede67f1367b41ef3a6b3b6666ec3056e19ceea0e4a299b8bc7b762e",
        "6b1dc9fce99749c99cfeda491a868e52a7598e07eab60e821d01ccab8a504d0a",
        "12893ff1b0d26fbbadc8cb746c48140b584a991dc77f8833af08b00d217c6207",
        "78bbf4468d5920e187156d88a05713e913c6a60ab5174ab43dbc8d72ad27d9dc",
    ),
    ("binary_onemax", "monotone"): (
        "1937dce22cb28d836d9cb0727c7ddfdd37ccd991f13c0bba2d4abaf403d89233",
        "3224148578ac4bd7a84053ec54ada48f39790e2b5c2a32157d58a78d5cd15441",
        "2ac5fe309540ce685ac28f3b365ea69d645c7eeb3230735b1752c6b52aad86ab",
        "6ec124f94f234c11163c2cd055d69e888e1dfb501e6158f6d7d57b88e5521aa3",
    ),
    ("star_ary_onemax", "onemax"): (
        "0ac58f80378f4dff5f49d4a119179a582501840d7fde96dbe066862f16a492c7",
        "01602b7ad86faca2ac1a1ce85d408a353252c89cbf836e10dd07b54cfcc62597",
        "1334e30f3f8db78972bd18d02ba49807ad99f88a914138b2f5fa252e0fd6e932",
        "78bbf4468d5920e187156d88a05713e913c6a60ab5174ab43dbc8d72ad27d9dc",
    ),
    ("kary_onemax", "onemax"): (
        "785d385b863ac21188b71483370e0b4e025eabcd278f84c3da2bfee198dc7867",
        "319763dec0a76ca8431af25e5a94af6355446cf67c1573eaa428a44e313619d3",
        "2246f1c7847854fa33d1fa45af8ae96cda3812cceec94c491fd964c9874e9fb4",
        "78bbf4468d5920e187156d88a05713e913c6a60ab5174ab43dbc8d72ad27d9dc",
    ),
    ("binary_leadingones", "leadingones"): (
        "55b7e37a426466e05fd2fe2a159169ffe4ed9dc806d45818de7507919693c44d",
        "1b16e40004cc1250ba8682a67e47c9c852586bbd5f4852acb219629ab7d4d752",
        "8b6d4cd5c075656597ed37337245e986d2e8bac76a9023bb1e78a49b75c8c87c",
        "2b1a85071c5b3c6e607b39d6541eccb64a94b73b98e2be10ee800d51beec3dff",
    ),
    ("rls", "onemax"): (
        "747b82d9b925e1bef640b779b9ef7f5e98ed0fc9067913c9ef48c7616f7126a1",
        "7bd02f37999cd5866db5ce652eb1d1ab5d2c52241d2bc4a1aadf36b0b4dbe578",
        "89c0ec1267f5f19cbffc9ab416c3b30a8fe1afd387bcd935fafda7af302560a9",
        "78bbf4468d5920e187156d88a05713e913c6a60ab5174ab43dbc8d72ad27d9dc",
    ),
    ("rls", "leadingones"): (
        "0d534be25edb0b29cb2b6208ec31a13a945dd5071a62da695b1512b8543fadb2",
        "5fdab676a9cedc9540f5416bcc3b51a9d117b26d083956f758d92805030c5c46",
        "f876d5eb37bb6b2c12266849a02c2a34ef781812b5366c848961fb8ecfdb02b2",
        "2b1a85071c5b3c6e607b39d6541eccb64a94b73b98e2be10ee800d51beec3dff",
    ),
}

BUDGET_HIT_DIGESTS = {
    ("rls", "leadingones", "30"): (
        "79967fee6f0b847e645a5201f8941c98abeb8427846bd820ee7efeedea32bb7b",
        "e9fdc6a726f45eb33a0f8be7b94c98342cc6bfafad2c16c05cc7b066a4048e3e",
        "b4c7cb3b2a1105df73ecdd19104d04cf14f9e68342980d7d839cb3dce05159c1",
        "2b1a85071c5b3c6e607b39d6541eccb64a94b73b98e2be10ee800d51beec3dff",
    ),
}

VERIFY_UNBIASED_DIGEST = "cf747cb71742337b9aaf6d52caa4726d6eba99d188f84059fdffef596ef6fabc"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_pair_is_pinned():
    pairs = {(name, c) for name, spec in ALGORITHMS.items() for c in spec.classes}
    assert pairs == set(RUN_DIGESTS)


def run_digests(tmp_path, capsys, algorithm, class_name, *extra):
    args = ["run", "--algorithm", algorithm, "--class", class_name, "--n", "8",
            "--trials", "3", "--seed", "0", "--out", str(tmp_path / "runs.csv"),
            "--debug-instances", *extra]
    if ALGORITHMS[algorithm].k is None:
        args += ["--k", "4"]
    assert cli.main(args) == cli.EXIT_OK
    capsys.readouterr()
    return tuple(sha256((tmp_path / name).read_bytes()) for name in OUTPUTS)


@pytest.mark.parametrize("algorithm,class_name", sorted(RUN_DIGESTS))
def test_run_outputs(algorithm, class_name, tmp_path, capsys):
    got = run_digests(tmp_path, capsys, algorithm, class_name)
    assert got == RUN_DIGESTS[algorithm, class_name]


@pytest.mark.parametrize("algorithm,class_name,budget", sorted(BUDGET_HIT_DIGESTS))
def test_budget_hit_outputs(algorithm, class_name, budget, tmp_path, capsys):
    got = run_digests(tmp_path, capsys, algorithm, class_name, "--budget", budget)
    assert got == BUDGET_HIT_DIGESTS[algorithm, class_name, budget]
    with open(tmp_path / "runs.csv") as fh:
        flags = [line.rstrip("\n").split(",")[-2:] for line in fh][1:]
    assert flags == [["false", "true"], ["false", "true"], ["true", "false"]]


def test_verify_unbiased_stdout(capsys):
    assert cli.main(["verify-unbiased", "--n", "6", "--trials", "5"]) == cli.EXIT_OK
    assert sha256(capsys.readouterr().out.encode()) == VERIFY_UNBIASED_DIGEST
