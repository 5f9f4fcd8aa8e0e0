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
        "acaf3960e11b957650d0cf0f9c89277fc7db4689439fe3b564b804f9fb38748b",
        "d8aca61277cbbf301e676a33d0fae2319096e655b923726c18532c5b5f2bffff",
        "0dd484d4c4717fb99e68ad6f6b0e0c160764f58789e1675b6eb3bdcc7e443d0a",
        "db2577a5c4ed3ea1185ccf4259f1e6a25a241cea20d60d368ef5fecfe0fef41f",
    ),
    ("rls", "onemax"): (
        "747b82d9b925e1bef640b779b9ef7f5e98ed0fc9067913c9ef48c7616f7126a1",
        "7bd02f37999cd5866db5ce652eb1d1ab5d2c52241d2bc4a1aadf36b0b4dbe578",
        "89c0ec1267f5f19cbffc9ab416c3b30a8fe1afd387bcd935fafda7af302560a9",
        "78bbf4468d5920e187156d88a05713e913c6a60ab5174ab43dbc8d72ad27d9dc",
    ),
    ("rls", "leadingones"): (
        "59fc2ebefcb95e80e1dc300daf2b4896b0873c6809cfda596c31db08e981dea0",
        "430c391ac06a375987d16313dcadb30f28d291280f220544d4f506dfd9904a8e",
        "9dde8c6a91e3ca977bf3bd869303bf02f2aec802d9080b5dfd8dc1df9f3e9244",
        "db2577a5c4ed3ea1185ccf4259f1e6a25a241cea20d60d368ef5fecfe0fef41f",
    ),
}

BUDGET_HIT_DIGESTS = {
    ("rls", "leadingones", "30"): (
        "79967fee6f0b847e645a5201f8941c98abeb8427846bd820ee7efeedea32bb7b",
        "e9fdc6a726f45eb33a0f8be7b94c98342cc6bfafad2c16c05cc7b066a4048e3e",
        "b4c7cb3b2a1105df73ecdd19104d04cf14f9e68342980d7d839cb3dce05159c1",
        "db2577a5c4ed3ea1185ccf4259f1e6a25a241cea20d60d368ef5fecfe0fef41f",
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
