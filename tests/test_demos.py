"""Every demo script runs to the end and prints something.

Each ``demos/*.py`` is loaded with ``runpy`` in this process (not as
``__main__``, so its own entry point stays idle) and its ``main()`` called,
which saves a fresh interpreter and import per demo.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs_and_prints(path, capsys):
    namespace = runpy.run_path(str(path), run_name=path.stem)
    assert namespace["main"]() is None
    assert capsys.readouterr().out.strip()
