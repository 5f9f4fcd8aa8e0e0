"""The program runs on numpy alone: scipy is a test dependency only.

Each check starts a fresh interpreter, so modules that this test session
has already imported (scipy among them) do not hide an import.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(code: str) -> subprocess.CompletedProcess:
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=300
    )


def test_cli_import_loads_no_scipy():
    proc = run_python(
        "import arityopt.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_commands_run_with_scipy_unimportable():
    # a None entry makes every import of scipy raise ImportError, a lazy one
    # inside a function included; n = 20 takes the statistical certifier
    proc = run_python(
        "sys.modules['scipy'] = None\n"
        "from arityopt import cli\n"
        "assert cli.main(['check-bound', '--n', '1048576']) == 0\n"
        "assert cli.main(['verify-unbiased', '--n', '20', '--trials', '2']) == 0\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "bound: holds" in proc.stdout
    assert "statistical" in proc.stdout
    assert "verify-unbiased: ok" in proc.stdout
