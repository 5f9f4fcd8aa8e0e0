"""The suite's wall time in units of ``perfbench/calibrate.kernel``.

A machine's speed drifts by tens of percent between test runs and within one,
so raw suite times cannot be compared across runs.  One kernel call is timed
when the run starts and after every ``KERNEL_EVERY``-th test, and the terminal
summary reports the suite's wall time, less those calls, over their median: a
figure meant to move with the code rather than with the machine.  The kernel
is sampled throughout the run, not at its start and end only, because two
instants miss the drift between them.  Nothing here changes which tests run
or what they assert.
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from pathlib import Path

_CALIBRATE = Path(__file__).resolve().parent.parent / "perfbench" / "calibrate.py"
# About 100 calls over the whole suite, 0.3 s in all.
KERNEL_EVERY = 8
_session: dict = {}


def pytest_sessionstart(session):
    if not _CALIBRATE.is_file():  # a copy of the tests without the benchmark
        return
    spec = importlib.util.spec_from_file_location("perfbench_calibrate", _CALIBRATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _session.update(timed_kernel=module.timed_kernel, tests=0, start=time.perf_counter(),
                    kernels=[module.timed_kernel()])


def pytest_runtest_logfinish(nodeid, location):
    if "kernels" not in _session:
        return
    _session["tests"] += 1
    if _session["tests"] % KERNEL_EVERY == 0:
        _session["kernels"].append(_session["timed_kernel"]())


def pytest_terminal_summary(terminalreporter):
    if "kernels" not in _session:
        return
    kernels = _session["kernels"]
    wall = time.perf_counter() - _session["start"] - sum(kernels)
    kernel = statistics.median(kernels)
    terminalreporter.write_line(
        f"suite wall time {wall:.1f} s = {wall / kernel:,.0f} calibration kernels "
        f"(median of {len(kernels)} kernel calls spread over the run: {kernel * 1e3:.2f} ms)"
    )
