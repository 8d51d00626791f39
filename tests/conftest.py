"""Imports ``crowdaug`` before anything imports NumPy, and prints one
PASS/FAIL line per acceptance criterion in the terminal summary.

Importing ``crowdaug`` pins BLAS to one thread unless the environment says
otherwise, and the pin holds only if NumPy is imported after it. The thread
count moves the last bits of the results, so every run of the suite uses the
same one; the acceptance fixtures' two worker processes of two BLAS threads
each took 2-3x the wall time of a serial run on two cores.

Each criterion test in test_acceptance.py registers a measurement string
(value vs. tolerance) in CRITERION_DETAILS; the hook below pairs those with
the test outcomes so the summary is readable even when output is captured.
"""
import re
import sys

import crowdaug  # noqa: F401  (before NumPy: see above)

_CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    details = getattr(mod, "CRITERION_DETAILS", {}) if mod else {}

    rows = {}
    for key, status in (("passed", "PASS"), ("failed", "FAIL"),
                        ("error", "FAIL (setup error)")):
        for rep in terminalreporter.stats.get(key, []):
            m = _CRITERION.search(rep.nodeid)
            if m:
                rows[int(m.group(1))] = status
    if not rows:
        return

    terminalreporter.section("acceptance criteria")
    for num in sorted(rows):
        detail = details.get(num, "see failure detail above")
        terminalreporter.write_line(
            f"criterion {num:02d} {rows[num]} — {detail}")
