"""Pytest hooks: a reproducible hypothesis profile, and the acceptance
criteria verdict lines printed last."""

from __future__ import annotations

import helpers

try:
    from hypothesis import settings
except ImportError:  # the property tests themselves then fail to import
    settings = None

if settings is not None:
    # Fixed examples on every run, and no example database on disk.
    settings.register_profile("reproducible", derandomize=True, database=None)
    settings.load_profile("reproducible")


def pytest_terminal_summary(terminalreporter):
    for title, lines in (("deep plans", helpers.REPORT_LINES),
                         ("acceptance criteria", helpers.ACCEPTANCE_LINES)):
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
