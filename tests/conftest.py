"""Echo the acceptance criterion verdicts after the run, outside capture,
and fix the Hypothesis settings of the property tests."""

import os
from pathlib import Path

from hypothesis import settings

# Fresh interpreters and `python -m spectens` runs started by the tests find
# the package in src/, as the test process does through the pythonpath
# setting in pyproject.toml.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# The same examples on every run, and no per-example deadline, so that the
# property tests pass or fail deterministically on a loaded machine.
settings.register_profile("default", derandomize=True, deadline=None)
settings.load_profile("default")

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
