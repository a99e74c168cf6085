"""Echo the acceptance criterion verdicts after the run, outside capture,
and fix the Hypothesis settings of the property tests."""

from hypothesis import settings

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
