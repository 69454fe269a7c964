from hypothesis import settings

# CI selects this profile (--hypothesis-profile=ci): the same examples on
# every run, so a property cannot pass on one push and fail on the next
settings.register_profile("ci", derandomize=True)

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    """Echo acceptance verdict lines after the run, capture or not."""
    if acceptance_lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
