"""Settings and reporting for the whole test session.

The networks under test are small, so every BLAS call is a small matmul.
OpenBLAS's extra worker threads buy nothing at these sizes, and when another
process shares the cores they spin against it. On 2 cores, a 60-iteration
``full`` ablation run took 3.5 s alone with either thread count; two such runs
side by side took 14.9 s each with OpenBLAS's default threads and 3.5-3.9 s
each with one thread, with the same mIoU to the last bit. One thread keeps
the acceptance gate's run time steady on a shared machine.

OpenBLAS reads the variable when numpy loads it, so it is set here, before
any test module imports numpy. Importing ``segan`` sets the same default,
but a test module may import numpy first. A value already in the
environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


# The acceptance gate prints one "criterion NN ..." line per criterion, with
# its measured quantities. pytest captures a passing test's output and never
# shows it, so the lines are collected from each test's captured stdout and
# repeated at the end of the run. Under ``-s`` nothing is captured and the
# lines have already gone to the terminal.
_CRITERIA: list[str] = []


def pytest_runtest_logreport(report):
    # a phase's report also carries the sections of the phases before it
    if "test_acceptance.py::" in report.nodeid:
        for title, text in report.sections:
            if title == f"Captured stdout {report.when}":
                _CRITERIA.extend(line for line in text.splitlines()
                                 if line.startswith("criterion "))


def pytest_terminal_summary(terminalreporter):
    if _CRITERIA:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERIA:
            terminalreporter.write_line(line)
