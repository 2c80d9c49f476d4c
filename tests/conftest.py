"""Suite-wide pytest hooks.

The acceptance tests in test_acceptance.py each stand for one package
guarantee; the hook below prints an explicit PASS/FAIL line per guarantee
so the verdicts are visible in plain terminal output.

Hypothesis keeps its example database and caches under a home directory
that defaults to the working directory; pinning it to the checkout (which
ignores it) means a run started elsewhere leaves nothing behind there.
"""

from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(__file__).resolve().parent.parent / ".hypothesis")


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {verdict}")
