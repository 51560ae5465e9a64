"""The verification registry: every suite builds checks and every check
passes."""

import pytest

from reflectra.verify import SUITE_NAMES, checks_for_suite, run_suite


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_builds_checks(suite):
    assert checks_for_suite(suite)


def test_all_checks_pass():
    report = run_suite("all")
    failures = [f"{r.name}: {r.detail}" for r in report.failures()]
    assert not failures
