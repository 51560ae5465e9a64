"""The verification registry: every suite builds checks, every check
passes, and the table expands to the same named checks in the same order."""

import hashlib

import pytest

from reflectra.verify import SUITE_NAMES, checks_for_suite, run_suite


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_builds_checks(suite):
    assert checks_for_suite(suite)


def test_all_checks_pass():
    report = run_suite("all")
    failures = [f"{r.name}: {r.detail}" for r in report.results if not r.passed]
    assert not failures


def test_registry_names_criteria_and_order_are_pinned():
    checks = checks_for_suite("all")
    assert len(checks) == 689
    counts = [len(checks_for_suite(suite)) for suite in SUITE_NAMES[:-1]]
    assert counts == [12, 6, 189, 58, 99, 59, 154, 112]
    listing = "\n".join(f"{name} {criterion}" for name, criterion, _ in checks)
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "5df1014cd56353ead44e6868dff2f09170d0122fb33a3bd9eaf2aa8eaba4484f"
    )
