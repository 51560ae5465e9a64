"""The bench scripts' measurement snippets, run on this tree as the scripts
run them (a fresh interpreter per snippet, through benchtrees.run_in), so a
change to what a snippet reads, such as the wording of a DEBUG record,
fails here instead of breaking the bench."""

import importlib
import sys
from pathlib import Path

import pytest

from reflectra.groups import Group, GroupParams
from reflectra.spectra import _class_sum_order, class_algebra_data

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    # Import without writing bytecode into scripts/, and drop the modules
    # again afterwards.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    for name in ("bench_class_algebra", "benchtrees"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("bench_class_algebra")
    for name in ("bench_class_algebra", "benchtrees"):
        sys.modules.pop(name, None)


def test_class_algebra_timing_snippet(bench):
    # [classes, best ms, class sums taken, kept], the counts parsed from the
    # DEBUG record of class_algebra_data
    group = Group(GroupParams(3, 1, 2))
    kept = class_algebra_data(group).class_sums
    taken = _class_sum_order(group).index(kept[-1]) + 1
    printed = bench.run_in(ROOT, bench.TIMING, [[3, 1, 2], 2, bench.RAISED_CAP])
    assert len(printed) == 4
    assert printed[0] == len(group.conjugacy)
    assert isinstance(printed[1], float) and printed[1] > 0
    assert printed[2:] == [taken, len(kept)]


def test_class_algebra_peak_rss_snippet(bench):
    # [first call ms, peak RSS MB before the call, after it, traced peak MB]
    printed = bench.run_in(ROOT, bench.PEAK_RSS, [[3, 1, 2], bench.RAISED_CAP])
    assert len(printed) == 4
    assert all(isinstance(x, float) and x > 0 for x in printed)
    ms, before, after, traced = printed
    assert before <= after
    assert traced < after
