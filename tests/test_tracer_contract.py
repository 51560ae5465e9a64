"""The benchmark's tracer wraps reflectra functions by name and skips a name
that no longer resolves, so a rename would silently zero a per-layer metric.
These tests fail instead: every traced name must exist in the package."""

import functools
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from reflectra.groups import Group

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    # Import without writing bytecode into perfbench/, and drop the module
    # again afterwards.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    module = importlib.import_module("tracer")
    yield module
    sys.modules.pop("tracer", None)


def test_every_traced_function_resolves(tracer):
    missing = [
        f"{home}.{name}"
        for home, name in tracer.FUNCTIONS
        if not callable(getattr(importlib.import_module(home), name, None))
    ]
    assert not missing
    assert all(home.startswith("reflectra.") for home, _ in tracer.FUNCTIONS)


def test_every_traced_group_member_exists(tracer):
    assert set(tracer.GROUP_MEMBERS) <= set(vars(Group))


def test_every_traced_group_member_is_wrappable(tracer):
    # The tracer wraps plain functions and cached properties; it skips a
    # plain property silently, which would zero that layer's time.
    members = {name: vars(Group)[name] for name in tracer.GROUP_MEMBERS}
    assert isinstance(members["conjugacy"], functools.cached_property)
    assert isinstance(members["rational"], functools.cached_property)
    assert all(
        isinstance(value, functools.cached_property) or inspect.isfunction(value)
        for value in members.values()
    )
