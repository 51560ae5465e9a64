"""The benchmark's tracer wraps reflectra functions by name and skips a name
that no longer resolves, so a rename would silently zero a per-layer metric.
These tests fail instead: every traced name must exist in the package."""

import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reflectra import groups
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


def test_bfs_is_one_function_bound_in_both_modules():
    # The tracer wraps reflections.bfs_word_lengths and rebinds it by
    # identity, which reaches the calls through the other modules' names
    # only while they hold the same function.  (The module is imported by
    # name, as the tracer looks it up.)
    reflections = importlib.import_module("reflectra.reflections")
    assert groups.bfs_word_lengths is reflections.bfs_word_lengths


def test_installed_tracer_records_the_reflection_bfs():
    # In a subprocess, so that the wrapping does not leak into other tests.
    script = (
        "import json\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from reflectra.groups import Group, GroupParams\n"
        "from reflectra.spectra import distance_matrix_bfs, standard_connection\n"
        "group = Group(GroupParams(2, 2, 3))\n"
        "distance_matrix_bfs(group, standard_connection(group))\n"
        "spans = [span[0] for span in tracer.spans]\n"
        "print(json.dumps({'bfs_spans': spans.count('reflections.bfs'),\n"
        "                  'bfs_calls': tracer.counts['reflections.bfs_calls']}))\n"
    )
    src = Path(groups.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PERFBENCH), str(src)])}
    done = subprocess.run(
        [sys.executable, "-B", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"bfs_spans": 1, "bfs_calls": 1}
