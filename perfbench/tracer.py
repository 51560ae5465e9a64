"""Spans around the public functions at each reflectra layer boundary.

The tracer wraps functions from the benchmark's side; the package itself is
not changed.  Each wrapper replaces the original in every reflectra module
that binds it (`build_matrix` is bound in both `spectra` and `cli`, for
instance), so calls through any of those names are recorded.  The `Group`
constructor and its `conjugacy` and `rational` properties are wrapped on the
class.  Per-element helpers (`codim`, `cycle_type`, `multiply`) and
per-tuple helpers stay unwrapped: they run |G| or #tuples times per request.

A function that no longer exists is skipped, so its layer reports zero
calls.  Spans stay in memory; a layer's self time is the total duration of
its spans minus the time their child spans cover.  The tracing overhead of a
pass is its span count times the measured cost of one traced call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) -> span name.  Self time sums per span name.
FUNCTIONS = {
    ("reflectra.reflections", "reflections"): "reflections.scan",
    ("reflectra.reflections", "reflection_length_table"): "reflections.scan",
    ("reflectra.reflections", "bfs_word_lengths"): "reflections.bfs",
    ("reflectra.spectra", "adjacency_function"): "spectra.class_function",
    ("reflectra.spectra", "distance_function"): "spectra.class_function",
    ("reflectra.spectra", "codimension_function"): "spectra.class_function",
    ("reflectra.spectra", "all_reflections_connection"): "spectra.class_function",
    ("reflectra.spectra", "standard_connection"): "spectra.class_function",
    ("reflectra.spectra", "build_matrix"): "spectra.matrix_build",
    ("reflectra.spectra", "adjacency_matrix"): "spectra.matrix_build",
    ("reflectra.spectra", "distance_matrix_bfs"): "spectra.matrix_build",
    ("reflectra.spectra", "matrix_from_element_values"): "spectra.matrix_build",
    ("reflectra.spectra", "jacobi_eigenvalues"): "spectra.eigensolve",
    ("reflectra.spectra", "spectrum_numeric"): "spectra.round",
    ("reflectra.spectra", "spectrum_class_algebra"): "spectra.round",
    ("reflectra.spectra", "class_structure_constants"): "spectra.structure_constants",
    ("reflectra.spectra", "class_algebra_data"): "spectra.central_characters",
    ("reflectra.partitions", "enumerate_partition_tuples"): "partitions.enumerate",
    ("reflectra.partitions", "codim_spectrum_entries"): "partitions.eigenvalues",
    ("reflectra.partitions", "codim_spectrum_combinatorial"): "partitions.eigenvalues",
}

GROUP_MEMBERS = {
    "__init__": "groups.enumerate",
    "conjugacy": "groups.conjugacy",
    "rational": "groups.rational",
}

REQUEST_SPAN = "cli"

SPAN_NAMES = sorted(
    set(FUNCTIONS.values()) | set(GROUP_MEMBERS.values()) | {REQUEST_SPAN}
)

COUNTERS = (
    "groups.elements",
    "reflections.bfs_calls",
    "spectra.matrix_bytes",
    "spectra.eigensolve_calls",
    "spectra.structure_constants_bytes",
    "spectra.class_algebra_calls",
    "partitions.tuples",
    "cli.output_bytes",
)


class Tracer:
    """Span recorder; spans are [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNTERS}
        self._open: list[int] = []

    def start(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def add(self, name: str, amount) -> None:
        self.counts[name] += amount

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in FUNCTIONS and the Group members."""
        for (home, name), span in FUNCTIONS.items():
            try:
                module = importlib.import_module(home)
            except ImportError:
                continue
            original = getattr(module, name, None)
            if original is None:
                continue
            traced = self.wrap(original, span, _COUNTS.get(name))
            for module_name, binder in list(sys.modules.items()):
                if module_name != "reflectra" and not module_name.startswith("reflectra."):
                    continue
                for attr, value in list(vars(binder).items()):
                    if value is original:
                        setattr(binder, attr, traced)
        groups = importlib.import_module("reflectra.groups")
        group_class = getattr(groups, "Group", None)
        if group_class is not None:
            for member, span in GROUP_MEMBERS.items():
                self._wrap_member(group_class, member, span)

    def _wrap_member(self, cls, member: str, span: str) -> None:
        count = _count_elements if member == "__init__" else None
        value = cls.__dict__.get(member)
        if isinstance(value, functools.cached_property):
            wrapped = functools.cached_property(self.wrap(value.func, span))
            wrapped.__set_name__(cls, member)
        elif callable(value):
            wrapped = self.wrap(value, span, count)
        else:
            return
        setattr(cls, member, wrapped)

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer metric: each span less its direct children."""
        totals = {name: 0.0 for name in SPAN_NAMES}
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return {
            ("cli.self_s" if name == REQUEST_SPAN else f"{name}_s"): seconds
            for name, seconds in totals.items()
        }


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds over a plain call: the fastest of
    `repeats` timings of `calls` calls to a traced no-op, less the fastest
    timing of as many plain calls."""

    def noop():
        return None

    traced = Tracer().wrap(noop, REQUEST_SPAN)
    fastest = {traced: float("inf"), noop: float("inf")}
    for _ in range(repeats):
        for fn in fastest:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            fastest[fn] = min(fastest[fn], time.perf_counter() - start)
    return max(0.0, fastest[traced] - fastest[noop]) / calls


def _count_elements(tracer: Tracer, args, result) -> None:
    tracer.add("groups.elements", args[0].order)


def _count_matrix(tracer: Tracer, args, result) -> None:
    tracer.add("spectra.matrix_bytes", args[0].order ** 2 * 8)


def _count_structure_constants(tracer: Tracer, args, result) -> None:
    tracer.add("spectra.structure_constants_bytes", result.shape[0] ** 3 * 8)


_COUNTS = {
    "bfs_word_lengths": lambda t, a, r: t.add("reflections.bfs_calls", 1),
    "matrix_from_element_values": _count_matrix,
    "jacobi_eigenvalues": lambda t, a, r: t.add("spectra.eigensolve_calls", 1),
    "class_structure_constants": _count_structure_constants,
    "class_algebra_data": lambda t, a, r: t.add("spectra.class_algebra_calls", 1),
    "enumerate_partition_tuples": lambda t, a, r: t.add("partitions.tuples", len(r)),
}
