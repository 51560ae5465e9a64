"""Time the per-element data and the class-algebra spectrum of a group in
two or more source trees.

    python3 scripts/bench_group_data.py --tree parent=PATH --tree change=. \
        --output BENCH.json

Each --tree names a checkout (LABEL=PATH) whose reflectra package is
imported from PATH/src.  Every round starts one fresh interpreter per tree
and group, alternating which tree goes first, with one BLAS thread
(benchtrees.py), once per phase:

* first calls: the interpreter builds the group (the cap raised), times the
  first call of each per-element fact, `codims`, `conjugacy` and
  `reflection_lengths` in that order, and reports its peak RSS
  (`ru_maxrss`);
* classes: the interpreter builds the group, then takes `conjugacy` and
  then `rational`, the class records of the `group` and `classes` commands,
  and reports the time of each (the first with the build) and its peak RSS;
* spectrum: the interpreter builds the group and runs only the
  class-algebra distance spectrum, and reports the time of both together
  and its peak RSS.

The record holds the median over ROUNDS rounds of each time, in ms, and of
each peak RSS, in MB, with the order and class count of each group.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from benchtrees import alternate, main, run_in

# the numeric-small G(2,1,3) of order 48, where the cycle-type table is
# about as large as the group, the two group-large orders of 23,040-46,080,
# the class-algebra-wide G(6,2,4), and orders 322,560-10,321,920 with few
# classes
GROUPS = (
    (2, 1, 3), (2, 1, 6), (2, 2, 6), (6, 2, 4), (2, 2, 7), (2, 1, 7),
    (2, 1, 8), (2, 2, 8),
)
STAGES = ("codims", "conjugacy", "reflection_lengths")
RAISED_CAP = 10**8
ROUNDS = 5

FIRST_CALLS = """
import json, resource, sys, time
from reflectra.groups import Group, GroupParams

(r, p, n), stages, cap = json.loads(sys.argv[1])
group = Group(GroupParams(r, p, n), max_order=cap)
times = []
for stage in stages:
    start = time.perf_counter()
    getattr(group, stage)
    times.append((time.perf_counter() - start) * 1e3)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([group.order, len(group.conjugacy), times, peak]))
"""

CLASSES = """
import json, resource, sys, time
from reflectra.groups import Group, GroupParams

(r, p, n), cap = json.loads(sys.argv[1])
start = time.perf_counter()
group = Group(GroupParams(r, p, n), max_order=cap)
group.conjugacy
middle = time.perf_counter()
group.rational
end = time.perf_counter()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([(middle - start) * 1e3, (end - middle) * 1e3, peak]))
"""

SPECTRUM = """
import json, resource, sys, time
from reflectra.groups import Group, GroupParams
from reflectra.spectra import distance_function, spectrum_class_algebra

(r, p, n), cap = json.loads(sys.argv[1])
start = time.perf_counter()
group = Group(GroupParams(r, p, n), max_order=cap)
spectrum_class_algebra(group, distance_function(group))
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([seconds * 1e3, peak]))
"""


def measure(trees: dict[str, Path]) -> dict:
    def once(tree: Path):
        return [run_in(tree, FIRST_CALLS, [g, STAGES, RAISED_CAP]) for g in GROUPS]

    def classes(tree: Path):
        return [run_in(tree, CLASSES, [g, RAISED_CAP]) for g in GROUPS]

    def spectra(tree: Path):
        return [run_in(tree, SPECTRUM, [g, RAISED_CAP]) for g in GROUPS]

    runs = alternate(trees, ROUNDS, once)
    class_runs = alternate(trees, ROUNDS, classes)
    spectrum_runs = alternate(trees, ROUNDS, spectra)
    first = next(iter(trees))
    rows = []
    for i, g in enumerate(GROUPS):
        order, classes, _, _ = runs[first][0][i]
        row = {"group": "G({},{},{})".format(*g), "order": order, "classes": classes}
        for label in trees:
            results = [run[i] for run in runs[label]]
            times = [t for _, _, t, _ in results]
            for j, stage in enumerate(STAGES):
                row[f"{label}_{stage}_ms"] = statistics.median(t[j] for t in times)
            row[f"{label}_total_ms"] = statistics.median(sum(t) for t in times)
            row[f"{label}_peak_mb"] = statistics.median(m for *_, m in results)
        for label in trees:
            results = [run[i] for run in class_runs[label]]
            for j, stage in enumerate(("conjugacy", "rational")):
                row[f"{label}_classes_{stage}_ms"] = statistics.median(
                    result[j] for result in results
                )
            row[f"{label}_classes_peak_mb"] = statistics.median(m for *_, m in results)
        for label in trees:
            results = [run[i] for run in spectrum_runs[label]]
            row[f"{label}_spectrum_ms"] = statistics.median(t for t, _ in results)
            row[f"{label}_spectrum_peak_mb"] = statistics.median(m for _, m in results)
        rows.append(row)
    return {"group_data": rows}


if __name__ == "__main__":
    main(
        __doc__.splitlines()[0],
        {
            "script": "scripts/bench_group_data.py",
            "what": "first-call times of codims, conjugacy and "
                    "reflection_lengths and peak RSS; group build plus "
                    "conjugacy, then rational, times and peak RSS; group "
                    "build plus class-algebra distance spectrum time and peak "
                    "RSS; median over rounds of fresh interpreters, 1 BLAS "
                    "thread",
            "rounds": ROUNDS,
        },
        measure,
    )
