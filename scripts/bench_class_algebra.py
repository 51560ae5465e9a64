"""Time the central characters (class_algebra_data) of two source trees.

    python3 scripts/bench_class_algebra.py --tree parent=PATH --tree change=. \
        --output BENCH.json

Each --tree names a checkout (LABEL=PATH) whose reflectra package is
imported from PATH/src.  For each group of GROUPS, every round starts one
fresh interpreter per tree, alternating which tree goes first, with one
BLAS thread (benchtrees.py).  The interpreter builds the group with its
classes (all the class-algebra route reads of it), then times
`class_algebra_data` REPEATS times, keeping the best; the record holds the
median over ROUNDS rounds of those best times, in ms, and the class sums
taken and kept (from the DEBUG record of the last call).  Beside the
medians it holds, for each later tree, the median over rounds of the
per-round ratio of the first tree's time to that tree's: the interpreters
of one group and round run back to back, seconds apart, so the ratio
resolves calls of a few ms that the host's drift between rounds hides in
the medians.  For each of RSS_GROUPS, a separate fresh interpreter per tree
and round times one `class_algebra_data` call, its first, and reports its peak
RSS (`ru_maxrss`) before and after it, and the call's own peak of traced
allocations (`tracemalloc`), which no heap layout or earlier allocation
moves.  The call runs traced, so its time and RSS include tracemalloc's cost,
alike for every tree.  Orders above the default cap are built with the cap
raised.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from benchtrees import alternate, main, run_in

# the three groups of the class-algebra-wide workload (k = 98-171) and
# G(5,1,4) (k = 190), two groups with k = 726 and 918, two with h = 2
# scalar blocks: G(2,1,6) (k = 65) and G(2,2,8) (order 5,160,960, class
# sums over classes of up to 8,960 elements), G(3,1,5) (h = 3, two blocks
# twisted) and G(6,2,5) (p > 1 with n > p, so diagonal classes of
# codimension above p exist), and G(8,4,3) and G(10,5,3) (p > 1, h = 2 and
# n odd, so block 1 is twisted from block 0 by det)
GROUPS = (
    (6, 2, 4), (4, 1, 4), (6, 1, 3), (5, 1, 4), (8, 1, 4), (6, 1, 5),
    (2, 1, 6), (2, 2, 8), (3, 1, 5), (6, 2, 5), (8, 4, 3), (10, 5, 3),
)
RSS_GROUPS = ((2, 2, 8), (8, 1, 4), (6, 1, 5))
RAISED_CAP = 10**7
ROUNDS = 5
REPEATS = 5

PREPARE = """
import json, logging, re, resource, sys, time, tracemalloc
from reflectra.groups import Group, GroupParams
from reflectra.spectra import class_algebra_data


class Counts(logging.Handler):
    def emit(self, record):
        found = re.search(r"(\\d+) class sums taken, (\\d+) kept", record.getMessage())
        self.counts = [int(found[1]), int(found[2])]


counts = Counts()
logging.getLogger("reflectra.spectra").addHandler(counts)
logging.getLogger("reflectra.spectra").setLevel(logging.DEBUG)


def prepared(r, p, n, cap):
    group = Group(GroupParams(r, p, n), max_order=cap)
    group.conjugacy
    return group
"""

TIMING = PREPARE + """
(r, p, n), repeats, cap = json.loads(sys.argv[1])
group = prepared(r, p, n, cap)
times = []
for _ in range(repeats):
    start = time.perf_counter()
    class_algebra_data(group)
    times.append(time.perf_counter() - start)
print(json.dumps([len(group.conjugacy), min(times) * 1e3, *counts.counts]))
"""

PEAK_RSS = PREPARE + """
(r, p, n), cap = json.loads(sys.argv[1])
group = prepared(r, p, n, cap)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
tracemalloc.start()
start = time.perf_counter()
class_algebra_data(group)
seconds = time.perf_counter() - start
traced = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([seconds * 1e3, before, after, traced]))
"""


def measure(trees: dict[str, Path]) -> dict:
    first = next(iter(trees))
    groups = []
    for g in GROUPS:
        runs = alternate(
            trees, ROUNDS,
            lambda tree, g=g: run_in(tree, TIMING, [g, REPEATS, RAISED_CAP]),
        )
        row = {"group": "G({},{},{})".format(*g), "classes": runs[first][0][0]}
        ms = {label: [run[1] for run in runs[label]] for label in trees}
        for label in trees:
            row[f"{label}_ms"] = statistics.median(ms[label])
            row[f"{label}_taken"], row[f"{label}_kept"] = runs[label][0][2:]
        for label in list(trees)[1:]:
            row[f"{first}/{label}_ratio"] = statistics.median(
                a / b for a, b in zip(ms[first], ms[label])
            )
        groups.append(row)
    rss = []
    for g in RSS_GROUPS:
        runs = alternate(
            trees, ROUNDS, lambda tree, g=g: run_in(tree, PEAK_RSS, [g, RAISED_CAP])
        )
        row = {"group": "G({},{},{})".format(*g)}
        for label in trees:
            calls, before, peaks, traced = zip(*runs[label])
            row[f"{label}_first_call_ms"] = statistics.median(calls)
            row[f"{label}_before_call_mb"] = statistics.median(before)
            row[f"{label}_peak_mb"] = statistics.median(peaks)
            row[f"{label}_traced_peak_mb"] = statistics.median(traced)
        rss.append(row)
    return {"class_algebra_data": groups, "peak_rss": rss}


if __name__ == "__main__":
    main(
        __doc__.splitlines()[0],
        {
            "script": "scripts/bench_class_algebra.py",
            "what": "best-of-repeats class_algebra_data time, median over "
                    "rounds of fresh interpreters, and the median over rounds "
                    "of the first tree's time over each other tree's, 1 BLAS "
                    "thread",
            "rounds": ROUNDS,
            "repeats": REPEATS,
        },
        measure,
    )
