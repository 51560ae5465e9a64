"""Time the central characters (class_algebra_data) of two source trees.

    python3 scripts/bench_class_algebra.py --tree parent=PATH --tree change=. \
        --output BENCH.json

Each --tree names a checkout (LABEL=PATH) whose reflectra package is
imported from PATH/src.  Every round starts one fresh interpreter per tree,
alternating which tree goes first, with one BLAS thread (benchtrees.py).
The interpreter builds each group of GROUPS with its classes (all the
class-algebra route reads of it), then times `class_algebra_data` REPEATS times, keeping the
best; the record holds the median over ROUNDS rounds of those best times,
in ms, and the class sums taken and kept (from the DEBUG record of the last
call).  For each of RSS_GROUPS, a separate fresh interpreter per tree and
round times one `class_algebra_data` call, its first, and reports its peak
RSS (`ru_maxrss`) before and after it.  Orders above the default cap are
built with the cap raised.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from benchtrees import alternate, main, run_in

# the three groups of the class-algebra-wide workload (k = 98-171) and
# G(5,1,4) (k = 190), two groups with k = 726 and 918, two with h = 2
# scalar blocks: G(2,1,6) (k = 65) and G(2,2,8) (order 5,160,960, class
# sums over classes of up to 8,960 elements), G(3,1,5) (h = 3, one block
# mirrored) and G(6,2,5) (p > 1 with n > p, so diagonal classes of
# codimension above p exist)
GROUPS = (
    (6, 2, 4), (4, 1, 4), (6, 1, 3), (5, 1, 4), (8, 1, 4), (6, 1, 5),
    (2, 1, 6), (2, 2, 8), (3, 1, 5), (6, 2, 5),
)
RSS_GROUPS = ((2, 2, 8), (8, 1, 4), (6, 1, 5))
RAISED_CAP = 10**7
ROUNDS = 5
REPEATS = 5

PREPARE = """
import json, logging, re, resource, sys, time
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
groups, repeats, cap = json.loads(sys.argv[1])
best = {}
for r, p, n in groups:
    group = prepared(r, p, n, cap)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        class_algebra_data(group)
        times.append(time.perf_counter() - start)
    best[str(group.params)] = [len(group.conjugacy), min(times) * 1e3, *counts.counts]
print(json.dumps(best))
"""

PEAK_RSS = PREPARE + """
(r, p, n), cap = json.loads(sys.argv[1])
group = prepared(r, p, n, cap)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
start = time.perf_counter()
class_algebra_data(group)
seconds = time.perf_counter() - start
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([seconds * 1e3, before, after]))
"""


def measure(trees: dict[str, Path]) -> dict:
    def once(tree: Path):
        timing = run_in(tree, TIMING, [GROUPS, REPEATS, RAISED_CAP])
        return timing, [run_in(tree, PEAK_RSS, [g, RAISED_CAP]) for g in RSS_GROUPS]

    runs = alternate(trees, ROUNDS, once)
    first = next(iter(trees))
    groups = []
    for name, (k, *_) in runs[first][0][0].items():
        row = {"group": name, "classes": k}
        for label in trees:
            best = [t[name] for t, _ in runs[label]]
            row[f"{label}_ms"] = statistics.median(ms for _, ms, _, _ in best)
            row[f"{label}_taken"], row[f"{label}_kept"] = best[0][2:]
        groups.append(row)
    rss = []
    for i, g in enumerate(RSS_GROUPS):
        row = {"group": "G({},{},{})".format(*g)}
        for label in trees:
            firsts = [p[i] for _, p in runs[label]]
            row[f"{label}_first_call_ms"] = statistics.median(m for m, _, _ in firsts)
            row[f"{label}_before_call_mb"] = statistics.median(b for _, b, _ in firsts)
            row[f"{label}_peak_mb"] = statistics.median(a for _, _, a in firsts)
        rss.append(row)
    return {"class_algebra_data": groups, "peak_rss": rss}


if __name__ == "__main__":
    main(
        __doc__.splitlines()[0],
        {
            "script": "scripts/bench_class_algebra.py",
            "what": "best-of-repeats class_algebra_data time, median over "
                    "rounds of fresh interpreters, 1 BLAS thread",
            "rounds": ROUNDS,
            "repeats": REPEATS,
        },
        measure,
    )
