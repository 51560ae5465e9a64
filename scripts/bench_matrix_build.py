"""Time the dense group-matrix build of two source trees, side by side.

    python3 scripts/bench_matrix_build.py --tree parent=PATH --tree change=. \
        --output BENCH.json

Each --tree names a checkout (LABEL=PATH) whose reflectra package is
imported from PATH/src.  Every round starts one fresh interpreter per tree,
alternating which tree goes first, with one BLAS thread (benchtrees.py).
The interpreter enumerates each group of GROUPS, computes its codimension
class function and inverse map, and then times `build_matrix` REPEATS
times, keeping the best; the record holds the median over ROUNDS rounds of
those best times, in ms.  For each of RSS_GROUPS, a separate fresh
interpreter per tree and round builds the matrix once and reports its peak
RSS (`ru_maxrss`) before and after the build.  Orders above the default
caps are built with the caps raised.  The JSON record also holds the
machine, Python and numpy versions.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from benchtrees import alternate, main, run_in

# the numeric-small orders 32-72, then larger orders up to and past the
# default cap of 1200: few permutations with many exponent rows, one
# exponent row (m = 1) with 720 permutations, and p > 1
GROUPS = (
    (4, 1, 2), (2, 1, 3), (3, 3, 3), (6, 1, 2), (3, 1, 3), (4, 2, 3),
    (2, 1, 4), (1, 1, 6), (5, 1, 3), (24, 1, 2), (1200, 1, 1), (2, 2, 5),
    (3, 1, 4), (2, 1, 5),
)
# one permutation's rows split across chunks (n = 1 and n = 2), and the
# largest matrix
RSS_GROUPS = ((1200, 1, 1), (24, 1, 2), (2, 1, 5))
RAISED_CAP = 10**6
ROUNDS = 5
REPEATS = 7

TIMING = """
import json, sys, time
from reflectra.groups import Group, GroupParams
from reflectra import spectra
from reflectra.spectra import build_matrix, codimension_function
groups, repeats, cap = json.loads(sys.argv[1])
spectra.DEFAULT_MATRIX_CAP = cap
best = {}
for r, p, n in groups:
    group = Group(GroupParams(r, p, n), max_order=cap)
    f = codimension_function(group)
    group.inverse_indices
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        build_matrix(group, f)
        times.append(time.perf_counter() - start)
    best[str(group.params)] = [group.order, min(times) * 1e3]
print(json.dumps(best))
"""

PEAK_RSS = """
import json, resource, sys
from reflectra.groups import Group, GroupParams
from reflectra import spectra
from reflectra.spectra import build_matrix, codimension_function
(r, p, n), cap = json.loads(sys.argv[1])
spectra.DEFAULT_MATRIX_CAP = cap
group = Group(GroupParams(r, p, n), max_order=cap)
f = codimension_function(group)
group.inverse_indices
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
build_matrix(group, f)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([before, after]))
"""


def measure(trees: dict[str, Path]) -> dict:
    def once(tree: Path):
        timing = run_in(tree, TIMING, [GROUPS, REPEATS, RAISED_CAP])
        return timing, [run_in(tree, PEAK_RSS, [g, RAISED_CAP]) for g in RSS_GROUPS]

    runs = alternate(trees, ROUNDS, once)
    first = next(iter(trees))
    groups = []
    for name, (order, _) in runs[first][0][0].items():
        row = {"group": name, "order": order}
        for label in trees:
            row[f"{label}_ms"] = statistics.median(t[name][1] for t, _ in runs[label])
        groups.append(row)
    rss = []
    for i, g in enumerate(RSS_GROUPS):
        row = {"group": "G({},{},{})".format(*g)}
        for label in trees:
            peaks = [p[i] for _, p in runs[label]]
            row[f"{label}_before_build_mb"] = statistics.median(b for b, _ in peaks)
            row[f"{label}_peak_mb"] = statistics.median(a for _, a in peaks)
        rss.append(row)
    return {"build_matrix": groups, "peak_rss": rss}


if __name__ == "__main__":
    main(
        __doc__.splitlines()[0],
        {
            "script": "scripts/bench_matrix_build.py",
            "what": "best-of-repeats build_matrix time (codimension class "
                    "function), median over rounds of fresh interpreters, "
                    "1 BLAS thread",
            "rounds": ROUNDS,
            "repeats": REPEATS,
        },
        measure,
    )
