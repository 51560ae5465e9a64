"""Time the dense group-matrix build of two source trees, side by side.

    python3 scripts/bench_matrix_build.py --tree parent=PATH --tree change=. \
        --output BENCH.json

Each --tree names a checkout (LABEL=PATH) whose reflectra package is
imported from PATH/src.  Every round starts one fresh interpreter per tree,
alternating which tree goes first, with one BLAS thread.  The interpreter
enumerates each group of GROUPS, computes its codimension class function and
inverse map, and then times `build_matrix` REPEATS times, keeping the best;
the record holds the median over ROUNDS rounds of those best times, in ms.
For each of RSS_GROUPS, a separate fresh interpreter per tree and round
builds the matrix once and reports its peak RSS (`ru_maxrss`) before and
after the build.  Orders above the default caps are built with the caps
raised.  The JSON record also holds the machine, Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

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
from reflectra.spectra import build_matrix, codimension_function
groups, repeats, cap = json.loads(sys.argv[1])
best = {}
for r, p, n in groups:
    group = Group(GroupParams(r, p, n), max_order=cap)
    f = codimension_function(group)
    group.inverse_indices
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        build_matrix(group, f, max_size=cap)
        times.append(time.perf_counter() - start)
    best[str(group.params)] = [group.order, min(times) * 1e3]
print(json.dumps(best))
"""

PEAK_RSS = """
import json, resource, sys
from reflectra.groups import Group, GroupParams
from reflectra.spectra import build_matrix, codimension_function
(r, p, n), cap = json.loads(sys.argv[1])
group = Group(GroupParams(r, p, n), max_order=cap)
f = codimension_function(group)
group.inverse_indices
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
build_matrix(group, f, max_size=cap)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps([before, after]))
"""


def run_in(tree: Path, code: str, argument) -> object:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argument)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure(trees: dict[str, Path]) -> dict:
    times = {label: [] for label in trees}
    peaks = {(label, g): [] for label in trees for g in RSS_GROUPS}
    for round_ in range(ROUNDS):
        labels = list(trees) if round_ % 2 == 0 else list(reversed(trees))
        for label in labels:
            timing = [GROUPS, REPEATS, RAISED_CAP]
            times[label].append(run_in(trees[label], TIMING, timing))
            for g in RSS_GROUPS:
                peaks[label, g].append(run_in(trees[label], PEAK_RSS, [g, RAISED_CAP]))
    first = next(iter(trees))
    groups = []
    for name, (order, _) in times[first][0].items():
        row = {"group": name, "order": order}
        for label in trees:
            row[f"{label}_ms"] = statistics.median(t[name][1] for t in times[label])
        groups.append(row)
    rss = []
    for g in RSS_GROUPS:
        row = {"group": "G({},{},{})".format(*g)}
        for label in trees:
            runs = peaks[label, g]
            row[f"{label}_before_build_mb"] = statistics.median(b for b, _ in runs)
            row[f"{label}_peak_mb"] = statistics.median(a for _, a in runs)
        rss.append(row)
    return {"build_matrix": groups, "peak_rss": rss}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="LABEL=PATH of a source checkout; give two or more")
    parser.add_argument("--output", required=True, type=Path)
    args = parser.parse_args()
    trees = {}
    for item in args.tree:
        label, _, path = item.partition("=")
        trees[label] = Path(path).resolve()
    record = {
        "script": "scripts/bench_matrix_build.py",
        "what": "best-of-repeats build_matrix time (codimension class function), "
                "median over rounds of fresh interpreters, 1 BLAS thread",
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        **measure(trees),
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
