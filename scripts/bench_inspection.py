"""Time the inspection requests' per-element and per-class data in two or
more source trees.

    python3 scripts/bench_inspection.py --tree parent=PATH --tree change=. \
        --output BENCH.json

Each --tree names a checkout (LABEL=PATH) whose reflectra package is
imported from PATH/src.  Every round starts one fresh interpreter per tree
and group of GROUPS, alternating which tree goes first, with one BLAS
thread (benchtrees.py).  The interpreter sends the request
`lengths R P N --format csv` to the CLI in-process, as perfbench does, and
times it; then it builds the group again and times `rational` after
`conjugacy`.  The record holds the median over ROUNDS rounds of each time,
in ms, and the length of the CSV text.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from benchtrees import alternate, main, run_in

# the three groups of the group-large workload and G(6,2,4), whose 98
# classes take powers up to order 12
GROUPS = ((2, 1, 6), (2, 2, 6), (3, 1, 5), (6, 2, 4))
CAP = 50000
ROUNDS = 5

TIMING = """
import contextlib, io, json, os, sys, time

(r, p, n), cap = json.loads(sys.argv[1])
os.environ["REFLECTRA_MAX_ORDER"] = str(cap)
from reflectra.cli import main
from reflectra.groups import Group, GroupParams

buffer = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(buffer):
    main(args=["lengths", str(r), str(p), str(n), "--format", "csv"],
         prog_name="reflectra", standalone_mode=False)
request = time.perf_counter() - start
group = Group(GroupParams(r, p, n), max_order=cap)
group.conjugacy
start = time.perf_counter()
group.rational
rational = time.perf_counter() - start
print(json.dumps([request * 1e3, rational * 1e3, len(buffer.getvalue())]))
"""


def measure(trees: dict[str, Path]) -> dict:
    def once(tree: Path):
        return [run_in(tree, TIMING, [g, CAP]) for g in GROUPS]

    runs = alternate(trees, ROUNDS, once)
    rows = []
    for i, g in enumerate(GROUPS):
        row = {"group": "G({},{},{})".format(*g)}
        for label in trees:
            results = [run[i] for run in runs[label]]
            row[f"{label}_lengths_csv_ms"] = statistics.median(t for t, _, _ in results)
            row[f"{label}_rational_ms"] = statistics.median(t for _, t, _ in results)
            row[f"{label}_csv_chars"] = results[0][2]
        rows.append(row)
    return {"inspection": rows}


if __name__ == "__main__":
    main(
        __doc__,
        {
            "script": "scripts/bench_inspection.py",
            "what": "the in-process `lengths R P N --format csv` request, then "
                    "`rational` after `conjugacy`, median over rounds of "
                    "fresh interpreters, 1 BLAS thread",
            "rounds": ROUNDS,
        },
        measure,
    )
