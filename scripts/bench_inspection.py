"""Time the inspection requests' per-element and per-class data in two or
more source trees.

    python3 scripts/bench_inspection.py --tree parent=PATH --tree change=. \
        --output BENCH.json

Each --tree names a checkout (LABEL=PATH) whose reflectra package is
imported from PATH/src.  Every round starts one fresh interpreter per tree
and group of GROUPS, alternating which tree goes first, with one BLAS
thread (benchtrees.py).  The interpreter sends the requests
`lengths R P N --format F` to the CLI in-process, as perfbench does, for F
in FORMATS, csv first, and times each; then it builds the group again and
times `rational` after `conjugacy`.  The record holds the median over
ROUNDS rounds of each time, in ms, and the length of each output.
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
# csv first, the format the group-large workload sends, so that its time
# includes the first request's costs, as in earlier records
FORMATS = ("csv", "text", "json")

TIMING = """
import contextlib, io, json, os, sys, time

(r, p, n), cap, formats = json.loads(sys.argv[1])
os.environ["REFLECTRA_MAX_ORDER"] = str(cap)
from reflectra.cli import main
from reflectra.groups import Group, GroupParams

requests, chars = {}, {}
for fmt in formats:
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        main(args=["lengths", str(r), str(p), str(n), "--format", fmt],
             prog_name="reflectra", standalone_mode=False)
    requests[fmt] = (time.perf_counter() - start) * 1e3
    chars[fmt] = len(buffer.getvalue())
group = Group(GroupParams(r, p, n), max_order=cap)
group.conjugacy
start = time.perf_counter()
group.rational
rational = time.perf_counter() - start
print(json.dumps([requests, rational * 1e3, chars]))
"""


def measure(trees: dict[str, Path]) -> dict:
    def once(tree: Path):
        return [run_in(tree, TIMING, [g, CAP, FORMATS]) for g in GROUPS]

    runs = alternate(trees, ROUNDS, once)
    rows = []
    for i, g in enumerate(GROUPS):
        row = {"group": "G({},{},{})".format(*g)}
        for label in trees:
            results = [run[i] for run in runs[label]]
            for fmt in FORMATS:
                row[f"{label}_lengths_{fmt}_ms"] = statistics.median(
                    times[fmt] for times, _, _ in results
                )
            row[f"{label}_rational_ms"] = statistics.median(t for _, t, _ in results)
            for fmt in FORMATS:
                row[f"{label}_{fmt}_chars"] = results[0][2][fmt]
        rows.append(row)
    return {"inspection": rows}


if __name__ == "__main__":
    main(
        __doc__,
        {
            "script": "scripts/bench_inspection.py",
            "what": "the in-process `lengths R P N --format F` requests, csv, "
                    "text and json in turn, then `rational` after `conjugacy`, "
                    "median over rounds of fresh interpreters, 1 BLAS thread",
            "rounds": ROUNDS,
        },
        measure,
    )
