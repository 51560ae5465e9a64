"""Time the combinatorial codimension fold of two or more source trees.

    python3 scripts/bench_fold.py --tree parent=PATH --tree change=. \
        --output BENCH.json

Each --tree names a checkout (LABEL=PATH) whose reflectra package is
imported from PATH/src.  Every round starts one fresh interpreter per tree
and (r, n) of CASES, alternating which tree goes first, with one BLAS
thread (benchtrees.py).  The interpreter times one call of
`codim_spectrum_combinatorial(r, n)`, its first, as a CLI request makes it,
and checks the multiplicities against r^n * n!.  The record holds, per
(r, n), the median over ROUNDS rounds in ms and every round's time.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from benchtrees import alternate, main, run_in

# the five folds of the tuple-exact workload, then larger ones up to the
# cap: G(2,1,36) is the largest two-slot fold it admits, G(1,1,40) a
# one-slot fold of 37,338 partitions, G(12,1,5) one of eleven later slots
CASES = (
    (4, 10), (6, 8), (8, 7), (2, 16), (3, 12),
    (2, 30), (2, 36), (3, 18), (1, 40), (12, 5),
)
ROUNDS = 5

TIMING = """
import json, sys, time
from math import factorial
from reflectra.partitions import codim_spectrum_combinatorial

r, n = json.loads(sys.argv[1])
start = time.perf_counter()
entries = codim_spectrum_combinatorial(r, n)
seconds = time.perf_counter() - start
assert sum(entry[1] for entry in entries) == r**n * factorial(n)
print(json.dumps([seconds * 1e3, len(entries)]))
"""


def measure(trees: dict[str, Path]) -> dict:
    def once(tree: Path):
        return [run_in(tree, TIMING, case) for case in CASES]

    runs = alternate(trees, ROUNDS, once)
    folds = []
    for i, (r, n) in enumerate(CASES):
        row = {"group": f"G({r},1,{n})"}
        for label in trees:
            times = [rounds[i][0] for rounds in runs[label]]
            row[f"{label}_ms"] = statistics.median(times)
            row[f"{label}_rounds_ms"] = [round(t, 2) for t in times]
            row[f"{label}_eigenvalues"] = runs[label][0][i][1]
        folds.append(row)
    return {"codim_spectrum_combinatorial": folds}


if __name__ == "__main__":
    main(
        __doc__.splitlines()[0],
        {
            "script": "scripts/bench_fold.py",
            "what": "first-call codim_spectrum_combinatorial time in a fresh "
                    "interpreter, median over rounds, 1 BLAS thread",
            "rounds": ROUNDS,
        },
        measure,
    )
