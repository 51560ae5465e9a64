"""Regenerate answers.json, the stored answers the gate compares against.

    python3 perfbench/make_answers.py

Run from the root of a source checkout.  Every request of every workload is
sent once; its answer must pass the gate's closed-form checks and agree with
a second route before it is stored:

* numeric spectra: the class-algebra route, or for the standard connection
  set, numpy's eigvalsh on the matrix the `matrix` command prints;
* class-algebra spectra of G(r,1,n): the partition-tuple eigenvalues, with
  the tuple's roots alpha_i: sum alpha_i for adjacency and the derivative at
  t = 1 of prod(1 + alpha_i t) for codimension and distance (reflection length
  equals codimension when p = 1), multiplicity dim^2;
* other class-algebra spectra: sum m, sum m*lambda, sum m*lambda^2 and the top
  eigenvalue against |G|, 0, |G| sum l^2 and sum l over the reflection lengths
  l that the `lengths` command computes by BFS;
* combinatorial spectra and the group, classes and lengths commands: the
  closed forms of gate.py (Shephard-Todd counts, Clifford class counts).
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
from worker import ANSWERS, send  # noqa: E402
from workloads import WORKLOADS, request_key  # noqa: E402


def cluster(values, width: float = 1e-6) -> list[list]:
    """[mean, count] of sorted values split at gaps wider than width,
    largest first."""
    groups: list[list[float]] = []
    for value in np.sort(values)[::-1]:
        if groups and groups[-1][-1] - value <= width:
            groups[-1].append(float(value))
        else:
            groups.append([float(value)])
    return [[sum(g) / len(g), len(g)] for g in groups]


def tuple_spectrum(r: int, n: int, kind: str) -> list[list[int]]:
    from reflectra.partitions import (
        character_dimension,
        enumerate_partition_tuples,
        poincare_star_roots,
        xi_from_roots,
    )

    totals: Counter = Counter()
    for tpl in enumerate_partition_tuples(r, n):
        roots = poincare_star_roots(tpl, r)
        value = sum(roots) if kind == "adjacency" else xi_from_roots(roots)
        totals[value] += character_dimension(tpl) ** 2
    return [[value, totals[value]] for value in sorted(totals, reverse=True)]


def moment_problems(cli, r: int, p: int, n: int, entries) -> list[str]:
    code, text, _ = send(cli, ("lengths", str(r), str(p), str(n), "--format", "csv"))
    if code != 0:
        return ["lengths command failed"]
    lengths = [row[2] for row in gate.csv_rows(text)]
    order = len(lengths)
    expected = [
        ("sum m", sum(m for _, m in entries), order),
        ("sum m*lambda", sum(m * v for v, m in entries), 0),
        ("sum m*lambda^2", sum(m * v * v for v, m in entries), order * sum(l * l for l in lengths)),
        ("top eigenvalue", entries[0][0], sum(lengths)),
    ]
    return [f"{name} {got} != {want}" for name, got, want in expected if got != want]


def second_route_problems(cli, request, summary) -> list[str]:
    req = gate.parse_request(request)
    if req["command"] != "spectrum" or req["method"] == "combinatorial":
        return []
    r, p, n = req["params"]
    entries = summary["entries"]
    if req["method"] == "numeric" and req["connection"] == "standard":
        code, text, _ = send(cli, (
            "matrix", str(r), str(p), str(n), "--kind", req["kind"],
            "--connection-set", "standard", "--format", "json",
        ))
        matrix = np.array(json.loads(text)["entries"], dtype=np.float64)
        other = cluster(np.linalg.eigvalsh(matrix))
    elif req["method"] == "numeric":
        swapped = list(request)
        swapped[swapped.index("numeric")] = "class-algebra"
        code, text, _ = send(cli, swapped)
        other = gate.summarize(swapped, text)["entries"] if code == 0 else None
    elif p == 1:
        other = tuple_spectrum(r, n, req["kind"])
    else:
        return moment_problems(cli, r, p, n, entries)
    if other is None or not gate.close(entries, other):
        return ["second route disagrees"]
    return []


def main() -> int:
    os.environ["REFLECTRA_MAX_ORDER"] = "50000"
    from reflectra.cli import main as cli

    answers = {}
    ok = True
    for workload in WORKLOADS.values():
        for request in workload.requests:
            key = request_key(request)
            code, text, error = send(cli, request)
            if code != 0:
                print(f"FAILED {key}: exit {code} {error or ''}", file=sys.stderr)
                ok = False
                continue
            summary = gate.summarize(request, text)
            problems = gate.check(request, text, summary)
            problems += second_route_problems(cli, request, summary)
            if problems:
                print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
                ok = False
                continue
            answers[key] = summary
            print(f"ok {key}", flush=True)
    if not ok:
        return 1
    ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(answers)} answers to {ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
