"""List the reflectra requests whose stdout or exit code differs between two
source trees.

    python3 scripts/compare_outputs.py --tree parent=PATH --tree change=.

Each --tree names a checkout (LABEL=PATH) whose reflectra package is
imported from PATH/src.  The requests are:

* every request of the benchmark workloads (perfbench/workloads.py of this
  checkout, imported read-only), each with its workload's environment;
* `verify all`, in text and in json;
* `poincare` on a few partition tuples, in text and in json;
* the combinatorial codimension spectrum past the benchmark's folds and on
  folds with many later slots, in text and in json, and the folds its step
  cap refuses, two at the last term of the bound and two long before it;
* requests whose group order has thousands of digits, which fail on the
  enumeration or the dense matrix cap;
* the class-algebra distance spectrum of G(3,1,3) on an explicit
  `--connection-set all-reflections`;
* on every desk-scale group of order at most 200: `group`, `classes` and
  `reflections` in text and in json, `lengths` in text, csv and json,
  `matrix` in text, csv and json for the three kinds, `spectrum --format
  json` for the three kinds by the numeric and the class-algebra routes,
  and the numeric adjacency and distance spectra and json matrices on the
  standard connection set.

Each tree answers all of them in one fresh interpreter (benchtrees.run_in)
through click's test runner, which keeps stdout apart from stderr; a
request's answer is its exit code, the SHA-256 of its stdout and of its
stderr (where error messages go), the type of an uncaught exception, if
any, and, when stdout is JSON, the SHA-256 of that JSON with every
`max_residual` and `residual` field left out.  The script prints each
request whose answers differ, then a count of those and of the ones among
them that are JSON differing only in those float fields, and exits with
status 1 when any differ.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchtrees import run_in

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from reflectra.spectra import KINDS  # noqa: E402
from reflectra.verify import desk_scale_params  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ANSWER = """
import hashlib, json, sys
from click.testing import CliRunner
from reflectra.cli import main

RESIDUALS = ("max_residual", "residual")


def without_residuals(node):
    if isinstance(node, dict):
        return {
            key: without_residuals(value)
            for key, value in node.items() if key not in RESIDUALS
        }
    if isinstance(node, list):
        return [without_residuals(value) for value in node]
    return node


def residual_free_hash(text):
    try:
        data = json.loads(text)
    except ValueError:
        return None
    kept = json.dumps(without_residuals(data), sort_keys=True)
    return hashlib.sha256(kept.encode()).hexdigest()


runner = CliRunner()
answers = []
for args, env in json.loads(sys.argv[1]):
    result = runner.invoke(main, args, env=env)
    error = result.exception
    answers.append([
        result.exit_code,
        hashlib.sha256(result.stdout_bytes).hexdigest(),
        hashlib.sha256(result.stderr_bytes).hexdigest(),
        None if error is None or isinstance(error, SystemExit)
        else type(error).__name__,
        residual_free_hash(result.stdout),
    ])
print(json.dumps(answers))
"""


def fold(r: int, n: int, *extra: str) -> list[str]:
    """The combinatorial codimension spectrum request of G(r, 1, n)."""
    return ["spectrum", str(r), "1", str(n), "--kind", "codimension",
            "--method", "combinatorial", *extra]


def requests() -> list[tuple[list[str], dict[str, str]]]:
    """(arguments, environment) of every request, in a fixed order."""
    found = [
        (list(request), workload.env)
        for workload in WORKLOADS.values()
        for request in workload.requests
    ]
    found += [(["verify", "all", "--format", fmt], {}) for fmt in ("text", "json")]
    found += [
        (["poincare", text, "--format", fmt], {})
        for text in ("1", "2||1,1", "3,1", "1|1", "2,1|1|", "|3|", "4,2,1")
        for fmt in ("text", "json")
    ]
    found += [
        (fold(r, n, "--format", fmt), {})
        for r, n in (
            (2, 20), (2, 30), (3, 14), (5, 8), (1, 30),
            (12, 5), (16, 4), (30, 3), (7, 9), (100, 2),
        )
        for fmt in ("text", "json")
    ]
    found += [
        (fold(r, n), {})
        for r, n in ((1, 60), (2, 40), (1, 10000), (3000000, 1))
    ]
    found += [
        (args, {})
        for args in (
            ["group", "2", "1", "1000"],
            ["group", "2", "1", "2000"],
            ["spectrum", "2", "1", "2000", "--kind", "distance"],
            ["spectrum", "2", "1", "2000", "--kind", "distance",
             "--method", "class-algebra"],
        )
    ]
    found += [(["spectrum", "3", "1", "3", "--kind", "distance", "--method",
                "class-algebra", "--connection-set", "all-reflections"], {})]
    for params in desk_scale_params(max_order=200):
        group = [str(params.r), str(params.p), str(params.n)]
        found += [
            ([command, *group, "--format", fmt], {})
            for command in ("group", "classes", "reflections")
            for fmt in ("text", "json")
        ]
        found += [
            (["lengths", *group, "--format", fmt], {})
            for fmt in ("text", "csv", "json")
        ]
        for kind in KINDS:
            found += [
                (["matrix", *group, "--kind", kind, "--format", fmt], {})
                for fmt in ("text", "csv", "json")
            ]
            found += [
                (["spectrum", *group, "--kind", kind, "--method", method,
                  "--format", "json"], {})
                for method in ("numeric", "class-algebra")
            ]
        found += [
            ([command, *group, "--kind", kind, "--connection-set", "standard",
              "--format", "json"], {})
            for command in ("spectrum", "matrix")
            for kind in ("adjacency", "distance")
        ]
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="LABEL=PATH of a source checkout; give two")
    args = parser.parse_args()
    trees = dict(item.partition("=")[::2] for item in args.tree)
    if len(trees) != 2:
        parser.error("give exactly two trees")
    listed = requests()
    answers = {
        label: run_in(Path(path).resolve(), ANSWER, listed)
        for label, path in trees.items()
    }
    first, second = answers
    differ = residual_only = 0
    for (request, _), a, b in zip(listed, answers[first], answers[second]):
        if a != b:
            differ += 1
            # same exit code, stderr and exception, and the same JSON once
            # the residual fields are left out
            if a[4] is not None and [a[0], *a[2:]] == [b[0], *b[2:]]:
                residual_only += 1
            print(f"{' '.join(request)}: {first} {a}, {second} {b}")
    print(
        f"{len(listed)} requests, {differ} differ, {residual_only} of them "
        "JSON differing only in max_residual / residual"
    )
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
