"""Side-by-side timing of two or more source trees, shared by the bench
scripts of this directory.

Each tree is a checkout (LABEL=PATH) whose reflectra package is imported
from PATH/src.  A measurement runs a snippet of code in a fresh interpreter
with one BLAS thread; every round runs each tree once, alternating which
tree goes first.  The JSON record names the script and holds the machine,
Python and numpy versions next to what the script measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy


def run_in(tree: Path, code: str, argument) -> object:
    """Run code in a fresh interpreter that imports reflectra from tree, with
    argument as JSON in sys.argv[1], and return the JSON of its last line."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argument)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def alternate(
    trees: dict[str, Path], rounds: int, once: Callable[[Path], object]
) -> dict[str, list]:
    """once(tree) for every tree in every round, the trees in the given order
    on even rounds and reversed on odd ones; the results per label."""
    results = {label: [] for label in trees}
    for round_ in range(rounds):
        labels = list(trees) if round_ % 2 == 0 else list(reversed(trees))
        for label in labels:
            results[label].append(once(trees[label]))
    return results


def main(
    description: str, record: dict, measure: Callable[[dict[str, Path]], dict]
) -> None:
    """Parse --tree LABEL=PATH (two or more) and --output, and write record,
    the machine and measure(trees) as JSON to the output file."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--tree", action="append", required=True,
                        help="LABEL=PATH of a source checkout; give two or more")
    parser.add_argument("--output", required=True, type=Path)
    args = parser.parse_args()
    trees = {}
    for item in args.tree:
        label, _, path = item.partition("=")
        trees[label] = Path(path).resolve()
    record = {
        **record,
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
