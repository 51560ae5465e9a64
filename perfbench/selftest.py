"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It sends one small request per
workload and checks that every metric BENCHMARK.json names is printed with
its unit, in both modes.  It also checks two failure cases: the gate must
reject an answer with one multiplicity changed, and a request that exits
non-zero must count against ok_frac.  Exits non-zero on any failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import gate
import run
import tracer
from workloads import NUMERIC_SMALL, WORKLOADS, request_key

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def expected_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def units_of(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def quiet_measure(*args) -> dict:
    """run.measure with its progress lines (and expected failures) hidden."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.measure(*args)


def check_metrics() -> list[str]:
    problems = []
    for workload in WORKLOADS.values():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = quiet_measure(workload, run.DEFAULT_SEED, 0, trace, [workload.smoke])
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload.name} trace={int(trace)}: smoke request failed")
            if units_of(result) != expected_units(section):
                problems.append(f"{workload.name} trace={int(trace)}: metrics or units "
                                f"differ from BENCHMARK.json {section}")
    return problems


def check_gate_rejects_changed_multiplicity() -> list[str]:
    request = NUMERIC_SMALL.smoke
    answers = json.loads((HERE / "answers.json").read_text())
    stored = answers[request_key(request)]
    r, p, n = gate.parse_request(request)["params"]

    def answer(entries) -> str:
        return json.dumps({
            "params": [r, p, n], "kind": "adjacency", "method": "numeric",
            "entries": [{"eigenvalue": v, "multiplicity": m} for v, m in entries],
            "max_residual": 0.0, "integral": True,
        })

    problems = []
    if gate.check(request, answer(stored["entries"]), stored):
        problems.append("gate rejects the stored answer itself")
    changed = [list(entry) for entry in stored["entries"]]
    changed[-1][1] += 1
    if not gate.check(request, answer(changed), stored):
        problems.append("gate accepts an answer with one multiplicity changed")
    return problems


def check_nonzero_exit_fails() -> list[str]:
    # order 2^9 * 9! is above the default enumeration cap: exit code 1
    too_large = ("group", "2", "1", "9", "--format", "json")
    result = quiet_measure(NUMERIC_SMALL, run.DEFAULT_SEED, 0, False,
                           [NUMERIC_SMALL.smoke, too_large])
    passes = result["attempted"] // 2
    ok_frac = result["metrics"]["ok_frac"]["value"]
    if result["correct"] or result["failed"] != passes or ok_frac != 0.5:
        return [f"non-zero exit not counted: failed={result['failed']}, ok_frac={ok_frac}"]
    return []


def check_missing_function_is_skipped() -> list[str]:
    sys.path.insert(0, str(run.SRC))
    tracer.FUNCTIONS[("reflectra.spectra", "no_such_function")] = "spectra.round"
    try:
        tracer.Tracer().install()
    except Exception as exc:  # the check reports any failure to install
        return [f"tracer fails on a missing function: {exc!r}"]
    finally:
        del tracer.FUNCTIONS[("reflectra.spectra", "no_such_function")]
    return []


def main() -> int:
    run.MIN_PASSES = 1
    run.SETUP_PROBES = 1
    problems = (
        check_gate_rejects_changed_multiplicity()
        + check_missing_function_is_skipped()
        + check_nonzero_exit_fails()
        + check_metrics()
    )
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
