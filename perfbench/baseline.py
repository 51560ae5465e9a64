"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py

Runs run.py once per (workload, seed) untraced, for every workload and the
ten SEEDS, then once per workload traced, one process at a time, for the
run_seconds that BENCHMARK.json sets.  For every end-to-end metric it
records the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median, and
the same for the times as measured before the host-speed adjustment.  The
file also records the machine context the runs reported.  It is written to
perfbench/baseline.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SEEDS = range(1, 11)
# context keys that differ per run: summarised, not copied into "context"
AS_MEASURED = ("wall_pass_s", "wall_cpu_s", "wall_setup_s", "speed")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace), "--seconds", str(SECONDS)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    context = next(json.loads(l)["context"] for l in lines if l.startswith('{"context"'))
    return context, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    record = {"workloads": {}}
    for name in WORKLOADS:
        runs, contexts = [], []
        for seed in SEEDS:
            context, result = run(name, seed, 0)
            runs.append(result)
            contexts.append(context)
            record["context"] = {k: v for k, v in context.items()
                                 if k not in ("workload", "seed", "passes", "trace",
                                              "requests_per_pass", *AS_MEASURED)}
            print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        metrics = {
            metric: {"unit": runs[0]["metrics"][metric]["unit"],
                     **summary([r["metrics"][metric]["value"] for r in runs])}
            for metric in runs[0]["metrics"]
        }
        entry = {
            "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "as_measured": {key: summary([c[key] for c in contexts]) for key in AS_MEASURED},
        }
        for metric, values in metrics.items():
            print(f"  {name} {metric}: median {values['median']:.4g} "
                  f"spread {values['spread']:.3f}", flush=True)
        _, traced = run(name, 1, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
