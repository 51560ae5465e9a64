"""Benchmark of the reflectra CLI: fixed request lists sent in a closed loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from `src/`.
One client sends one request at a time to `reflectra.cli.main`, in-process,
the way a researcher runs commands.  Each pass over the workload's request
list runs in a fresh interpreter (worker.py) with one BLAS thread, because a
CLI user always starts cold and `partitions_of` is cached per process.  The
seed only permutes the request order within a pass.

Passes run back to back, at least MIN_PASSES of them, until the next one
would end after --seconds.  With --trace 0 the last stdout line reports the
end-to-end metrics: the median pass time, CPU time and peak RSS over the
passes, the median of SETUP_PROBES fresh `import reflectra.cli` times, and
the share of requests answered correctly.  Pass, CPU and set-up times are
adjusted to nominal host speed by sampler.py, because the shared host's
speed drifts; the times as measured are in the context line.  With
--trace 1 every pass is traced, and the line reports the median layer
metrics of those passes, including the tracing overhead; spans go to
perfbench/out/.

Every answer goes through gate.py.  A request fails on a non-zero exit, on
an error, or on an answer that misses the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sampler
from workloads import WORKLOADS, Workload, ordered_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 24
MIN_PASSES = 3
SETUP_PROBES = 12
# a run must end within 180 s; stop starting passes well before that
DEADLINE_S = 150
BLAS_THREADS = "1"

UNITS = {
    "pass_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure (no source tree, a worker crashed)."""


def child_env(workload: Workload) -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = str(SRC)
    env.update(workload.env)
    return env


# imports the CLI under the host-speed sampler, then prints its speed and
# the seconds its samples took
SETUP_PROBE = (
    f"import json, sys; sys.path.append({str(HERE)!r}); import sampler; "
    "s = sampler.Sampler(); s.start(); import reflectra.cli; s.stop(); "
    "print(json.dumps([s.speed(), sum(s.wall)]))"
)


def setup_times(env: dict[str, str], count: int, deadline: float) -> list[tuple[float, float]]:
    """(wall, adjusted) seconds for fresh interpreters to start and import
    the CLI; fewer than count once the deadline has passed."""
    times = []
    while len(times) < count and time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=deadline - start,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up ran past the {DEADLINE_S} s deadline") from exc
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"import reflectra.cli failed:\n{done.stderr[-2000:]}")
        speed, sampled = json.loads(done.stdout.splitlines()[-1])
        times.append((wall, (wall - sampled) * speed))
    return times


def run_pass(requests, env: dict[str, str], trace: bool, deadline: float) -> dict:
    job = {"requests": [list(r) for r in requests], "trace": trace, "src": str(SRC)}
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(job), cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass ran past the {DEADLINE_S} s deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_passes(requests, env, trace: bool, seconds: float, deadline: float):
    """Passes until the next one would end after `seconds` (at least
    MIN_PASSES, unless the next would end after the deadline)."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        result = run_pass(requests, env, trace, deadline)
        passes.append(result)
        print(
            f"pass {len(passes)} trace={int(trace)}: pass_s={result['pass_s']:.3f} "
            f"cpu_s={result['cpu_s']:.3f} peak_rss_mb={result['peak_rss_mb']:.1f} "
            f"speed={result.get('speed', 1.0):.3f} failed={len(result['failures'])}",
            flush=True,
        )
        now = time.perf_counter()
        pass_s = now - pass_start
        if now + pass_s > deadline:
            return passes
        if len(passes) >= MIN_PASSES and now - start + pass_s > seconds:
            return passes


def median_of(passes, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(passes, setups, ok_frac: float) -> dict[str, float]:
    return {
        "pass_s": median_of(passes, "pass_s"),
        "cpu_s": median_of(passes, "cpu_s"),
        "setup_s": statistics.median(adjusted for _, adjusted in setups),
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
        "ok_frac": ok_frac,
    }


def per_layer(passes) -> dict[str, float]:
    names = passes[0]["layers"].keys()
    return {
        name: statistics.median_low(p["layers"][name] for p in passes) for name in names
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "spectra.max_residual":
        return "1"
    return "count"


def write_spans(workload: str, seed: int, passes) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    traced = [p["spans"] for p in passes]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                "passes": traced}))
    return path


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            requests=None) -> dict:
    """Run the passes and return the result line as a dict."""
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env(workload)
    if requests is None:
        requests = ordered_requests(workload, seed)
    if trace:
        passes = run_passes(requests, env, True, seconds, deadline)
    else:
        # half the set-up probes before the passes and half after, so their
        # median spans the run's whole window
        setups = setup_times(env, SETUP_PROBES // 2, deadline)
        passes = run_passes(requests, env, False, seconds, deadline)
        setups += setup_times(env, SETUP_PROBES - SETUP_PROBES // 2, deadline)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure['request']}: {'; '.join(failure['problems'])}",
                  file=sys.stderr)
    context = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "cpus": os.cpu_count(),
        **passes[0]["environment"],
    }
    if trace:
        metrics = per_layer(passes)
        units = {name: layer_unit(name) for name in metrics}
        context["spans"] = str(write_spans(workload.name, seed, passes).relative_to(ROOT))
    else:
        metrics = end_to_end(passes, setups, (attempted - failed) / attempted)
        units = UNITS
        context.update({
            name: median_of(passes, name) for name in ("wall_pass_s", "wall_cpu_s", "speed")
        })
        context["wall_setup_s"] = statistics.median(wall for wall, _ in setups)
        context["ref_nominal_s"] = sampler.REF_NOMINAL_S
        context["sample_period_s"] = sampler.PERIOD_S
    print(json.dumps({"context": context}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reflectra" / "cli.py").is_file():
        print(f"no reflectra source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
