"""One benchmark pass, run in a fresh interpreter by run.py.

Reads a job from stdin as JSON: {"requests": [[arg, ...], ...], "trace":
bool}.  Sends each request to `reflectra.cli.main` in-process, one at a time,
checks every answer with the gate, and prints one JSON line with the pass
time, CPU time, peak RSS and failures (plus layer metrics and spans when
tracing).  The pass runs from the first request sent to the last answer
checked; interpreter start and import are outside it.  An untraced pass
runs under the host-speed sampler, and its times are reported both as
measured (`wall_pass_s`, `wall_cpu_s`) and adjusted to nominal host speed
(`pass_s`, `cpu_s`); see sampler.py.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import gate
from sampler import Sampler
from tracer import REQUEST_SPAN, Tracer, span_cost
from workloads import request_key

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"


def send(cli, request) -> tuple[int, str, str | None]:
    """Exit code, stdout text and error of one CLI request."""
    buffer = io.StringIO()
    code, error = 0, None
    with contextlib.redirect_stdout(buffer):
        try:
            cli.main(args=list(request), prog_name="reflectra", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash fails the request, not the pass
            code = getattr(exc, "exit_code", 1) or 1
            error = f"{type(exc).__name__}: {exc}"
    return code, buffer.getvalue(), error


def run_pass(requests, trace: bool, answers: dict) -> dict:
    from reflectra.cli import main as cli

    tracer = Tracer() if trace else None
    sampler = None if trace else Sampler()
    if tracer is not None:
        tracer.install()
    failures = []
    max_residual = 0.0
    if sampler is not None:
        sampler.start()
    cpu_start = time.process_time()
    start = time.perf_counter()
    for request in requests:
        span = tracer.start(REQUEST_SPAN) if tracer is not None else None
        code, text, error = send(cli, request)
        if tracer is not None:
            tracer.end(span)
            tracer.add("cli.output_bytes", len(text.encode()))
            if code == 0 and request[0] == "spectrum":
                residual = json.loads(text).get("max_residual", 0.0)
                max_residual = max(max_residual, residual)
        if code != 0:
            problems = [f"exit code {code}"] + ([error] if error else [])
        else:
            problems = gate.check(request, text, answers.get(request_key(request)))
        if problems:
            failures.append({"request": request_key(request), "problems": problems})
    pass_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    result = {"pass_s": pass_s, "cpu_s": cpu_s}
    if sampler is not None:
        sampler.stop()
        result["pass_s"], result["cpu_s"] = sampler.adjust(pass_s, cpu_s)
        result.update(wall_pass_s=pass_s, wall_cpu_s=cpu_s, speed=sampler.speed())
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(requests),
        "failures": failures,
    })
    if tracer is not None:
        layers = {**tracer.self_times(), **tracer.counts}
        layers["spectra.max_residual"] = max_residual
        layers["trace.overhead_s"] = len(tracer.spans) * span_cost()
        result["layers"] = layers
        result["spans"] = tracer.spans
    return result


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                return int(query())
    return None


def environment() -> dict:
    import numpy

    return {
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
    }


def main() -> int:
    job = json.load(sys.stdin)
    import reflectra

    src = Path(job["src"]).resolve()
    if src not in Path(reflectra.__file__).resolve().parents:
        print(f"reflectra imported from {reflectra.__file__}, not {src}", file=sys.stderr)
        return 2
    answers = json.loads(ANSWERS.read_text())
    result = run_pass(job["requests"], job["trace"], answers)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
