"""Run one parrondo CLI command in a fresh process; print what it cost as one JSON line.

Usage: python3 perfbench/worker.py '<request JSON>'

The request names the package source directory (``src``), the CLI argv,
whether to trace, the command id and where to write the spans.  The worker
times ``import parrondo.cli`` (set-up), then ``parrondo.cli.main(argv)`` with
stdout captured, and reports both times, the exit code, the captured stdout,
the peak resident set size and, when tracing, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What ran and on what: versions, kernel backend, cores, CPU and load."""
    import numpy

    import parrondo
    from parrondo import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "parrondo": parrondo.__version__,
        "backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
    }


def probe_s() -> float:
    """Seconds a fixed piece of pure-Python work takes: the host's speed now.

    The host's speed drifts by up to a factor of two within seconds, and the
    commands slow down with it.  Taken next to each timing, the probe lets
    the benchmark rescale every timing to one reference speed.  It mixes
    integer arithmetic with small-object allocation, the two things the
    package's Python code mostly does.
    """
    start = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i & 7 if x & 1 else 3
    table = {}
    for i in range(30_000):
        table[i] = (i, str(i), [x])
    return time.perf_counter() - start


def run(request: dict) -> dict:
    sys.path.insert(0, request["src"])
    start = time.perf_counter()
    import parrondo.cli  # noqa: F401  (timed: this is the set-up cost)

    import_s = time.perf_counter() - start
    result = {"import_s": import_s, "probe_s": [probe_s()]}
    if request.get("env"):
        result["env"] = environment()
    argv = request.get("argv")
    if argv is None:
        return result

    tracer = None
    if request.get("trace"):
        import tracing

        tracer = tracing.Tracer(command=request.get("command", 0))
    captured = io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(contextlib.redirect_stdout(captured))
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = parrondo.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the command crashed: report it as a failed command
            traceback.print_exc()
            code = None
        main_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    result["probe_s"].append(probe_s())
    stdout = captured.getvalue()
    result.update(
        main_s=main_s,
        cpu_s=cpu_s,
        exit_code=code,
        stdout=stdout,
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
        metrics["cli.stdout_bytes"] = len(stdout.encode("utf-8"))
        result["layers"] = metrics
        if request.get("spans_path"):
            with open(request["spans_path"], "w", encoding="utf-8") as fh:
                json.dump([list(vars(s).values()) for s in tracer.spans], fh)
    return result


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    result = run(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
