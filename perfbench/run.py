"""End-to-end benchmark of the parrondo CLI, with an optional per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload readme --seed 1 --seconds 30 --trace 0

A workload is a fixed list of CLI commands.  One pass runs each command in
its own fresh worker process, one at a time; the run repeats passes until
``--seconds`` have gone and reports the median pass.  Every command's stdout
is checked against references computed in `checks.py`, and its SHA-256 is
compared with the digest recorded on the seed commit (`digests.json`).

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mb``); the share of
failed commands is printed as ``failed_frac`` and carried by the JSON keys
``attempted`` and ``failed``.
With ``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones taken by `tracing.py` plus ``trace.overhead_frac``.
Details (environment, every pass, every command) go to
``.perfbench/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

# the CLI seed of every seeded command is drawn from this pool, so the
# recorded stdout digests cover every benchmark seed
CLI_SEEDS = tuple(range(1, 9))
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # a whole run ends within 180 s, even if commands hang
# Timings are rescaled to a host whose speed probe (worker.probe_s) takes
# this long.  It is the probe's median on a 2-core Xeon host, so rescaled
# seconds stay close to measured ones there.
PROBE_REF_S = 0.025
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    seeded: bool = True

    def resolve(self, cli_seed: int) -> list[str]:
        if self.seeded:
            return [*self.argv, "--seed", str(cli_seed)]
        return list(self.argv)


def _cmd(text: str, check, seeded: bool = True) -> Command:
    return Command(tuple(text.split()), check, seeded)


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # the eight README examples, in README order, JSON except the CSV sweep
    "readme": (
        _cmd("ring --moduli 3,7 --steps 1000000 --format json", checks.check_ring),
        _cmd("ring --moduli 3,7,11,19 --format json", checks.check_ring),
        _cmd("bv -n 6 --alpha 5 --mode fixed-half --format json", checks.check_bv),
        _cmd("bv -n 3 --mode independent --exhaustive --format json", checks.check_bv),
        _cmd("grover -n 4 --strategy canonical --format json", checks.check_grover_json),
        _cmd("grover -n 3 --strategy best --format json", checks.check_grover_json),
        _cmd("grover -n 4 --sweep --format csv", checks.sweep_csv_check(n=4, trials=1000)),
        _cmd("reproduce --format json", checks.check_reproduce, seeded=False),
    ),
    # long letter plays and a long wheel walk: the streamed random layers
    "monte-carlo": (
        _cmd("grover -n 13 --format json", checks.check_grover_json),
        _cmd("ring --moduli 3,7 --steps 20000000 --format json", checks.check_ring),
    ),
    # dense 2^n state vectors: FWHT at 2^22 and the O(k^2) sweep rebuilds
    "statevec": (
        _cmd("bv -n 22 --format json", checks.check_bv),
        _cmd("grover -n 16 --sweep --trials 1 --format json", checks.check_grover_json),
    ),
}


def cli_seed(seed: int) -> int:
    return CLI_SEEDS[seed % len(CLI_SEEDS)]


def digest_key(argv: list[str]) -> str:
    return " ".join(argv)


def run_worker(request: dict, timeout: float = COMMAND_TIMEOUT_S) -> dict:
    """Run the worker in a fresh single-threaded process and return its report.

    On a timeout, subprocess.run kills the worker and waits for it.
    """
    env = dict(os.environ, **SINGLE_THREAD)
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(request)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def evaluate(command: Command, result: dict) -> list[str]:
    """Problems with one command's result; empty when the command succeeded."""
    if result.get("exit_code") != 0:
        return [f"exit code {result.get('exit_code')}"]
    try:
        return command.check(result["stdout"])
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"output not checkable: {exc!r}"]


def run_pass(commands, seed: int, trace: bool, digests: dict, deadline: float = math.inf) -> dict:
    """Run each command once, in order, each in a fresh worker; id = position.

    A command still running at ``deadline`` (time.monotonic) is killed and fails.
    """
    rows = []
    for index, command in enumerate(commands):
        argv = command.resolve(cli_seed(seed))
        request = {"src": str(SRC), "argv": argv, "trace": trace, "command": index}
        if trace:
            OUT.mkdir(exist_ok=True)
            request["spans_path"] = str(OUT / f"spans-{index}.json")
        try:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("not run: the run's time limit was reached")
            result = run_worker(request, min(COMMAND_TIMEOUT_S, remaining))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            result = {"exit_code": None, "error": str(exc)}
        problems = evaluate(command, result) if "error" not in result else [result["error"]]
        stdout = result.pop("stdout", "")
        sha = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        recorded = digests.get(digest_key(argv))
        rows.append(
            {
                "argv": argv,
                **result,
                "problems": problems,
                "stdout_sha256": sha,
                "stdout_changed": None if recorded is None else sha != recorded,
            }
        )
    return {
        "trace": trace,
        "wall_s": sum(r.get("main_s", 0.0) for r in rows),
        "setup_s": sum(r.get("import_s", 0.0) for r in rows),
        "peak_rss_mb": max(r.get("maxrss_mb", 0.0) for r in rows),
        "failed": sum(1 for r in rows if r["problems"]),
        "commands": rows,
    }


def speed_factor(row: dict, before_only: bool = False) -> float:
    """Reference probe time over the probe time measured next to this command."""
    probes = row["probe_s"][:1] if before_only else row["probe_s"]
    return PROBE_REF_S / statistics.mean(probes)


def _timed(rows):
    return [r for r in rows if "main_s" in r]


def wall_s(passes) -> float:
    """Per command, the median over passes of its rescaled cli.main time; summed."""
    total = 0.0
    for i in range(len(passes[0]["commands"])):
        rows = _timed(p["commands"][i] for p in passes)
        total += statistics.median(r["main_s"] * speed_factor(r) for r in rows) if rows else 0.0
    return total


def setup_s(passes) -> float:
    # every command imports the same package, so set-up is the median of all
    # the run's rescaled import times (one per command) times commands per pass
    rows = [r for p in passes for r in p["commands"] if "import_s" in r]
    one = statistics.median(r["import_s"] * speed_factor(r, before_only=True) for r in rows)
    return one * len(passes[0]["commands"])


def end_to_end(passes) -> dict[str, dict]:
    return {
        "wall_s": {"value": wall_s(passes), "unit": "s"},
        "setup_s": {"value": setup_s(passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }


def raw_times(passes) -> dict[str, float]:
    """The same sums without rescaling, and the probe's median, for the record."""
    rows = _timed(r for p in passes for r in p["commands"])
    return {
        "wall_raw_s": statistics.median(p["wall_s"] for p in passes),
        "setup_raw_s": statistics.median(p["setup_s"] for p in passes),
        "probe_median_s": statistics.median(x for r in rows for x in r["probe_s"]),
    }


# every per-layer metric a traced run reports, in the order of BENCHMARK.json
LAYER_METRICS = (
    *tracing.metric_names(),
    "kernels.letters_used_frac",
    "cli.stdout_bytes",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "bytes" if "bytes" in name else "count"


def layer_totals(one_pass: dict) -> dict[str, float]:
    """Per-layer metrics of a traced pass, summed over its commands.

    Self times are rescaled by each command's probe, like wall_s.
    """
    totals: dict[str, float] = {}
    for row in _timed(one_pass["commands"]):
        factor = speed_factor(row)
        for name, value in row.get("layers", {}).items():
            scaled = value * factor if layer_unit(name) == "s" else value
            totals[name] = totals.get(name, 0) + scaled
    drawn = totals.get("kernels.letters_drawn", 0)
    totals["kernels.letters_used_frac"] = totals.get("kernels.letters_used", 0) / drawn if drawn else 0.0
    return totals


def per_layer(untraced, traced) -> dict[str, dict]:
    tables = [layer_totals(p) for p in traced]
    metrics = {
        name: {"value": statistics.median(t.get(name, 0) for t in tables), "unit": layer_unit(name)}
        for name in LAYER_METRICS
    }
    overhead = wall_s(traced) / wall_s(untraced) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "parrondo" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'parrondo'}", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload]
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))

    deadline = time.monotonic() + RUN_LIMIT_S
    # warm-up: compiles bytecode and fills the file cache before any timing
    try:
        env = run_worker({"src": str(SRC), "env": True})["env"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2

    # repeat passes (traced runs: untraced/traced pairs) while the next one,
    # judged by the longest so far, still ends within --seconds
    start = time.perf_counter()
    untraced, traced, durations = [], [], []
    while True:
        began = time.perf_counter()
        untraced.append(run_pass(commands, args.seed, False, digests, deadline))
        if args.trace:
            traced.append(run_pass(commands, args.seed, True, digests, deadline))
        durations.append(time.perf_counter() - began)
        done = len(untraced) >= (1 if args.trace else MIN_PASSES)
        if done and time.perf_counter() - start + max(durations) > args.seconds:
            break

    passes = untraced + traced
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    e2e = end_to_end(untraced)
    raw = raw_times(untraced)
    metrics = per_layer(untraced, traced) if args.trace else e2e

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seed": cli_seed(args.seed),
        "env": env,
        "end_to_end": e2e,
        "raw": raw,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "passes": passes,
    }
    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")

    print("environment: " + json.dumps(env, sort_keys=True))
    for row in untraced[-1]["commands"]:
        print(
            f"  {' '.join(row['argv'])}: {row.get('main_s', float('nan')):.3f} s, "
            f"stdout_changed={row['stdout_changed']}"
        )
    for row in (r for p in passes for r in p["commands"] if r["problems"]):
        print(f"  FAILED {' '.join(row['argv'])}: {'; '.join(row['problems'])}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; details in {detail_path}")
    for name, metric in e2e.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in raw.items():
        print(f"{name} {value:.6g} s")
    print(f"failed_frac {failed / attempted:.6g} frac ({failed} of {attempted} commands)")
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
