"""Command-line front-end: ring, bv, grover and reproduce subcommands.

Every invocation is reproducible: one --seed drives all randomness, split
deterministically across trials, and identical command lines print identical
bytes.  Values with an exact rational form are printed as rational plus
decimal.  Exit codes: 0 success, 2 configuration error, 3 letter cap hit,
1 failed reproduction row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bv, grover, reproduce, ring, statevec
from .grover import StoppingCapExceeded

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

FORMATS = ("table", "csv", "json")
JSON_SCHEMA = 1

RING_DEFAULTS = {"moduli": None, "steps": None, "seed": 1, "format": "table"}
BV_DEFAULTS = {
    "n": None,
    "alpha": 1,
    "mode": bv.FIXED_HALF,
    "trials": 1,
    "exhaustive": False,
    "samples": 0,
    "seed": 1,
    "format": "table",
}
GROVER_DEFAULTS = {
    "n": None,
    "alpha": 0,
    "strategy": "canonical",
    "trials": 1000,
    "sweep": False,
    "letter_cap": grover.DEFAULT_LETTER_CAP,
    "seed": 1,
    "format": "table",
}
REPRODUCE_DEFAULTS = {"format": "table"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_moduli(value) -> bool:
    return isinstance(value, str) or (
        isinstance(value, list) and all(_is_int(v) for v in value)
    )


_INT = ("an integer", _is_int)
_BOOL = ("a boolean", lambda value: isinstance(value, bool))
_STR = ("a string", lambda value: isinstance(value, str))

# JSON type each config key must have: the type of the flag it stands for
CONFIG_TYPES = {
    "moduli": ("a string or a list of integers", _is_moduli),
    "steps": _INT,
    "n": _INT,
    "alpha": _INT,
    "mode": _STR,
    "trials": _INT,
    "exhaustive": _BOOL,
    "samples": _INT,
    "strategy": _STR,
    "sweep": _BOOL,
    "letter_cap": _INT,
    "seed": _INT,
    "format": _STR,
}


@dataclass
class Output:
    report: dict
    table: list[str]
    fmt: str
    code: int
    csv_rows: list[list] | None = None


def _frac(f: Fraction) -> dict:
    return {"rational": str(f), "decimal": float(f)}


def _show(f: Fraction) -> str:
    return f"{f} ({float(f):.6f})"


def _parse_moduli(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(tok) for tok in str(value).replace(" ", "").split(",") if tok]


def _load_config(path: str, defaults: dict) -> dict:
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    for key, value in config.items():
        want, accepts = CONFIG_TYPES[key]
        if not accepts(value):
            raise ValueError(
                f"config file {path}: {key} must be {want}, got {json.dumps(value)}"
            )
    return config


def _effective(args, defaults: dict) -> dict:
    """Built-in defaults, overridden by --config values, overridden by flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        merged.update(_load_config(args.config, defaults))
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    fmt = merged.get("format", "table")
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    return merged


def cmd_ring(args) -> Output:
    cfg = _effective(args, RING_DEFAULTS)
    if cfg["moduli"] is None:
        raise ValueError("missing --moduli (comma-separated odd coprime values)")
    moduli = _parse_moduli(cfg["moduli"])
    game = ring.CombinedRingGame.from_moduli(moduli)
    size = game.modulus_product
    if size > ring.MAX_POSITIONS:
        raise ValueError(
            f"moduli product {size} exceeds the limit of {ring.MAX_POSITIONS} positions"
        )
    if cfg["steps"] is not None and cfg["steps"] > ring.MAX_STEPS:
        raise ValueError(
            f"steps {cfg['steps']} exceeds the limit of {ring.MAX_STEPS} Monte Carlo steps"
        )

    singles = [ring.single_game_rate(g) for g in game.games]
    matrix = ring.transition_matrix(game)
    dist = ring.stationary_distribution(matrix)
    combined = ring.combined_rate(game)

    report = {
        "schema": JSON_SCHEMA,
        "command": "ring",
        "moduli": moduli,
        "positions": size,
        "seed": cfg["seed"],
        "games": [
            {
                "modulus": m,
                "win_probability": _frac(rep.win_probability),
                "rate": _frac(rep.rate),
                "winning_count": rep.winning_count,
            }
            for m, rep in zip(moduli, singles)
        ],
        "combined": {
            "win_probability": _frac(combined.win_probability),
            "rate": _frac(combined.rate),
            "winning_count": combined.winning_count,
        },
        "doubly_stochastic": matrix.is_doubly_stochastic(),
        "stationary": {
            "uniform": dist.is_uniform(),
            "weights": [_frac(w) for w in dist.weights],
        },
    }

    table = [
        f"moduli: {', '.join(str(m) for m in moduli)} (positions: {size})",
    ]
    for m, rep in zip(moduli, singles):
        table.append(
            f"game m={m}: win probability {_show(rep.win_probability)}, "
            f"rate {_show(rep.rate)}"
        )
    table.append(
        f"combined: win probability {_show(combined.win_probability)}, "
        f"rate {_show(combined.rate)}, "
        f"winning positions {combined.winning_count} of {size}"
    )
    table.append(
        "doubly stochastic: "
        + ("yes (exact unit row and column sums)" if matrix.is_doubly_stochastic() else "no")
    )
    if dist.is_uniform():
        table.append(f"stationary distribution: uniform, every weight 1/{size}")
    else:
        table.append(
            "stationary distribution: " + ", ".join(str(w) for w in dist.weights)
        )

    if cfg["steps"] is not None:
        steps = int(cfg["steps"])
        empirical = ring.simulate_ring(game, steps, int(cfg["seed"]))
        p = float(combined.win_probability)
        se = math.sqrt(p * (1 - p) / steps)
        z = (float(empirical.win_probability) - p) / se
        report["monte_carlo"] = {
            "steps": steps,
            "win_frequency": _frac(empirical.win_probability),
            "rate": _frac(empirical.rate),
            "standard_error": se,
            "z_score": z,
        }
        table.append(
            f"monte carlo ({steps} steps, seed {cfg['seed']}): "
            f"win frequency {float(empirical.win_probability):.6f}, "
            f"z = {z:+.3f} binomial standard errors"
        )

    return Output(report, table, cfg["format"], EXIT_OK)


def cmd_bv(args) -> Output:
    cfg = _effective(args, BV_DEFAULTS)
    if cfg["n"] is None:
        raise ValueError("missing -n/--qubits")
    n = int(cfg["n"])
    if not (2 <= n <= statevec.MAX_QUBITS):
        raise ValueError(f"qubit count must be in [2, {statevec.MAX_QUBITS}], got {n}")
    alpha = int(cfg["alpha"])
    mode = str(cfg["mode"])
    if mode not in bv.NOISE_MODES:
        raise ValueError(f"mode must be one of {bv.NOISE_MODES}, got {mode!r}")
    trials = int(cfg["trials"])
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    samples = int(cfg["samples"])
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    seed = int(cfg["seed"])

    # keep each trial's count and success, and only trial 0's realization
    # (for --samples), so memory stays O(2**n) whatever --trials is
    detail = []
    first = None
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        result = bv.run_game(n, alpha, mode, child)
        if first is None:
            first = result.realization
        count = result.realization.unflipped.size
        detail.append(
            {
                "trial": i,
                "unflipped_count": count,
                "success": result.success_probability,
                "closed_form": bv.exact_success(n, count),
            }
        )
    half = 1 << (n - 1)
    mean = sum(row["success"] for row in detail) / trials
    baseline_y = bv.first_candidate(n, alpha)
    baseline = bv.single_reflection_baseline(n, alpha, baseline_y)
    bound_ok = mean > 1 / 8

    report = {
        "schema": JSON_SCHEMA,
        "command": "bv",
        "qubits": n,
        "alpha": alpha,
        "mode": mode,
        "seed": seed,
        "trials": trials,
        "eligible_indices": half,
        "results": detail,
        "mean_success": mean,
        "baseline": {
            "y": baseline_y,
            "success": baseline,
            "closed_form": 4.0 / 4.0**n,
            "note": "identical for every y with y . alpha = 1",
        },
        "bound": {"threshold": 0.125, "exceeds": bound_ok},
    }

    table = [
        f"qubits: {n}, alpha: {alpha}, mode: {mode}, seed: {seed}",
        f"eligible indices (y . alpha = 1): {half}",
    ]
    for row in detail:
        table.append(
            f"trial {row['trial']}: unflipped {row['unflipped_count']}/{half}, "
            f"success {row['success']:.9f} (closed form {row['closed_form']:.9f})"
        )
    table.append(f"mean success over {trials} trial(s): {mean:.9f}")
    table.append(
        f"single-reflection baseline (y={baseline_y}): {baseline:.9f} = 4/4^n"
    )
    table.append(
        f"bound check (success > 1/8): {'PASS' if bound_ok else 'FAIL'}"
    )

    if cfg["exhaustive"]:
        if mode != bv.INDEPENDENT:
            raise ValueError("--exhaustive applies to --mode independent only")
        exhaustive = bv.independent_exhaustive_mean(n, alpha)
        report["exhaustive_mean"] = {
            "value": exhaustive,
            "closed_form": 0.25 + 2.0 ** -(n + 1),
        }
        table.append(
            f"exhaustive mean over all {1 << half} realizations: {exhaustive:.9f} "
            f"(closed form {0.25 + 2.0 ** -(n + 1):.9f})"
        )

    if samples > 0:
        state = bv.noisy_oracle(statevec.uniform_state(n), first)
        state = statevec.hadamard_all(state)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(trials + 1)[-1])
        outcomes = statevec.sample_basis(state, samples, rng)
        hits = int(np.count_nonzero(outcomes == alpha))
        report["sampled_measurements"] = {
            "shots": samples,
            "alpha_hits": hits,
            "frequency": hits / samples,
        }
        table.append(
            f"sampled measurements (trial 0 state, {samples} shots): "
            f"alpha measured {hits} times ({hits / samples:.6f})"
        )

    return Output(report, table, cfg["format"], EXIT_OK)


def _resolve_strategy(text: str, n: int) -> tuple[str, int]:
    if text == "canonical":
        return "canonical", grover.canonical_k(n)
    if text == "best":
        return "best", grover.best_k(n)
    if text.startswith("k="):
        k = int(text[2:])
        if k < 1:
            raise ValueError(f"explicit k must be >= 1, got {k}")
        return f"k={k}", k
    raise ValueError(
        f"strategy must be 'canonical', 'best' or 'k=<int>', got {text!r}"
    )


def cmd_grover(args) -> Output:
    cfg = _effective(args, GROVER_DEFAULTS)
    if cfg["n"] is None:
        raise ValueError("missing -n/--qubits")
    n = int(cfg["n"])
    if not (2 <= n <= statevec.MAX_QUBITS):
        raise ValueError(f"qubit count must be in [2, {statevec.MAX_QUBITS}], got {n}")
    alpha = int(cfg["alpha"])
    if not (0 <= alpha < (1 << n)):
        raise ValueError(f"alpha {alpha} out of range for {n} qubits")
    trials = int(cfg["trials"])
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > grover.MAX_TRIALS:
        raise ValueError(
            f"trials {trials} exceeds the limit of {grover.MAX_TRIALS} plays"
        )
    seed = int(cfg["seed"])
    letter_cap = int(cfg["letter_cap"])
    if letter_cap < 1:
        raise ValueError(f"letter cap must be >= 1, got {letter_cap}")
    strategy_name, k = _resolve_strategy(str(cfg["strategy"]), n)

    closed = grover.success_after_k(n, k)
    simulated = statevec.probability_of(grover.realize_word(2 * k, n, alpha), alpha)
    verdict = "WIN" if closed > 0.5 else "LOSE"
    note = ""
    if verdict == "LOSE" and strategy_name == "canonical":
        note = (
            "the ceiling rule undershoots 1/2 at this qubit count; "
            "try --strategy best"
        )

    stats = grover.waiting_time_stats(k, trials, seed, letter_cap)
    expected = grover.expected_stopping_index(k)

    report = {
        "schema": JSON_SCHEMA,
        "command": "grover",
        "qubits": n,
        "alpha": alpha,
        "seed": seed,
        "strategy": strategy_name,
        "k": k,
        "closed_form_success": closed,
        "statevec_success": simulated,
        "verdict": verdict,
        "waiting": {
            "trials": trials,
            "mean": stats.mean,
            "variance": stats.variance,
            "max": stats.max,
            "cap_exceeded": stats.cap_exceeded,
            "letter_cap": letter_cap,
            "expected_mean": _frac(expected),
        },
    }
    if note:
        report["note"] = note

    table = [
        f"qubits: {n}, alpha: {alpha}, strategy: {strategy_name}, seed: {seed}",
        f"k = {k} full rounds (stop at reduced length {2 * k})",
        f"closed-form success: {closed:.9f}",
        f"statevec success:    {simulated:.9f}",
        f"verdict: {verdict}" + (f"  [{note}]" if note else ""),
        f"waiting time over {trials} play(s): mean {stats.mean:.3f} letters "
        f"(exact expectation {_show(expected)}), variance {stats.variance:.3f}, "
        f"max {stats.max}, cap exceeded {stats.cap_exceeded}",
    ]

    csv_rows = None
    if cfg["sweep"]:
        sweep = []
        simulated_sweep = grover.sweep_success(n, alpha, grover.canonical_k(n) + 2)
        for kk, sim_kk in enumerate(simulated_sweep):
            closed_kk = grover.success_after_k(n, kk)
            if kk == 0:
                mean_wait = 0.0
            else:
                mean_wait = grover.waiting_time_stats(
                    kk, trials, seed + kk, letter_cap
                ).mean
            sweep.append(
                {
                    "k": kk,
                    "closed_form_success": closed_kk,
                    "simulated_success": sim_kk,
                    "mean_waiting_time": mean_wait,
                }
            )
        report["sweep"] = sweep
        header = ["k", "closed_form_success", "simulated_success", "mean_waiting_time"]
        csv_rows = [header] + [[row[h] for h in header] for row in sweep]
        table.append("sweep (k, closed form, statevec, mean waiting time):")
        for row in sweep:
            table.append(
                f"  k={row['k']:3d}  {row['closed_form_success']:.9f}  "
                f"{row['simulated_success']:.9f}  {row['mean_waiting_time']:.3f}"
            )

    code = EXIT_CAP if stats.cap_exceeded > 0 else EXIT_OK
    return Output(report, table, cfg["format"], code, csv_rows)


def cmd_reproduce(args) -> Output:
    cfg = _effective(args, REPRODUCE_DEFAULTS)
    rows = reproduce.run_all()
    all_passed = all(r.passed for r in rows)
    report = {
        "schema": JSON_SCHEMA,
        "command": "reproduce",
        "rows": [
            {
                "id": r.ident,
                "name": r.name,
                "expected": r.expected,
                "observed": r.observed,
                "status": "PASS" if r.passed else "FAIL",
                "note": r.note,
            }
            for r in rows
        ],
        "all_passed": all_passed,
    }
    width = max(len(r.ident) for r in rows)
    table = []
    for r in rows:
        table.append(
            f"[{'PASS' if r.passed else 'FAIL'}] {r.ident:<{width}}  {r.name}"
        )
        table.append(f"{'':>{width + 9}}expected: {r.expected}")
        table.append(f"{'':>{width + 9}}observed: {r.observed}")
        if r.note:
            table.append(f"{'':>{width + 9}}note: {r.note}")
    table.append(
        f"{sum(r.passed for r in rows)}/{len(rows)} rows passed"
        + ("" if all_passed else " -- FAILURES ABOVE")
    )
    return Output(report, table, cfg["format"], EXIT_OK if all_passed else EXIT_FAILED)


def _flatten(value, prefix=""):
    rows = []
    if isinstance(value, dict):
        if set(value) == {"rational", "decimal"}:
            rows.append((prefix, value["rational"]))
        else:
            for k, v in value.items():
                rows.extend(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            rows.extend(_flatten(v, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, value))
    return rows


def _null_nan(value):
    """The report with NaN floats (moments over zero plays) replaced by None."""
    if isinstance(value, dict):
        return {k: _null_nan(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_null_nan(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _emit(out: Output) -> None:
    if out.fmt == "json":
        print(json.dumps(_null_nan(out.report), indent=2, allow_nan=False))
    elif out.fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if out.csv_rows is not None:
            writer.writerows(out.csv_rows)
        else:
            writer.writerow(["key", "value"])
            writer.writerows(_flatten(out.report))
        sys.stdout.write(buffer.getvalue())
    else:
        for line in out.table:
            print(line)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master random seed")
    parser.add_argument(
        "--format", choices=FORMATS, default=None, help="output format (default: table)"
    )
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file with the same keys as the flags; flags win",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parrondo",
        description="Wheel games, the unreliable-oracle game and the stopping game: "
        "exact analysis with seeded Monte Carlo cross-checks.",
    )
    sub = parser.add_subparsers(dest="command")

    ring_p = sub.add_parser(
        "ring", help="classical wheel games: exact rates plus optional Monte Carlo"
    )
    ring_p.add_argument(
        "--moduli", default=None, help="comma-separated odd coprime moduli, e.g. 3,7"
    )
    ring_p.add_argument(
        "--steps", type=int, default=None, help="Monte Carlo steps (omit to skip)"
    )
    _add_common(ring_p)
    ring_p.set_defaults(handler=cmd_ring)

    bv_p = sub.add_parser(
        "bv", help="guessing game against the unreliable phase oracle"
    )
    bv_p.add_argument("-n", "--qubits", dest="n", type=int, default=None)
    bv_p.add_argument("--alpha", type=int, default=None, help="hidden nonzero string")
    bv_p.add_argument("--mode", choices=bv.NOISE_MODES, default=None)
    bv_p.add_argument("--trials", type=int, default=None)
    bv_p.add_argument(
        "--exhaustive",
        action="store_true",
        default=None,
        help="average over every independent-mode realization (n <= 4)",
    )
    bv_p.add_argument(
        "--samples",
        type=int,
        default=None,
        help="also draw this many demonstration measurements from the trial-0 state",
    )
    _add_common(bv_p)
    bv_p.set_defaults(handler=cmd_bv)

    grover_p = sub.add_parser(
        "grover", help="stopping game over random reflection sequences"
    )
    grover_p.add_argument("-n", "--qubits", dest="n", type=int, default=None)
    grover_p.add_argument("--alpha", type=int, default=None, help="target index")
    grover_p.add_argument(
        "--strategy",
        default=None,
        help="'canonical' (ceiling rule), 'best' (scanned optimum) or 'k=<int>'",
    )
    grover_p.add_argument("--trials", type=int, default=None)
    grover_p.add_argument(
        "--sweep",
        action="store_true",
        default=None,
        help="emit a per-k table: k, closed_form_success, simulated_success, mean_waiting_time",
    )
    grover_p.add_argument(
        "--letter-cap",
        dest="letter_cap",
        type=int,
        default=None,
        help=f"abort a play after this many letters (default {grover.DEFAULT_LETTER_CAP})",
    )
    _add_common(grover_p)
    grover_p.set_defaults(handler=cmd_grover)

    rep_p = sub.add_parser(
        "reproduce", help="re-derive every headline number and print PASS/FAIL per row"
    )
    _add_common(rep_p)
    rep_p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        out = handler(args)
    except StoppingCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(out)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
