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

from . import bv, grover, kernels, reproduce, ring, statevec

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

FORMATS = ("table", "csv", "json")
JSON_SCHEMA = 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _echo(value: int, prefix: str) -> str:
    """value itself, or '<prefix> <d> digits' once it has more than 20 digits."""
    digits = len(str(abs(value)))
    return str(value) if digits <= 20 else f"{prefix} {digits} digits"


def _check_range(what: str, value: int, low=None, high=None, unit: str = "") -> int:
    """value, once it lies in [low, high]; either end may be left open with None."""
    if low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {_echo(value, 'a value of')}")
    if high is not None and value > high:
        raise ValueError(f"{what} {_echo(value, 'of')} exceeds the limit of {high} {unit}")
    return value


def _is_integer_text(text: str) -> bool:
    """The CLI's one integer grammar: ASCII digits after an optional '-'.

    int() alone would also read '1_0' as 10, '+3' as 3 and the Arabic-Indic
    digit three as 3.
    """
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _to_int(what: str, text: str) -> int:
    """int(text) for digits int() takes, with a named error past its digit limit."""
    limit = sys.get_int_max_str_digits() or None
    _check_range(f"{what} digit count", len(text.removeprefix("-")), high=limit, unit="digits")
    return int(text)


def _integer(text: str) -> int:
    """argparse type of every integer flag: int(text) under _is_integer_text."""
    if not _is_integer_text(text):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    try:
        return _to_int("integer", text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _json_type(action: argparse.Action):
    """(description, test) of the JSON value a config key takes: its flag's type."""
    if action.dest == "moduli":
        want = "a string or a list of integers"
        return want, lambda value: isinstance(value, str) or (
            isinstance(value, list) and all(map(_is_int, value))
        )
    if action.nargs == 0:
        return "a boolean", lambda value: isinstance(value, bool)
    if action.type is _integer:
        return "an integer", _is_int
    return "a string", lambda value: isinstance(value, str)


@dataclass
class Output:
    report: dict
    table: list[str]
    code: int
    csv_rows: list[list] | None = None


def _frac(f: Fraction) -> dict:
    return {"rational": str(f), "decimal": float(f)}


def _show(f: Fraction) -> str:
    return f"{f} ({float(f):.6f})"


def _parse_moduli(value) -> list[int]:
    if isinstance(value, list):
        return value
    tokens = [tok.strip() for tok in value.split(",")]
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"moduli must be comma-separated digits, got token {tok!r}")
    return [_to_int("modulus", tok) for tok in tokens]


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The --config file, checked against the subcommand's flags.

    Keys are the flags' dests; each value must have its flag's JSON type and,
    where the flag has choices, be one of them.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except RecursionError:
            raise ValueError(f"config file {path} nests too deeply to parse") from None
        except ValueError as exc:
            raise ValueError(f"config file {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    for key, value in config.items():
        want, accepts = _json_type(flags[key])
        if not accepts(value):
            raise ValueError(
                f"config file {path}: {key} must be {want}, got {json.dumps(value)}"
            )
        choices = flags[key].choices
        if choices is not None and value not in choices:
            raise ValueError(
                f"config file {path}: {key} must be one of {tuple(choices)}, got {value!r}"
            )
    return config


def _qubits(n: int | None) -> int:
    if n is None:
        raise ValueError("missing -n/--qubits")
    return _check_range("qubit count", n, 2, statevec.MAX_QUBITS, "qubits")


def cmd_ring(args) -> Output:
    if args.moduli is None:
        raise ValueError("missing --moduli (comma-separated odd coprime values)")
    moduli = _parse_moduli(args.moduli)
    # the ring size comes before any gcd, prefix by prefix: a long list fails
    # at its first oversized prefix, which is at most MAX_POSITIONS squared
    size = 1
    for m in moduli:
        _check_range("modulus", m, high=ring.MAX_POSITIONS, unit="positions")
        size *= m
        _check_range("moduli product", size, high=ring.MAX_POSITIONS, unit="positions")
    game = ring.CombinedRingGame(tuple(moduli))
    if args.steps is not None:
        _check_range("steps", args.steps, 1, ring.MAX_STEPS, "Monte Carlo steps")

    singles = [ring.single_game_rate(m) for m in moduli]
    # the law is uniform and unique for every combined game (see combined_rate)
    weight = _frac(Fraction(1, size))
    combined = ring.combined_rate(game)

    report = {
        "schema": JSON_SCHEMA,
        "command": "ring",
        "moduli": moduli,
        "positions": size,
        "seed": args.seed,
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
        # every column of a circulant holds the whole offset law, which sums to 1
        "doubly_stochastic": True,
        "stationary": {"uniform": True, "weights": [weight] * size},
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
    table.append("doubly stochastic: yes (exact unit row and column sums)")
    table.append(f"stationary distribution: uniform, every weight 1/{size}")

    if args.steps is not None:
        steps = args.steps
        empirical = ring.simulate_ring(game, steps, args.seed)
        se, z = ring.win_frequency_z(game, empirical.win_probability, steps)
        report["monte_carlo"] = {
            "steps": steps,
            "win_frequency": _frac(empirical.win_probability),
            "rate": _frac(empirical.rate),
            "standard_error": se,
            "z_score": z,
        }
        table.append(
            f"monte carlo ({steps} steps, seed {args.seed}): "
            f"win frequency {float(empirical.win_probability):.6f}, "
            f"z = {z:+.3f} binomial standard errors"
        )

    return Output(report, table, EXIT_OK)


def cmd_bv(args) -> Output:
    n = _qubits(args.n)
    alpha = _check_range("alpha", args.alpha, 1, (1 << n) - 1, f"for {n} qubits")
    mode, seed = args.mode, args.seed
    trials = _check_range("trials", args.trials, 1, bv.MAX_TRIALS, "plays")
    samples = _check_range("samples", args.samples, 0, bv.MAX_SAMPLES, "shots")
    # the exhaustive mean checks its qubit count, so every input is checked
    # before the first trial
    baseline_y = bv.first_candidate(n, alpha)
    if args.exhaustive:
        if mode != bv.INDEPENDENT:
            raise ValueError("--exhaustive applies to --mode independent only")
        exhaustive = bv.independent_exhaustive_mean(n, alpha)

    # keep each trial's count and success, and only trial 0's realization
    # (for --samples); trial i draws child i of the seed,
    # SeedSequence(seed).spawn(trials + 1)[i], from kernels.seed_children,
    # and --samples draws child trials
    children = kernels.seed_children(seed)
    detail = []
    first = None
    for i, rng in zip(range(trials), children):
        result = bv.run_game(n, alpha, mode, rng)
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

    if args.exhaustive:
        report["exhaustive_mean"] = {
            "value": exhaustive,
            "closed_form": 0.25 + 2.0 ** -(n + 1),
        }
        table.append(
            f"exhaustive mean over all {1 << half} realizations: {exhaustive:.9f} "
            f"(closed form {0.25 + 2.0 ** -(n + 1):.9f})"
        )

    if samples > 0:
        state = bv.noisy_oracle(first)
        state = statevec.hadamard_all(state)
        outcomes = statevec.sample_basis(state, samples, next(children))
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

    return Output(report, table, EXIT_OK)


def _resolve_strategy(text: str, n: int) -> tuple[str, int]:
    if text == "canonical":
        return "canonical", grover.canonical_k(n)
    if text == "best":
        return "best", grover.best_k(n)
    if text.startswith("k=") and _is_integer_text(text[2:]):
        k = _to_int("explicit k", text[2:])
        _check_range("explicit k", k, 1, grover.MAX_ROUNDS, "rounds")
        return f"k={k}", k
    raise ValueError(
        f"strategy must be 'canonical', 'best' or 'k=<int>', got {text!r}"
    )


def _moment(value: float) -> float | None:
    """A mean or variance for the report: None over zero finished plays.

    Such a moment is NaN, which strict JSON lacks; the table prints it as nan.
    """
    return None if math.isnan(value) else value


def cmd_grover(args) -> Output:
    n = _qubits(args.n)
    alpha = _check_range("alpha", args.alpha, 0, (1 << n) - 1, f"for {n} qubits")
    seed, letter_cap = args.seed, args.letter_cap
    trials = _check_range("trials", args.trials, 1, grover.MAX_TRIALS, "plays")
    strategy_name, k = _resolve_strategy(args.strategy, n)
    # the plays come first, so a bad letter cap fails before any Grover round
    stats = grover.waiting_time_stats(k, trials, seed, letter_cap)
    expected = grover.expected_stopping_index(k)
    sweep_top = grover.canonical_k(n) + 2
    # one pass of rounds gives this k's success and every sweep row
    successes = grover.sweep_success(n, alpha, max(k, sweep_top) if args.sweep else k)

    closed = grover.success_after_k(n, k)
    simulated = successes[k]
    verdict = "WIN" if closed > 0.5 else "LOSE"
    note = ""
    if verdict == "LOSE" and strategy_name == "canonical":
        note = (
            "the ceiling rule undershoots 1/2 at this qubit count; "
            "try --strategy best"
        )

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
            "mean": _moment(stats.mean),
            "variance": _moment(stats.variance),
            "max": stats.max,
            "cap_exceeded": stats.cap_exceeded,
            "letter_cap": stats.letter_cap,
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

    # capped plays drop out of a mean, so every block or sweep row with one is named
    capped = [f"{stats.cap_exceeded} of {trials} plays at k={k}"] if stats.cap_exceeded else []
    csv_rows = None
    if args.sweep:
        header = ["k", "closed_form_success", "simulated_success", "mean_waiting_time"]
        report["sweep"], csv_rows = [], [header]
        table.append("sweep (k, closed form, statevec, mean waiting time):")
        for kk, sim_kk in enumerate(successes[: sweep_top + 1]):
            closed_kk = grover.success_after_k(n, kk)
            mean_wait = 0.0
            if kk:
                row_stats = grover.waiting_time_stats(kk, trials, seed + kk, letter_cap)
                mean_wait = row_stats.mean
                if row_stats.cap_exceeded:
                    capped.append(
                        f"{row_stats.cap_exceeded} of {trials} plays in sweep row k={kk}"
                    )
            row = [kk, closed_kk, sim_kk, _moment(mean_wait)]
            report["sweep"].append(dict(zip(header, row)))
            csv_rows.append(row)
            table.append(f"  k={kk:3d}  {closed_kk:.9f}  {sim_kk:.9f}  {mean_wait:.3f}")

    if capped:
        print(f"letter cap hit: {'; '.join(capped)}", file=sys.stderr)
    return Output(report, table, EXIT_CAP if capped else EXIT_OK, csv_rows)


def cmd_reproduce(args) -> Output:
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
    return Output(report, table, EXIT_OK if all_passed else EXIT_FAILED)


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


_ENCODER = json.JSONEncoder(indent=2, allow_nan=False)


def _json(value, level: int = 0) -> str:
    """json.dumps(value, indent=2, allow_nan=False), byte for byte, at indent level.

    Keys must be str, as every report's are.  A dict is walked, and a list
    that holds one object throughout (as [weight] * size does) renders that
    object once and repeats its text.  Anything else is the shared encoder's
    text, indented at its newlines: a JSON string never holds a raw newline.
    """
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(value, dict) and value:
        items = (f"{_ENCODER.encode(k)}: {_json(v, level + 1)}" for k, v in value.items())
        return f"{{{inner}{(',' + inner).join(items)}{outer}}}"
    if isinstance(value, (list, tuple)) and value and all(v is value[0] for v in value):
        text = _json(value[0], level + 1)
        return f"[{inner}{(',' + inner).join([text] * len(value))}{outer}]"
    return _ENCODER.encode(value).replace("\n", outer)


def _emit(out: Output, fmt: str) -> None:
    if fmt == "json":
        print(_json(out.report))
    elif fmt == "csv":
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


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_integer, default=1, help="master random seed")


def _add_common(parser: argparse.ArgumentParser, handler) -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="table",
        help="output format (default: %(default)s)",
    )
    parser.add_argument(
        "--config", help="JSON file with the same keys as the flags; flags win"
    )
    parser.set_defaults(handler=handler, subparser=parser)


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
    ring_p.add_argument("--moduli", help="comma-separated odd coprime moduli, e.g. 3,7")
    ring_p.add_argument("--steps", type=_integer, help="Monte Carlo steps (omit to skip)")
    _add_seed(ring_p)
    _add_common(ring_p, cmd_ring)

    bv_p = sub.add_parser(
        "bv", help="guessing game against the unreliable phase oracle"
    )
    bv_p.add_argument("-n", "--qubits", dest="n", type=_integer)
    bv_p.add_argument("--alpha", type=_integer, default=1, help="hidden nonzero string")
    bv_p.add_argument("--mode", choices=bv.NOISE_MODES, default=bv.FIXED_HALF)
    bv_p.add_argument("--trials", type=_integer, default=1)
    bv_p.add_argument(
        "--exhaustive",
        action="store_true",
        help="average over every independent-mode realization (n <= 4)",
    )
    bv_p.add_argument(
        "--samples",
        type=_integer,
        default=0,
        help="also draw this many demonstration measurements from the trial-0 state",
    )
    _add_seed(bv_p)
    _add_common(bv_p, cmd_bv)

    grover_p = sub.add_parser(
        "grover", help="stopping game over random reflection sequences"
    )
    grover_p.add_argument("-n", "--qubits", dest="n", type=_integer)
    grover_p.add_argument("--alpha", type=_integer, default=0, help="target index")
    grover_p.add_argument(
        "--strategy",
        default="canonical",
        help="'canonical' (ceiling rule), 'best' (scanned optimum) or 'k=<int>'",
    )
    grover_p.add_argument("--trials", type=_integer, default=1000)
    grover_p.add_argument(
        "--sweep",
        action="store_true",
        help="emit a per-k table: k, closed_form_success, simulated_success, mean_waiting_time",
    )
    grover_p.add_argument(
        "--letter-cap",
        dest="letter_cap",
        type=_integer,
        help="abort a play after this many letters (default: max(10**7, 20*L*(L+1)) "
        "for a play that stops at reduced length L = 2k)",
    )
    _add_seed(grover_p)
    _add_common(grover_p, cmd_grover)

    rep_p = sub.add_parser(
        "reproduce", help="re-derive every headline number and print PASS/FAIL per row"
    )
    _add_common(rep_p, cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        if args.config:
            # the file's values become the subcommand's defaults, so flags win
            config = _config_defaults(args.config, args.subparser)
            args.subparser.set_defaults(**config)
            args = parser.parse_args(argv)
        # numpy takes no negative seed; reject one even where nothing is drawn
        _check_range("seed", getattr(args, "seed", 0), 0)
        out = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(out, args.format)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
