"""Independent references for every benchmarked command's output.

Each reference is computed here from a closed form, never by calling the
package, so a wrong answer from the package fails its command.  A check takes
the command's stdout and returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

Z_LIMIT = 5.0  # standard errors allowed for every Monte Carlo mean


# ---- references ------------------------------------------------------------


def ring_winning_count(m: int) -> int:
    """Positions j of Z_m with cos(2*pi*j/m) > 0, i.e. 4j < m or 4j > 3m."""
    return (m - 1) // 4 + 1 + (m - 1 - (3 * m) // 4)


def ring_win_probability(m: int) -> Fraction:
    # the chain on Z_M is circulant, so its stationary law is uniform
    return Fraction(ring_winning_count(m), m)


def stopping_mean(k: int) -> int:
    """Gambler's-ruin mean letters until the reduced word holds k rounds."""
    L = 2 * k
    return L * (L + 1)


def stopping_variance(k: int) -> Fraction:
    L = 2 * k
    return Fraction(L * (L + 1) * ((L + 1) ** 2 + L**2 - 2), 3)


def grover_success(n: int, k: int) -> float:
    return math.sin((2 * k + 1) * math.asin(2.0 ** (-n / 2.0))) ** 2


def canonical_k(n: int) -> int:
    # smallest integer >= pi*sqrt(2^n)/4, computed without ceil on a float
    # that might sit a hair above an integer
    target = math.pi * math.sqrt(2.0**n) / 4.0
    k = round(target)
    return k if k >= target - 1e-9 else k + 1


def best_k(n: int) -> int:
    return max(range(canonical_k(n) + 3), key=lambda k: grover_success(n, k))


def independent_mean_success(n: int) -> Fraction:
    """E[(1 - u/h)^2] for u ~ Binomial(h, 1/2), h = 2^(n-1) eligible indices."""
    h = 2 ** (n - 1)
    mean_u = Fraction(h, 2)
    second_u = Fraction(h, 4) + mean_u**2
    return 1 - 2 * mean_u / h + second_u / h**2


# ---- helpers ---------------------------------------------------------------


def _rational(value) -> Fraction:
    return Fraction(value["rational"])


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _waiting_z(samples) -> float:
    """Pooled z-score of empirical mean stopping indices against the exact law.

    samples: (k, trials, empirical mean) triples from independent seeds.
    """
    diff = sum(mean - stopping_mean(k) for k, _, mean in samples)
    var = sum(float(stopping_variance(k)) / trials for k, trials, _ in samples)
    return diff / math.sqrt(var)


# ---- per-command checks ----------------------------------------------------


def check_ring(stdout: str) -> list[str]:
    report = json.loads(stdout)
    problems: list[str] = []
    moduli = report["moduli"]
    M = math.prod(moduli)
    _expect(problems, report["positions"] == M, "positions != product of moduli")
    for game in report["games"]:
        m = game["modulus"]
        _expect(problems, game["winning_count"] == ring_winning_count(m), f"m={m}: winning count")
        p = ring_win_probability(m)
        _expect(problems, _rational(game["win_probability"]) == p, f"m={m}: win probability")
        _expect(problems, _rational(game["rate"]) == 2 * p - 1, f"m={m}: rate")
    combined = report["combined"]
    p = ring_win_probability(M)
    _expect(problems, combined["winning_count"] == ring_winning_count(M), "combined winning count")
    _expect(problems, _rational(combined["win_probability"]) == p, "combined win probability")
    _expect(problems, _rational(combined["rate"]) == 2 * p - 1, "combined rate")
    if tuple(moduli) == (3, 7):
        _expect(problems, _rational(combined["rate"]) == Fraction(1, 21), "(3,7) rate != 1/21")
    _expect(problems, report["doubly_stochastic"] is True, "not doubly stochastic")
    weights = report["stationary"]["weights"]
    _expect(
        problems,
        len(weights) == M and all(_rational(w) == Fraction(1, M) for w in weights),
        "stationary law not uniform",
    )
    mc = report.get("monte_carlo")
    if mc is not None:
        steps = mc["steps"]
        freq = float(_rational(mc["win_frequency"]))
        z = (freq - float(p)) / math.sqrt(float(p) * (1 - float(p)) / steps)
        _expect(problems, abs(z) <= Z_LIMIT, f"monte carlo z = {z:.2f}")
    return problems


def check_bv(stdout: str) -> list[str]:
    report = json.loads(stdout)
    problems: list[str] = []
    n = report["qubits"]
    half = 2 ** (n - 1)
    for row in report["results"]:
        u = row["unflipped_count"]
        if report["mode"] == "fixed-half":
            _expect(problems, u == half // 2, f"trial {row['trial']}: unflipped {u}")
            _expect(problems, _close(row["success"], 0.25, 1e-12), f"trial {row['trial']}: success")
        else:
            want = (1 - u / half) ** 2
            _expect(problems, _close(row["success"], want, 1e-12), f"trial {row['trial']}: success")
    baseline = report["baseline"]["success"]
    want = 4.0 / 4.0**n
    # relative: at n = 22 the baseline itself is below an absolute 1e-12
    _expect(problems, _close(baseline, want, 1e-12 * want), "single-reflection baseline != 4/4^n")
    exhaustive = report.get("exhaustive_mean")
    if exhaustive is not None:
        want = float(independent_mean_success(n))
        _expect(problems, _close(exhaustive["value"], want, 1e-12), "exhaustive mean")
    return problems


def _check_sweep_rows(n: int, rows, problems: list) -> None:
    _expect(problems, [r["k"] for r in rows] == list(range(canonical_k(n) + 3)), "sweep k range")
    for r in rows:
        k = r["k"]
        _expect(problems, _close(r["closed_form_success"], grover_success(n, k), 1e-12), f"k={k}: closed form")
        _expect(
            problems,
            _close(r["closed_form_success"], r["simulated_success"], 1e-9),
            f"k={k}: closed form and state vector disagree",
        )


def check_grover_json(stdout: str) -> list[str]:
    report = json.loads(stdout)
    problems: list[str] = []
    n, k = report["qubits"], report["k"]
    strategy = report["strategy"]
    if strategy == "canonical":
        _expect(problems, k == canonical_k(n), f"canonical k = {k}")
    elif strategy == "best":
        _expect(problems, k == best_k(n), f"best k = {k}")
    _expect(problems, _close(report["closed_form_success"], grover_success(n, k), 1e-12), "closed form")
    _expect(problems, _close(report["statevec_success"], grover_success(n, k), 1e-9), "state vector")
    waiting = report["waiting"]
    _expect(problems, waiting["cap_exceeded"] == 0, "letter cap hit")
    _expect(problems, _rational(waiting["expected_mean"]) == stopping_mean(k), "exact expected mean")
    samples = [(k, waiting["trials"], waiting["mean"])]
    sweep = report.get("sweep")
    if sweep is not None:
        _check_sweep_rows(n, sweep, problems)
        samples += [(r["k"], waiting["trials"], r["mean_waiting_time"]) for r in sweep if r["k"] > 0]
    z = _waiting_z(samples)
    _expect(problems, abs(z) <= Z_LIMIT, f"waiting-time z = {z:.2f}")
    return problems


def sweep_csv_check(n: int, trials: int):
    """Check for `grover -n <n> --sweep --format csv`, whose CSV is the sweep table."""

    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        reader = csv.DictReader(io.StringIO(stdout))
        rows = [{key: float(value) for key, value in row.items()} for row in reader]
        for row in rows:
            row["k"] = int(row["k"])
        _check_sweep_rows(n, rows, problems)
        samples = [(r["k"], trials, r["mean_waiting_time"]) for r in rows if r["k"] > 0]
        z = _waiting_z(samples)
        _expect(problems, abs(z) <= Z_LIMIT, f"waiting-time z = {z:.2f}")
        return problems

    return check


def check_reproduce(stdout: str) -> list[str]:
    report = json.loads(stdout)
    problems: list[str] = []
    _expect(problems, report["all_passed"] is True, "reproduce: all_passed is false")
    failing = [r["id"] for r in report["rows"] if r["status"] != "PASS"]
    _expect(problems, not failing, f"reproduce rows failed: {failing}")
    return problems
