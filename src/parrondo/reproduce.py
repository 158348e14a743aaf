"""One-shot verification table for every headline number of the three games.

Each row re-derives one claim from scratch (exact arithmetic, closed forms,
or fixed-seed Monte Carlo) and reports PASS/FAIL.  Rows marked as pinned
findings assert a derived value that deviates from the naive reading of the
corresponding claim; they pass when the derived value is confirmed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bv, grover, kernels, ring, statevec

MC_SEEDS = (1, 2, 3, 4, 5)
MC_STEPS = 10**6
SWEEP_LIMIT = 31

# closed-form successes of the ceiling-rule round counts at small n, where the
# rule lands below 1/2 (derived: sin((2k+1) asin(2**(-n/2)))**2)
CANONICAL_SUCCESS_N2 = 0.25
CANONICAL_SUCCESS_N3 = 0.330078125  # 169/512

__all__ = [
    "CheckRow",
    "run_all",
    "MC_SEEDS",
    "MC_STEPS",
    "CANONICAL_SUCCESS_N2",
    "CANONICAL_SUCCESS_N3",
]


@dataclass(frozen=True)
class CheckRow:
    ident: str
    name: str
    expected: str
    observed: str
    passed: bool
    note: str = ""


def _row(ident, name, expected, observed, passed, note=""):
    return CheckRow(ident, name, str(expected), str(observed), bool(passed), note)


def _single_rate_rows():
    for m, want in ((3, Fraction(-1, 3)), (7, Fraction(-1, 7))):
        got = ring.single_game_rate(m).rate
        yield _row(
            f"ring-rate-{m}",
            f"single wheel game m={m} loses at rate 1/{m}",
            want,
            got,
            got == want,
        )


def _combined_rows():
    game = ring.CombinedRingGame((3, 7))
    report = ring.combined_rate(game)
    yield _row(
        "ring-combined-win",
        "combined game (3,7) win probability",
        Fraction(11, 21),
        report.win_probability,
        report.win_probability == Fraction(11, 21),
    )
    yield _row(
        "ring-combined-rate",
        "combined game (3,7) rate",
        Fraction(1, 21),
        report.rate,
        report.rate == Fraction(1, 21),
    )
    matrix = ring.transition_matrix(game)
    states = range(matrix.size)
    col_ok = all(sum(matrix.entry(i, j) for i in states) == 1 for j in states)
    yield _row(
        "ring-doubly-stochastic",
        "21x21 transition matrix has exact unit column sums",
        "all 21 column sums = 1",
        "verified" if col_ok else "violated",
        col_ok,
    )
    # pi = (w, ..., w) is the stationary law when w = 1/21 and pi P = pi; with
    # every weight w, (pi P)_j is w times column sum j, so pi P = pi is col_ok
    w = ring.stationary_distribution(matrix)
    uniform = w * matrix.size == 1 and col_ok
    yield _row(
        "ring-stationary-uniform",
        "stationary distribution is uniform over the 21 positions",
        "every weight = 1/21",
        "uniform" if uniform else "non-uniform",
        uniform,
    )


def sweep_pairs():
    """All coprime odd pairs m < n <= SWEEP_LIMIT with both moduli = 3 mod 4."""
    values = [v for v in range(3, SWEEP_LIMIT + 1) if v % 4 == 3]
    return [
        (m, n)
        for i, m in enumerate(values)
        for n in values[i + 1 :]
        if math.gcd(m, n) == 1
    ]


def _sweep_row():
    bad = []
    pairs = sweep_pairs()
    for m, n in pairs:
        rm = ring.single_game_rate(m).rate
        rn = ring.single_game_rate(n).rate
        rc = ring.combined_rate(ring.CombinedRingGame((m, n))).rate
        if not (rm < 0 and rn < 0 and rc == Fraction(1, m * n)):
            bad.append((m, n))
    yield _row(
        "ring-sweep",
        f"two losing wheels combine to rate 1/(m*n) for {len(pairs)} pairs up to {SWEEP_LIMIT}",
        "single rates < 0, combined rate = 1/(m*n)",
        "all pairs verified" if not bad else f"failures: {bad}",
        not bad,
    )


def _monte_carlo_row():
    game = ring.CombinedRingGame((3, 7))
    worst = 0.0
    for seed in MC_SEEDS:
        frequency = ring.simulate_ring(game, MC_STEPS, seed).win_probability
        _, z = ring.win_frequency_z(game, frequency, MC_STEPS)
        worst = max(worst, abs(z))
    yield _row(
        "ring-monte-carlo",
        f"simulated (3,7) win frequency, {MC_STEPS} steps x {len(MC_SEEDS)} seeds",
        "|z| <= 4 binomial standard errors of 11/21",
        f"max |z| = {worst:.3f}",
        worst <= 4.0,
    )


def _bv_rows():
    worst = 0.0
    for n in range(2, 11):
        for alpha in (1, 2, (1 << n) - 1):
            result = bv.run_game(n, alpha, bv.FIXED_HALF, seed=1000 + 17 * n + alpha)
            worst = max(worst, abs(result.success_probability - 0.25))
    yield _row(
        "bv-fixed-half",
        "fixed-half noise success is exactly 1/4 (> 1/8) for n in 2..10",
        "success = 0.25 within 1e-12",
        f"max deviation = {worst:.2e}",
        worst <= 1e-12 and 0.25 > 1 / 8,
    )

    devs = []
    for n in (3, 4):
        mean = bv.independent_exhaustive_mean(n, alpha=1)
        devs.append(abs(mean - (0.25 + 2.0 ** -(n + 1))))
    yield _row(
        "bv-independent-mean",
        "independent noise, exhaustive mean success at n=3,4",
        "1/4 + 2**-(n+1) within 1e-12",
        f"max deviation = {max(devs):.2e}",
        max(devs) <= 1e-12,
    )

    worst = 0.0
    spread = 0.0
    for n in range(2, 11):
        alpha = 1
        values = [
            bv.single_reflection_baseline(n, alpha, int(y))
            for y in bv.flip_candidates(n, alpha)
        ]
        worst = max(worst, max(abs(v - 4.0 / 4.0**n) for v in values))
        spread = max(spread, max(values) - min(values))
    yield _row(
        "bv-baseline",
        "single-reflection success is 4/4**n, identical over eligible y, n in 2..10",
        "deviation and spread within 1e-12",
        f"max deviation = {worst:.2e}, max spread = {spread:.2e}",
        worst <= 1e-12 and spread <= 1e-12,
        note=(
            "separation from the combined game's 1/4 is strict for n >= 3; "
            "at n=2 the baseline equals 1/4 exactly (pinned boundary case)"
        ),
    )


def _identity_rows():
    rng = np.random.default_rng(90210)
    worst = 0.0
    for n in range(2, 11):
        for _ in range(3):
            v = rng.standard_normal(1 << n)
            v /= np.linalg.norm(v)
            alpha = int(rng.integers(0, 1 << n))
            flipped = statevec.flip_sign_at(statevec.flip_sign_at(v, alpha), alpha)
            diffused = statevec.diffusion(statevec.diffusion(v))
            worst = max(
                worst,
                float(np.max(np.abs(flipped - v))),
                float(np.max(np.abs(diffused - v))),
            )
        psi = statevec.uniform_state(n)
        worst = max(worst, float(np.max(np.abs(statevec.diffusion(psi) - psi))))
    yield _row(
        "quantum-identities",
        "both letters square to I and B fixes the start state, n in 2..10",
        "max elementwise error within 1e-12",
        f"max error = {worst:.2e}",
        worst <= 1e-12,
    )


def _word_draws():
    """The word-soundness row's 200 (n, alpha, letters) words, from seed 777."""
    rng = np.random.default_rng(777)
    draws = []
    for _ in range(200):
        n = int(rng.integers(2, 5))
        alpha = int(rng.integers(0, 1 << n))
        letters = rng.integers(0, 2, size=int(rng.integers(1, 201)))
        draws.append((n, alpha, letters))
    return draws


def _apply_words(n, alphas, words):
    """Each word applied letter by letter to the uniform n-qubit state, one row per word.

    All rows advance one letter position per step, and a row whose word has
    ended stays as it is.  Letter 1 (A) negates the row's alpha entry;
    letter 0 (B) is statevec.diffusion on the stack of B rows.  So every row
    is the same float64 operations, in the same order, as statevec's
    letter-by-letter loop.
    """
    states = np.tile(statevec.uniform_state(n), (len(words), 1))
    rows = np.arange(len(words))
    alphas = np.asarray(alphas)
    # code 2 marks the positions past a word's end
    codes = np.full((len(words), max(map(len, words))), 2, dtype=np.uint8)
    for row, word in enumerate(words):
        codes[row, : len(word)] = word
    for column in codes.T:
        b = rows[column == 0]
        v = states[b]
        states[b] = statevec.diffusion(v, out=v)
        a = rows[column == 1]
        states[a, alphas[a]] = -states[a, alphas[a]]
    return states


def _word_soundness_row():
    """Reduced words against the direct letter-by-letter application.

    The direct side applies all words of one qubit count together
    (_apply_words), and each row is the same float operations as statevec's
    diffusion and element negation, so the printed maximum and the
    reproduce digest are those of the per-letter loop.  Every Grover state
    is two coordinates, its alpha entry and the uniform rest, so an exact
    integer comparison is to replace this float one (see ROADMAP.md).
    """
    draws = _word_draws()
    worst = 0.0
    for n in sorted({n for n, _, _ in draws}):
        group = [(alpha, letters) for m, alpha, letters in draws if m == n]
        direct = _apply_words(n, *zip(*group))
        for state, (alpha, letters) in zip(direct, group):
            # no reduced length is -1, so the kernel runs through every letter
            _, length, _ = kernels.push_letters_until(letters, 0, -1)
            reduced = grover.realize_word(length, n, alpha)
            worst = max(worst, float(np.max(np.abs(state - reduced))))
    yield _row(
        "word-soundness",
        "reduced word reproduces direct letter-by-letter application (200 sequences)",
        "max elementwise error within 1e-12",
        f"max error = {worst:.2e}",
        worst <= 1e-12,
    )


def _quantum_strategy_rows():
    best_ok = all(
        grover.success_after_k(n, grover.best_k(n)) > 0.5 for n in range(2, 25)
    )
    yield _row(
        "grover-best-k",
        "scanned round count wins (success > 1/2) for n in 2..24",
        "success > 1/2 at best k",
        "verified" if best_ok else "violated",
        best_ok,
    )

    mid_ok = all(
        grover.success_after_k(n, grover.canonical_k(n)) > 0.5 for n in range(4, 25)
    )
    s2 = grover.success_after_k(2, grover.canonical_k(2))
    s3 = grover.success_after_k(3, grover.canonical_k(3))
    pinned_ok = (
        abs(s2 - CANONICAL_SUCCESS_N2) <= 1e-6
        and abs(s3 - CANONICAL_SUCCESS_N3) <= 1e-6
    )
    yield _row(
        "grover-canonical-k",
        "ceiling-rule round count wins for n in 4..24; n=2,3 undershoot as derived",
        f"success > 1/2 (n >= 4); n=2 -> {CANONICAL_SUCCESS_N2}, n=3 -> {CANONICAL_SUCCESS_N3}",
        f"n=2 -> {s2:.9f}, n=3 -> {s3:.9f}",
        mid_ok and pinned_ok,
        note="the ceiling rule lands below 1/2 at n=2,3; derived values pinned",
    )


def _stopping_row():
    target_k = grover.canonical_k(4)
    stats = grover.waiting_time_stats(target_k, trials=10_000, seed=424242)
    expected = float(grover.expected_stopping_index(target_k))
    rel = abs(stats.mean - expected) / expected
    yield _row(
        "grover-stopping",
        f"10^4 plays at k={target_k} stop under the cap; mean letters vs exact value",
        f"cap_exceeded = 0, mean within 15% of {expected:.0f}",
        f"cap_exceeded = {stats.cap_exceeded}, mean = {stats.mean:.2f} ({100 * rel:.1f}% off)",
        stats.cap_exceeded == 0 and rel <= 0.15,
    )


def run_all() -> list[CheckRow]:
    """Run every verification row; deterministic, all seeds pinned."""
    rows: list[CheckRow] = []
    for gen in (
        _single_rate_rows,
        _combined_rows,
        _sweep_row,
        _monte_carlo_row,
        _bv_rows,
        _identity_rows,
        _word_soundness_row,
        _quantum_strategy_rows,
        _stopping_row,
    ):
        rows.extend(gen())
    return rows
