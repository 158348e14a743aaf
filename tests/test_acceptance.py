"""Acceptance suite: one test per headline criterion, tolerances pinned.

Each test prints a PASS line on success (visible with -s or in -v listings),
so the whole family of claims can be audited in one run.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from parrondo import bv, cli, grover, kernels, ring, statevec

import oracles

MC_SEEDS = (1, 2, 3, 4, 5)
LISTED_SWEEP_PAIRS = [
    (3, 7), (3, 11), (3, 19), (3, 23), (3, 31),
    (7, 11), (7, 19), (7, 23), (7, 31),
    (11, 19), (11, 23), (11, 31),
    (19, 23), (19, 31), (23, 31),
]


def _sweep_pairs(limit=31):
    values = [v for v in range(3, limit + 1) if v % 4 == 3]
    return [
        (m, n)
        for i, m in enumerate(values)
        for n in values[i + 1 :]
        if math.gcd(m, n) == 1
    ]


def test_criterion_01_single_game_rates_exact():
    assert ring.single_game_rate(ring.RotationGame(3)).rate == Fraction(-1, 3)
    assert ring.single_game_rate(ring.RotationGame(7)).rate == Fraction(-1, 7)
    print("ACCEPTANCE 1 PASS: single-game rates are exactly -1/3 and -1/7")


def test_criterion_02_combined_game_exact():
    game = ring.CombinedRingGame.from_moduli((3, 7))
    report = ring.combined_rate(game)
    assert report.win_probability == Fraction(11, 21)
    assert report.rate == Fraction(1, 21)
    matrix = ring.transition_matrix(game)
    assert matrix.size == 21
    assert all(sum(matrix.entry(i, j) for i in range(21)) == 1 for j in range(21))
    assert all(sum(matrix.entry(i, j) for j in range(21)) == 1 for i in range(21))
    print(
        "ACCEPTANCE 2 PASS: combined (3,7) wins with 11/21 at rate 1/21; "
        "21x21 matrix exactly doubly stochastic"
    )


def test_criterion_03_generalization_sweep_under_ten_seconds():
    pairs = _sweep_pairs()
    for listed in LISTED_SWEEP_PAIRS:
        assert listed in pairs
    start = time.perf_counter()
    for m, n in pairs:
        assert ring.single_game_rate(ring.RotationGame(m)).rate == Fraction(-1, m)
        assert ring.single_game_rate(ring.RotationGame(n)).rate == Fraction(-1, n)
        combined = ring.combined_rate(ring.CombinedRingGame.from_moduli((m, n)))
        assert combined.rate == Fraction(1, m * n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 3 PASS: {len(pairs)} coprime pairs up to 31 give "
        f"combined rate 1/(m*n) in {elapsed:.2f}s"
    )


def test_criterion_04_monte_carlo_within_four_standard_errors():
    game = ring.CombinedRingGame.from_moduli((3, 7))
    steps = 10**6
    p = 11 / 21
    standard_error = math.sqrt(p * (1 - p) / steps)
    worst = 0.0
    for seed in MC_SEEDS:
        freq = float(ring.simulate_ring(game, steps, seed).win_probability)
        z = abs(freq - p) / standard_error
        worst = max(worst, z)
        assert z <= 4.0, f"seed {seed}: z = {z:.2f}"
    print(
        f"ACCEPTANCE 4 PASS: 10^6-step simulations at seeds {MC_SEEDS} "
        f"stay within 4 standard errors (max |z| = {worst:.2f})"
    )


def test_criterion_05_bv_exact_bound():
    for n in range(2, 11):
        for alpha in (1, 2, (1 << n) - 1):
            result = bv.run_game(n, alpha, bv.FIXED_HALF, seed=1000 + 17 * n + alpha)
            assert len(result.realization.unflipped) == 1 << (n - 2)
            assert abs(result.success_probability - 0.25) <= 1e-12
            assert result.success_probability > 1 / 8
    for n in (3, 4):
        mean = bv.independent_exhaustive_mean(n, alpha=1)
        assert abs(mean - (0.25 + 2.0 ** -(n + 1))) <= 1e-12
    print(
        "ACCEPTANCE 5 PASS: fixed-half success is exactly 1/4 (> 1/8) for "
        "n in 2..10; exhaustive independent means match 1/4 + 2^-(n+1)"
    )


def test_criterion_06_bv_baseline_separation():
    for n in range(2, 11):
        alpha = 1
        values = [
            bv.single_reflection_baseline(n, alpha, int(y))
            for y in bv.flip_candidates(n, alpha)
        ]
        closed = 4.0 / 4.0**n
        assert all(abs(v - closed) <= 1e-12 for v in values)
        assert max(values) - min(values) <= 1e-12
        if n >= 3:
            assert closed < 0.25
        else:
            # boundary case: at n=2 the baseline equals 1/4 exactly, so the
            # strict separation starts at n=3 (documented finding)
            assert closed == 0.25
    print(
        "ACCEPTANCE 6 PASS: single-reflection baseline is 4/4^n for every "
        "eligible y, strictly below 1/4 from n=3 (equal at the n=2 boundary)"
    )


def test_criterion_07_grover_identities_and_word_soundness():
    rng = np.random.default_rng(1618)
    for n in range(2, 11):
        for _ in range(3):
            v = rng.standard_normal(1 << n)
            v /= np.linalg.norm(v)
            alpha = int(rng.integers(0, 1 << n))
            assert (
                np.max(np.abs(statevec.flip_sign_at(statevec.flip_sign_at(v, alpha), alpha) - v))
                <= 1e-12
            )
            assert np.max(np.abs(statevec.diffusion(statevec.diffusion(v)) - v)) <= 1e-12
        psi = statevec.uniform_state(n)
        assert np.max(np.abs(statevec.diffusion(psi) - psi)) <= 1e-12

    worst = 0.0
    for i in range(1000):
        n = 2 + i % 3
        alpha = int(rng.integers(0, 1 << n))
        letters = rng.integers(0, 2, size=int(rng.integers(1, 201)))
        direct = statevec.uniform_state(n)
        for bit in letters:
            if bit:
                direct = statevec.flip_sign_at(direct, alpha)
            else:
                direct = statevec.diffusion(direct)
        _, length, _ = kernels.push_letters_until(letters, 0, -1)
        worst = max(
            worst, float(np.max(np.abs(direct - grover.realize_word(length, n, alpha))))
        )
    assert worst <= 1e-12
    print(
        "ACCEPTANCE 7 PASS: letters square to identity, diffusion fixes the "
        f"start state, and 1000 reduced words match direct application "
        f"(max error {worst:.1e})"
    )


def test_criterion_08_combined_quantum_game_wins():
    for n in range(2, 25):
        assert grover.success_after_k(n, grover.best_k(n)) > 0.5
    for n in range(4, 25):
        assert grover.success_after_k(n, grover.canonical_k(n)) > 0.5
    assert abs(grover.success_after_k(2, grover.canonical_k(2)) - 0.25) <= 1e-6
    assert abs(grover.success_after_k(3, grover.canonical_k(3)) - 0.330078125) <= 1e-6
    print(
        "ACCEPTANCE 8 PASS: best k wins for n in 2..24; ceiling-rule k wins "
        "for n in 4..24 with pinned undershoots 0.25 / 0.330078125 at n=2,3"
    )


def test_criterion_09_stopping_times_match_exact_expectation():
    target_k = grover.canonical_k(4)
    assert target_k == 4
    stats = grover.waiting_time_stats(target_k, trials=10_000, seed=424242)
    assert stats.cap_exceeded == 0
    exact = oracles.exact_hitting_time(2 * target_k)
    assert exact == Fraction(72)
    relative = abs(stats.mean - float(exact)) / float(exact)
    assert relative <= 0.15
    print(
        f"ACCEPTANCE 9 PASS: 10^4 plays at k=4 all stop; mean stopping index "
        f"{stats.mean:.2f} is {100 * relative:.2f}% from the exact 72"
    )


def test_criterion_10_reproduce_exits_clean_and_output_is_stable(capsys):
    code = cli.main(["reproduce", "--format", "json"])
    first = capsys.readouterr()
    assert code == 0
    report = json.loads(first.out)
    assert report["all_passed"] is True
    assert all(row["status"] == "PASS" for row in report["rows"])

    code = cli.main(["reproduce", "--format", "json"])
    second = capsys.readouterr()
    assert code == 0
    assert second.out == first.out

    for argv in (
        ["ring", "--moduli", "3,7", "--steps", "50000", "--seed", "9"],
        ["bv", "-n", "5", "--alpha", "3", "--trials", "3", "--seed", "9"],
        ["grover", "-n", "3", "--trials", "25", "--seed", "9"],
    ):
        assert cli.main(list(argv)) == 0
        once = capsys.readouterr()
        assert cli.main(list(argv)) == 0
        again = capsys.readouterr()
        assert once.out == again.out
    print(
        "ACCEPTANCE 10 PASS: reproduce exits 0 with every row passing; "
        "seeded commands print byte-identical output on rerun"
    )
