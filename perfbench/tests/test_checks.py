import math
from fractions import Fraction
from itertools import product

import pytest

import checks
import run


def _solve(matrix, rhs):
    """Exact Gauss-Jordan solve of matrix @ x = rhs over Fractions."""
    n = len(rhs)
    rows = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(matrix, rhs)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[c])]
    return [rows[i][n] for i in range(n)]


def _letter_walk(k):
    """Transition probabilities of the reduced length on levels 0..L-1 (L absorbs)."""
    L = 2 * k
    half = Fraction(1, 2)
    P = [[Fraction(0)] * L for _ in range(L)]
    P[0][0] = half  # B on the empty word is absorbed
    P[0][1] = half
    for i in range(1, L):
        P[i][i - 1] += half
        if i + 1 < L:
            P[i][i + 1] += half
    return P


@pytest.mark.parametrize("k", [1, 2, 4])
def test_stopping_moments_match_exact_first_step_solve(k):
    P = _letter_walk(k)
    L = len(P)
    a = [[(1 if i == j else 0) - P[i][j] for j in range(L)] for i in range(L)]
    mean = _solve(a, [1] * L)  # E_i = 1 + sum_j P_ij E_j
    # S_i = E[T_i^2] = 1 + 2 sum_j P_ij E_j + sum_j P_ij S_j
    second = _solve(a, [1 + 2 * sum(P[i][j] * mean[j] for j in range(L)) for i in range(L)])
    assert mean[0] == checks.stopping_mean(k)
    assert second[0] - mean[0] ** 2 == checks.stopping_variance(k)


def test_ring_winning_count_matches_direct_enumeration():
    for m in range(3, 400, 2):
        direct = sum(1 for j in range(m) if math.cos(2 * math.pi * j / m) > 0)
        assert checks.ring_winning_count(m) == direct, m
    assert checks.ring_winning_count(21) == 11


def test_combined_rate_3_7_matches_exact_stationary_solve():
    M = 21
    P = [[Fraction(0)] * M for _ in range(M)]
    for m in (3, 7):
        for a in range(m):
            for j in range(M):
                P[j][(j + (M // m) * a) % M] += Fraction(1, 2 * m)
    # pi (P - I) = 0 with the last equation replaced by sum(pi) = 1
    a = [[P[j][i] - (1 if i == j else 0) for j in range(M)] for i in range(M)]
    a[-1] = [1] * M
    pi = _solve(a, [0] * (M - 1) + [1])
    win = sum(pi[j] for j in range(M) if 4 * j < M or 4 * j > 3 * M)
    assert win == checks.ring_win_probability(M)
    assert 2 * win - 1 == Fraction(1, 21)


@pytest.mark.parametrize("n", [2, 3])
def test_independent_mean_matches_enumeration(n):
    half = 2 ** (n - 1)
    total = sum(Fraction(half - sum(bits), half) ** 2 for bits in product((0, 1), repeat=half))
    assert total / 2**half == checks.independent_mean_success(n)


def test_round_counts_match_the_ceiling_rule():
    for n in range(2, 25):
        assert checks.canonical_k(n) == math.ceil(math.pi * math.sqrt(2.0**n) / 4.0 - 1e-9)
    assert checks.best_k(3) == 2


def _ring_command():
    return run.Command(("ring", "--moduli", "3,7", "--format", "json"), checks.check_ring)


def test_correct_output_passes_the_real_command():
    result = run.run_pass([_ring_command()], seed=0, trace=False, digests={})
    assert result["failed"] == 0
    assert result["commands"][0]["problems"] == []


def test_wrong_reference_counts_the_command_as_failed(monkeypatch):
    monkeypatch.setattr(checks, "ring_winning_count", lambda m: (m + 1) // 2)
    result = run.run_pass([_ring_command()], seed=0, trace=False, digests={})
    assert result["failed"] == 1
    assert any("winning count" in p for p in result["commands"][0]["problems"])


def test_nonzero_exit_code_fails_without_reading_the_output():
    command = _ring_command()
    assert run.evaluate(command, {"exit_code": 3, "stdout": ""}) == ["exit code 3"]
    assert run.evaluate(command, {"exit_code": 0, "stdout": "not json"})
