"""Classical wheel games: exact rational analysis plus seeded Monte Carlo.

A rotation game with odd modulus m spins a wheel by 2*pi*a/m radians, a drawn
uniformly from 0..m-1; the player wins a round while the pointer angle theta
satisfies cos(theta) > 0 (the upper half-circle).  Random mixtures of games
with pairwise coprime moduli live on Z_M, M the product of the moduli.  All
probabilities on the exact side are `fractions.Fraction`; only the Monte
Carlo cross-check uses floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import kernels

__all__ = [
    "NonUniqueStationaryError",
    "RotationGame",
    "CombinedRingGame",
    "TransitionMatrix",
    "Distribution",
    "RateReport",
    "winning_positions",
    "single_game_rate",
    "transition_matrix",
    "stationary_distribution",
    "combined_rate",
    "simulate_ring",
]


class NonUniqueStationaryError(ValueError):
    """The chain admits more than one stationary distribution."""


@dataclass(frozen=True)
class RotationGame:
    """Wheel game whose robot rotates by 2*pi*a/modulus, a uniform in 0..modulus-1."""

    modulus: int

    def __post_init__(self):
        m = self.modulus
        if not isinstance(m, int) or isinstance(m, bool) or m < 3 or m % 2 == 0:
            raise ValueError(f"modulus must be an odd integer >= 3, got {m!r}")


@dataclass(frozen=True)
class CombinedRingGame:
    """Uniformly random mixture of rotation games with pairwise coprime moduli."""

    games: tuple[RotationGame, ...]

    def __post_init__(self):
        object.__setattr__(self, "games", tuple(self.games))
        if not self.games:
            raise ValueError("a combined game needs at least one rotation game")
        mods = self.moduli
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                g = math.gcd(mods[i], mods[j])
                if g != 1:
                    raise ValueError(
                        f"moduli must be pairwise coprime: gcd({mods[i]}, {mods[j]}) = {g}"
                    )

    @classmethod
    def from_moduli(cls, moduli: Iterable[int]) -> "CombinedRingGame":
        return cls(tuple(RotationGame(int(m)) for m in moduli))

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(g.modulus for g in self.games)

    @property
    def modulus_product(self) -> int:
        return math.prod(self.moduli)


class TransitionMatrix:
    """Row-stochastic square matrix of exact rationals, stored as sparse rows."""

    def __init__(self, rows: Sequence[dict[int, Fraction]]):
        size = len(rows)
        clean = []
        for i, row in enumerate(rows):
            tidy: dict[int, Fraction] = {}
            total = Fraction(0)
            for j, p in row.items():
                p = Fraction(p)
                if not (0 <= j < size):
                    raise ValueError(f"column index {j} outside 0..{size - 1}")
                if p < 0:
                    raise ValueError(f"negative entry {p} at ({i}, {j})")
                if p:
                    tidy[j] = p
                    total += p
            if total != 1:
                raise ValueError(f"row {i} sums to {total}, expected exactly 1")
            clean.append(tidy)
        self.size = size
        self.rows: tuple[dict[int, Fraction], ...] = tuple(clean)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, Fraction(0))

    def column_sums(self) -> list[Fraction]:
        sums = [Fraction(0)] * self.size
        for row in self.rows:
            for j, p in row.items():
                sums[j] += p
        return sums

    def is_doubly_stochastic(self) -> bool:
        return all(s == 1 for s in self.column_sums())

    def dense(self) -> list[list[Fraction]]:
        zero = Fraction(0)
        return [
            [row.get(j, zero) for j in range(self.size)] for row in self.rows
        ]


@dataclass(frozen=True)
class Distribution:
    """Exact probability vector over a finite state space."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "weights", tuple(Fraction(w) for w in self.weights)
        )
        if not self.weights:
            raise ValueError("distribution needs at least one weight")
        if any(w < 0 for w in self.weights):
            raise ValueError("probability weights must be nonnegative")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum to exactly 1")

    @property
    def size(self) -> int:
        return len(self.weights)

    def is_uniform(self) -> bool:
        u = Fraction(1, self.size)
        return all(w == u for w in self.weights)


@dataclass(frozen=True)
class RateReport:
    """Win probability and per-round rate, payoff +1 per win and -1 per loss."""

    win_probability: Fraction
    rate: Fraction
    winning_count: int

    def __post_init__(self):
        if not (0 <= self.win_probability <= 1):
            raise ValueError(f"win probability {self.win_probability} outside [0, 1]")
        if self.rate != 2 * self.win_probability - 1:
            raise ValueError("rate must equal 2*win_probability - 1")


def _check_modulus(modulus: int) -> None:
    if not isinstance(modulus, (int, np.integer)) or modulus < 3 or modulus % 2 == 0:
        raise ValueError(f"modulus must be an odd integer >= 3, got {modulus!r}")


def winning_positions(modulus: int) -> frozenset[int]:
    """Indices j of Z_M whose pointer angle 2*pi*j/M lies in the upper half-circle.

    cos(2*pi*j/M) > 0 exactly when 4j < M or 4j > 3M, so the test is pure
    integer comparison.  For odd M no index lands on the +-pi/2 boundary,
    hence the strict test covers the closed winning arc.
    """
    _check_modulus(modulus)
    return frozenset(
        j for j in range(modulus) if 4 * j < modulus or 4 * j > 3 * modulus
    )


def transition_matrix(combined: CombinedRingGame) -> TransitionMatrix:
    """One-step transition matrix of the combined game on Z_M.

    Picking game i (probability 1/G) and rotation a (probability 1/m_i) moves
    j -> j + (M/m_i)*a (mod M); coinciding displacements accumulate, e.g. the
    a=0 branch of every game piles onto the diagonal.  The result is circulant.
    """
    M = combined.modulus_product
    G = len(combined.games)
    offsets: dict[int, Fraction] = {}
    for game in combined.games:
        m = game.modulus
        p = Fraction(1, G * m)
        stride = M // m
        for a in range(m):
            off = (stride * a) % M
            offsets[off] = offsets.get(off, Fraction(0)) + p
    rows = [
        {(j + off) % M: p for off, p in offsets.items()} for j in range(M)
    ]
    return TransitionMatrix(rows)


def stationary_distribution(matrix: TransitionMatrix) -> Distribution:
    """Unique stationary distribution of the chain, in exact rationals.

    For a doubly stochastic matrix the uniform vector is checked directly
    against pi P = pi (the column-sum test IS that equation, exactly) and
    uniqueness follows from strong connectivity of the support graph; this
    keeps product chains with hundreds of states cheap.  Any other matrix
    goes through exact Gauss-Jordan elimination of (P^T - I) plus the
    normalisation row, which detects rank deficiencies.

    Raises NonUniqueStationaryError when the distribution is not unique.
    """
    M = matrix.size
    if matrix.is_doubly_stochastic():
        if not _strongly_connected(matrix):
            raise NonUniqueStationaryError(
                "support graph is not strongly connected; "
                "the stationary distribution is not unique"
            )
        return Distribution((Fraction(1, M),) * M)
    return _solve_stationary_dense(matrix)


def _strongly_connected(matrix: TransitionMatrix) -> bool:
    forward = [list(row.keys()) for row in matrix.rows]
    backward: list[list[int]] = [[] for _ in range(matrix.size)]
    for i, row in enumerate(matrix.rows):
        for j in row:
            backward[j].append(i)
    return _reaches_all(forward) and _reaches_all(backward)


def _reaches_all(adjacency: list[list[int]]) -> bool:
    seen = bytearray(len(adjacency))
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        i = stack.pop()
        for j in adjacency[i]:
            if not seen[j]:
                seen[j] = 1
                count += 1
                stack.append(j)
    return count == len(adjacency)


def _solve_stationary_dense(matrix: TransitionMatrix) -> Distribution:
    # Gauss-Jordan on the (M+1) x (M+1) augmented system [(P^T - I) | 0]
    # stacked with the normalisation row [1 ... 1 | 1].  A column without a
    # pivot means rank(P^T - I) < M - 1, i.e. several stationary solutions.
    M = matrix.size
    zero = Fraction(0)
    rows = [[zero] * (M + 1) for _ in range(M + 1)]
    for i, row in enumerate(matrix.rows):
        for j, p in row.items():
            rows[j][i] += p
    for d in range(M):
        rows[d][d] -= 1
    rows[M] = [Fraction(1)] * M + [Fraction(1)]

    n_rows = M + 1
    for c in range(M):
        pivot = next((k for k in range(c, n_rows) if rows[k][c] != 0), None)
        if pivot is None:
            raise NonUniqueStationaryError(
                f"rank deficiency at column {c}; "
                "the stationary distribution is not unique"
            )
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = Fraction(1) / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        pivot_row = rows[c]
        for k in range(n_rows):
            if k != c and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [v - f * w for v, w in zip(rows[k], pivot_row)]
    if rows[M][M] != 0:
        # cannot happen for a row-stochastic matrix: a stationary vector exists
        raise ValueError("inconsistent stationary system")
    return Distribution(tuple(rows[c][M] for c in range(M)))


def single_game_rate(game: RotationGame) -> RateReport:
    """Exact rate of one rotation game played on its own wheel."""
    return combined_rate(CombinedRingGame((game,)))


def combined_rate(combined: CombinedRingGame) -> RateReport:
    """Exact win probability and rate of the combined game under its stationary law."""
    dist = stationary_distribution(transition_matrix(combined))
    wins = winning_positions(combined.modulus_product)
    p = sum((dist.weights[j] for j in wins), Fraction(0))
    return RateReport(win_probability=p, rate=2 * p - 1, winning_count=len(wins))


def simulate_ring(combined: CombinedRingGame, steps: int, seed: int) -> RateReport:
    """Monte Carlo play from position 0; returns exact empirical frequencies.

    A fixed seed fixes the whole trajectory, so results are reproducible (the
    random draws happen up front, outside the kernel).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    M = combined.modulus_product
    moduli = np.array(combined.moduli, dtype=np.int64)
    rng = np.random.default_rng(seed)
    chosen = moduli[rng.integers(0, moduli.size, size=steps)]
    amounts = rng.integers(0, chosen)
    increments = (M // chosen) * amounts
    win_table = np.zeros(M, dtype=np.uint8)
    for j in winning_positions(M):
        win_table[j] = 1
    wins = int(kernels.ring_walk_wins(increments, M, win_table))
    p = Fraction(wins, steps)
    return RateReport(win_probability=p, rate=2 * p - 1, winning_count=wins)
