"""Classical wheel games: exact rational analysis plus seeded Monte Carlo.

A wheel with odd modulus m spins by 2*pi*a/m radians, a drawn uniformly from
0..m-1; the player wins a round while the pointer angle theta satisfies
cos(theta) > 0 (the upper half-circle).  Random mixtures of wheels with
pairwise coprime moduli live on Z_M, M the product of the moduli; a single
wheel is the mixture of one modulus.  All probabilities on the exact side
are `fractions.Fraction`; only the Monte Carlo cross-check uses floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels

__all__ = [
    "MAX_POSITIONS",
    "MAX_STEPS",
    "CombinedRingGame",
    "winning_count",
    "single_game_rate",
    "transition_matrix",
    "stationary_distribution",
    "combined_rate",
    "simulate_ring",
    "win_frequency_z",
]


# Largest ring (product of the moduli) the CLI accepts.  The exact side costs
# O(sum of the moduli) and simulate_ring holds nothing M-sized, so only the
# JSON report's M stationary weights bound the ring: about 0.6 KB of peak RSS
# per position (189 MB and 1.5-2.1 s at M = 255,255 on a 2-core Xeon, with
# stdout to /dev/null), so the next wheel, 19, would need about 3 GB.  It
# also bounds the walk, so simulate_ring refuses a larger ring: _Words matches
# Generator.integers only for bounds up to 2**32, and each redraw seeks and
# re-reads the rest of its block, so the walk stays linear in its steps only
# while redraws are rare, as they are for moduli far below 2**32 (a modulus
# of 2**31 + 1 redraws half its words).
MAX_POSITIONS = 2**18

# Most Monte Carlo steps the CLI accepts.  simulate_ring streams its walk in
# blocks of _WALK_BLOCK steps, so its memory does not grow with the steps, and
# the cap bounds run time instead: about 15-18 ns per step on a 2-core Xeon,
# 0.45-0.55 s at 3e7 steps with two or six wheels.
MAX_STEPS = 3 * 10**7

# Steps simulate_ring draws and walks at once; its arrays peak near 2.4 MB
# under tracemalloc at any step count.
_WALK_BLOCK = 2**16


def _check_modulus(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be an odd integer >= 3, got {m!r}")


@dataclass(frozen=True)
class CombinedRingGame:
    """Uniformly random mixture of wheels with pairwise coprime odd moduli.

    Each modulus is checked against the product of the ones before it, so
    the coprime check costs one gcd per modulus.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(self.moduli))
        if not self.moduli:
            raise ValueError("a combined game needs at least one modulus")
        product = 1
        for m in self.moduli:
            _check_modulus(m)
            if math.gcd(m, product) != 1:
                k = next(k for k in self.moduli if math.gcd(k, m) != 1)
                raise ValueError(
                    f"moduli must be pairwise coprime: gcd({k}, {m}) = {math.gcd(k, m)}"
                )
            product *= m

    @property
    def modulus_product(self) -> int:
        return math.prod(self.moduli)


@dataclass(frozen=True)
class TransitionMatrix:
    """Circulant transition matrix on Z_size, as transition_matrix builds it.

    Every position i moves to i + offset (mod size) with probability
    offsets[offset], so entry (i, j) depends only on (j - i) mod size.  The
    offsets lie in 0..size-1 and their probabilities sum to exactly 1.
    """

    size: int
    offsets: dict[int, Fraction]

    def entry(self, i: int, j: int) -> Fraction:
        return self.offsets.get((j - i) % self.size, Fraction(0))


@dataclass(frozen=True)
class RateReport:
    """Win probability and per-round rate, payoff +1 per win and -1 per loss."""

    win_probability: Fraction
    winning_count: int

    @property
    def rate(self) -> Fraction:
        return 2 * self.win_probability - 1


def winning_count(modulus: int) -> int:
    """How many indices j of Z_M put the pointer angle 2*pi*j/M in the upper half-circle.

    cos(2*pi*j/M) > 0 exactly when 4j < M or 4j > 3M; for odd M no index
    lands on the +-pi/2 boundary.  With q = M // 4 the first test holds for
    j = 0..q and the second for j = M-q..M-1, so 2q + 1 indices win.
    """
    _check_modulus(modulus)
    return 2 * (modulus // 4) + 1


def transition_matrix(combined: CombinedRingGame) -> TransitionMatrix:
    """One-step transition matrix of the combined game on Z_M.

    Picking game i (probability 1/G) and rotation a (probability 1/m_i) moves
    j -> j + (M/m_i)*a (mod M); coinciding displacements accumulate, e.g. the
    a=0 branch of every game piles onto offset 0.  The matrix is the circulant
    of that offset law, which has at most sum(m_i) entries.
    """
    M = combined.modulus_product
    G = len(combined.moduli)
    offsets: dict[int, Fraction] = {}
    for m in combined.moduli:
        p = Fraction(1, G * m)
        stride = M // m
        for a in range(m):
            off = (stride * a) % M
            offsets[off] = offsets.get(off, Fraction(0)) + p
    return TransitionMatrix(M, offsets)


def stationary_distribution(matrix: TransitionMatrix) -> Fraction:
    """The one weight 1/M of the chain's unique stationary law, which is uniform.

    A circulant is a random walk on the group Z_M, so the uniform law is
    stationary; for a combined game's chain it is the only one, because the
    offsets generate Z_M (see combined_rate).
    """
    return Fraction(1, matrix.size)


def single_game_rate(modulus: int) -> RateReport:
    """Exact rate of one wheel played on its own, the mixture of one modulus."""
    return combined_rate(CombinedRingGame((modulus,)))


def combined_rate(combined: CombinedRingGame) -> RateReport:
    """Exact win probability and rate of the combined game under its stationary law.

    The rotation a = 1 of game i is the offset M/m_i.  A prime dividing M
    divides exactly one of the pairwise coprime moduli, so it misses some
    M/m_i: the offsets generate Z_M, and the law is the unique uniform one.
    The win probability is then the winning share of the M positions.
    """
    M = combined.modulus_product
    count = winning_count(M)
    p = Fraction(count, M)
    return RateReport(win_probability=p, winning_count=count)


class _Words:
    """The uint32 words a seeded numpy Generator feeds its bounded int64 draws.

    PCG64's next_uint32 hands out each raw uint64 as its low half, then its
    high half: word i of the seed's stream is half i % 2 of raw word i // 2.
    at, the next word, is all the stream keeps between calls, and bounded()
    gives the values of np.random.default_rng(seed).integers call for call.
    """

    def __init__(self, seed):
        self._bit_generator = np.random.PCG64(seed)
        self._seeded = self._bit_generator.state
        self._raw_read = 0  # raw words handed out since the last seek
        self.at = 0

    def _read(self, count):
        """Words at .. at + count - 1, as uint32; at does not move.

        Unless at is even and the last read stopped there, the read seeks
        first: the seeded state, then PCG64.advance(at // 2).
        """
        first, half = divmod(self.at, 2)
        if self.at != 2 * self._raw_read:
            self._bit_generator.state = self._seeded
            self._bit_generator.advance(first)
        self._raw_read = -(-(self.at + count) // 2)
        raw = self._bit_generator.random_raw(self._raw_read - first)
        return raw.astype("<u8", copy=False).view("<u4")[half : half + count]

    def skip(self, bound, count):
        """Move at where bounded(bound, count) moves it, drawing no value.

        A scalar bound of 1 takes no word.  Where Lemire's threshold
        (2**32 - bound) % bound is 0, as for 2 and 4, no word is redrawn and
        at moves by count.  Otherwise only the redrawn words decide how far
        at moves, so the low halves w * bound mod 2**32 are scanned for them,
        _WALK_BLOCK words at a time.
        """
        if bound == 1:
            return
        threshold = (2**32 - bound) % bound
        if threshold == 0:
            self.at += count
            return
        while count:
            words = self._read(min(count, _WALK_BLOCK))
            low = np.multiply(words, np.uint32(bound))  # wraps mod 2**32
            accepted = words.size
            if low.min() < threshold:
                accepted = int((low < threshold).argmax())
            self.at += accepted + (accepted < words.size)
            count -= accepted

    def bounded(self, bound, size, index=None):
        """size int64 draws of integers(0, bound), or of integers(0, bound[index]).

        Lemire's method, as numpy's bounded_lemire_uint32: word w gives
        (w * b) >> 32, and w is redrawn while the low half of w * b is below
        (2**32 - b) % b.  Bounds lie in [1, 2**32].  A scalar bound of 1
        takes no word, as numpy returns 0 without drawing; per-element bounds
        must exceed 1.  Redraws are rare for small bounds, so after one at
        passes the rejected word and the rest is read anew.
        """
        if index is None and bound == 1:
            return np.zeros(size, dtype=np.int64)
        bound = np.asarray(bound, dtype=np.uint64)
        threshold = (2**32 - bound) % bound
        worst = int(threshold.max())
        draws, done = [], 0
        while True:
            words = self._read(size - done)
            if index is None:
                product = np.multiply(words, bound, dtype=np.uint64)
            else:
                product = bound[index[done:]]
                np.multiply(words, product, out=product)
            accepted = product.size
            low = product.astype(np.uint32) if worst else None
            if worst and (low < worst).any():
                rejected = low < (threshold if index is None else threshold[index[done:]])
                if rejected.any():
                    accepted = int(rejected.argmax())
            self.at += accepted + (accepted < product.size)
            product >>= 32
            draws.append(product[:accepted])
            done += accepted
            if done == size:
                return (draws[0] if len(draws) == 1 else np.concatenate(draws)).view(np.int64)


def simulate_ring(combined: CombinedRingGame, steps: int, seed: int) -> RateReport:
    """Monte Carlo play from position 0; returns exact empirical frequencies.

    A fixed seed fixes the whole trajectory: the seed's stream holds every
    game choice, then every rotation, as np.random.default_rng(seed).integers
    would draw them.  The draws read PCG64's raw words and redraw by Lemire's
    rule (see _Words), so they match integers exactly.  The walk runs in
    blocks of _WALK_BLOCK steps, the choices read from word 0 of that stream
    and the rotations from where _Words.skip leaves it, past the choices; a
    rotation block that starts inside a raw word seeks once to re-draw it.
    The draws in blocks are those of one long draw, so the block size does
    not change the result.  Rings of more than MAX_POSITIONS positions are
    refused (see there).

    The walk runs in coordinates rotated by q = M // 4, starting at q: the
    winning arc [-q, q] of Z_M becomes [0, 2q], so the kernel counts the
    steps below winning_count(M) = 2q + 1 and no M-sized table is built.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    M = combined.modulus_product
    if M > MAX_POSITIONS:
        raise ValueError(f"moduli product {M} exceeds the limit of {MAX_POSITIONS} positions")
    moduli = np.array(combined.moduli, dtype=np.uint64)
    strides = (M // moduli).astype(np.int64)
    rotations = _Words(seed)
    rotations.skip(moduli.size, steps)
    choices = _Words(seed)
    width = winning_count(M)
    wins, position = 0, M // 4
    for start in range(0, steps, _WALK_BLOCK):
        size = min(_WALK_BLOCK, steps - start)
        game = choices.bounded(moduli.size, size)
        increments = rotations.bounded(moduli, size, game)
        increments *= strides[game]
        block_wins, position = kernels.ring_walk_wins(increments, M, width, position)
        wins += block_wins
    p = Fraction(wins, steps)
    return RateReport(win_probability=p, winning_count=wins)


def win_frequency_z(
    combined: CombinedRingGame, frequency: Fraction, steps: int
) -> tuple[float, float]:
    """Standard error and z-score of a win frequency under the binomial model p(1-p)/steps."""
    p = float(combined_rate(combined).win_probability)
    standard_error = math.sqrt(p * (1 - p) / steps)
    return standard_error, (float(frequency) - p) / standard_error
