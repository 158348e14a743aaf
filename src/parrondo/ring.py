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
import os
import threading
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
# O(sum of the moduli) and simulate_ring holds nothing M-sized above
# _PART_POSITIONS positions, so only the JSON report's M stationary weights
# bound the ring: about 0.26 KB of peak RSS per position, a few copies of the
# 90-byte entry (97 MB and 0.30-0.42 s at M = 255,255 on a 2-core Xeon, with
# stdout to /dev/null), so the next wheel, 19, would need about 1.3 GB.  It
# also bounds the walk, so simulate_ring refuses a larger ring: _Words matches
# Generator.integers only for bounds up to 2**32, and each redraw seeks and
# re-reads the rest of its block, so the walk stays linear in its steps only
# while redraws are rare, as they are for moduli far below 2**32 (a modulus of
# 2**31 + 1 redraws half its words).
MAX_POSITIONS = 2**18

# Most Monte Carlo steps the CLI accepts.  simulate_ring streams its walk in
# blocks of _WALK_BLOCK steps, so its memory does not grow with the steps, and
# the cap bounds run time instead.  On a 2-core Xeon, 3e7 steps take about
# 0.30-0.39 s with two wheels, whose walk is split in two parts, and about
# 0.47-0.68 s with six, whose ring is too large to split.
MAX_STEPS = 3 * 10**7

# Steps simulate_ring draws and walks at once, in each part of the walk; one
# block's arrays peak near 2.4 MB under tracemalloc at any step count.
_WALK_BLOCK = 2**16

# A walk of at least 2 * _PART_STEPS steps on a ring of at most
# _PART_POSITIONS positions is split into parts: one per usable CPU, but no
# more than one per _PART_STEPS steps.  Each later part runs on its own thread
# with its own block arrays and M int64 counts (512 KiB at most); two parts
# raise the peak RSS of ring --steps 20000000 by about 1.9 MB.  On a 2-core
# Xeon splitting pays from 2**19 steps on (11.3 -> 8.7 ms), so the floor is
# set by memory, not time: the 10**6-step walks of the README and of
# reproduce stay in one part.
_PART_STEPS = 2**21
_PART_POSITIONS = 2**16


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

    def __init__(self, seed, at=0):
        self._bit_generator = np.random.PCG64(seed)
        self._seeded = self._bit_generator.state
        self._raw_read = 0  # raw words handed out since the last seek
        self.at = at

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
        passes the rejected word and the rest is read anew.  A scalar power
        of two 2**k redraws nothing, and its product's high half is the
        word's top k bits, so that draw is one shift.
        """
        if index is None and bound == 1:
            return np.zeros(size, dtype=np.int64)
        if index is None and bound & (bound - 1) == 0:
            words = self._read(size)
            self.at += size
            return np.right_shift(words, 33 - int(bound).bit_length(), dtype=np.int64)
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
    Rings of more than MAX_POSITIONS positions are refused (see there).

    A long walk on a small ring is split into contiguous parts of whole
    blocks, one per usable CPU (see _PART_STEPS).  Part 0 walks on the
    calling thread.  Each later part walks on its own thread from offset 0:
    its choices start at the word where the earlier parts' choices end, and
    its rotations at the rotations' first word plus its first step, as if no
    earlier part redrew a rotation word.  It counts its steps on each residue
    and keeps its end offset.  The walk is a random walk on the group Z_M
    (Diaconis 1988, ch. 3), so the part played from position p visits its
    residues shifted by p.  The join, in part order, adds the part's counts
    on the residues that p moves onto the winning arc, then moves p by its
    end offset.  If an earlier part did redraw a rotation word, the later
    parts are walked again on the calling thread, from the true word and
    position.  An exception in any part is raised in the caller.  The draws
    in blocks and parts are those of one long draw, and the join is exact,
    so neither the block size nor the part count changes the result.

    The walk runs in coordinates rotated by q = M // 4, starting at q: the
    winning arc [-q, q] of Z_M becomes [0, 2q], so a step wins when it lies
    below winning_count(M) = 2q + 1.  Only a later part holds an M-sized
    array, its counts, and only on a ring of at most _PART_POSITIONS.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    M = combined.modulus_product
    if M > MAX_POSITIONS:
        raise ValueError(f"moduli product {M} exceeds the limit of {MAX_POSITIONS} positions")
    moduli = np.array(combined.moduli, dtype=np.uint64)
    strides = (M // moduli).astype(np.int64)
    width = winning_count(M)
    firsts = _walk_parts(M, steps)
    # the first choice word of each part, then the rotations' first word, past every choice
    rotations, choice_starts = _Words(seed), []
    for first, end in zip(firsts, firsts[1:]):
        choice_starts.append(rotations.at)
        rotations.skip(moduli.size, end - first)
    rotation_start = rotations.at
    walk = (M, moduli, strides)
    parts = [
        _Part(_Words(seed, at), _Words(seed, rotation_start + first), end - first, *walk)
        for at, first, end in zip(choice_starts[1:], firsts[1:], firsts[2:])
    ]
    for part in parts:
        part.start()
    try:
        wins, position = _walk(_Words(seed), rotations, firsts[1], M // 4, *walk, width)
    finally:
        for part in parts:
            part.join()
    for part in parts:
        if isinstance(part.result, BaseException):
            raise part.result
    for k, part in enumerate(parts, 1):
        if rotations.at != rotation_start + firsts[k]:
            # an earlier part redrew a rotation word: walk the rest again from the true one
            choices = _Words(seed, choice_starts[k])
            more, position = _walk(choices, rotations, steps - firsts[k], position, *walk, width)
            wins += more
            break
        counts, end = part.result
        # residue r lies on the winning arc from position p when (p + r) mod M < width
        wins += int(np.roll(counts, position)[:width].sum())
        position = (position + end) % M
        rotations = part.rotations
    p = Fraction(wins, steps)
    return RateReport(win_probability=p, winning_count=wins)


def _walk_parts(M, steps):
    """The first step of each part of the walk, then steps.

    A walk splits only on a ring of at most _PART_POSITIONS positions, into
    at most one part per usable CPU and one per _PART_STEPS steps, at
    multiples of _WALK_BLOCK.  _PART_STEPS is at least _WALK_BLOCK, so every
    part holds at least one block.
    """
    count = 1
    if M <= _PART_POSITIONS and steps >= 2 * _PART_STEPS:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        count = min(cpus, steps // _PART_STEPS)
    blocks = -(-steps // _WALK_BLOCK)
    return [min(steps, k * blocks // count * _WALK_BLOCK) for k in range(count + 1)]


def _walk(choices, rotations, steps, position, M, moduli, strides, width=None, counts=None):
    """Walk the readers' next steps steps from position: (winning steps, end position).

    With counts, each step's position is added to counts (ring_walk_counts)
    instead, and 0 steps win.
    """
    wins = 0
    for start in range(0, steps, _WALK_BLOCK):
        size = min(_WALK_BLOCK, steps - start)
        game = choices.bounded(moduli.size, size)
        increments = rotations.bounded(moduli, size, game)
        increments *= strides[game]
        if counts is None:
            block_wins, position = kernels.ring_walk_wins(increments, M, width, position)
            wins += block_wins
        else:
            position = kernels.ring_walk_counts(increments, M, position, counts)
    return wins, position


class _Part(threading.Thread):
    """A later part of a split walk, walked on its own thread from offset 0.

    Its result is (counts, end): counts[r] of its steps land on residue r,
    and it ends at offset end.  An exception is kept as the result instead,
    for the caller to raise.  The rotation reader is left past the part's
    last word.  The part calls ring_walk_counts, which no tracer wraps, as a
    tracer keeps one span stack for all threads.
    """

    def __init__(self, choices, rotations, steps, M, moduli, strides):
        super().__init__(daemon=True)
        self.rotations = rotations
        self.counts = np.zeros(M, dtype=np.int64)
        self.args = (choices, rotations, steps, 0, M, moduli, strides)
        self.result = None

    def run(self):
        try:
            self.result = self.counts, _walk(*self.args, counts=self.counts)[1]
        except BaseException as error:
            self.result = error


def win_frequency_z(
    combined: CombinedRingGame, frequency: Fraction, steps: int
) -> tuple[float, float]:
    """Standard error and z-score of a win frequency under the binomial model p(1-p)/steps."""
    p = float(combined_rate(combined).win_probability)
    standard_error = math.sqrt(p * (1 - p) / steps)
    return standard_error, (float(frequency) - p) / standard_error
