"""The stopping game over random reflection sequences.

Letters arrive i.i.d. with equal probability: A reflects the state about the
target basis vector (a sign flip at one index), B reflects about the uniform
start state (diffusion).  Both letters square to the identity and B fixes the
start state, so any finite prefix collapses to an alternating word that is
fully described by a single integer length: even length 2j means j complete
B*A rounds, odd length adds one leading A.  One B*A round is exactly one
amplitude-amplification iteration, which is what makes waiting for the right
reduced length a winning strategy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels, statevec

# Most letters in a short play's block and in a long play's (see _block).
# Each kernel call costs about as much as 2,000 letters, so at k = 204
# blocks of 2^14 made about 11 calls a play.  On a 2-core Xeon one play at
# each k = 1..204 took 29-31 ms in-process against 35-36 ms in blocks of
# 2^14 (mean over seeds 1-8, best of 5), and plays at k = 805 and 4000
# walked about 1.0e9 letters a second against 5.7e8.  100 plays at k = 807
# took 0.31 s with a long block of at most 2^17, 0.35-0.37 s at 2^16 and
# 0.45-0.47 s at 2^18.
_STREAM_BLOCK = 1 << 14
_LONG_BLOCK = 1 << 17

# Most first-block letters walked in one kernel call when plays are walked
# together (about 10 B of working set a letter), and the fewest plays walked
# so.  In-process at k = 4 on a 2-core Xeon, 10^4 plays took 35, 30 and 35 ms
# in chunks of 2^14, 2^15 and 2^16 letters; 2, 3, 4, 5 and 8 plays took
# 153-211, 159-185, 157-158, 162-226 and 166-211 us walked together, 78-84,
# 104-109, 140-153, 205-248 and 272-335 us one by one (best of 500, two
# runs).  Longer rows cost kernels._child_rows more: at k = 19 (741 words)
# 4 and 32 plays took 1.3 and 2.6 ms walked together, 0.2 and 1.6 ms alone.
_CHUNK_LETTERS = 1 << 15
_BATCH_PLAYS = 4

# Most plays the CLI accepts per waiting-time estimate.  waiting_time_stats
# keeps every stopping index as one float64, 8 B a play, and walks the plays
# a chunk at a time: grover -n 4 --trials N peaks at 37, 38 and 44 MB of RSS
# for N = 10^3, 2e5 and 10^6 (36, 41 and 59 MB when it kept a Python list),
# and takes 3.5-5.0 s at 10^6 on a 2-core Xeon (6.8-9.0 s when every play
# re-seated a Generator).
MAX_TRIALS = 10**6

# Most Grover rounds the CLI runs for one command.  It bounds the memory of
# the rounds, about 32 B each in sweep_success, not the plays' run time:
# grover -n 2 --strategy k=1000000 --trials 1 --letter-cap 10000000 peaks at
# 74 MB of RSS against 36 MB at k=1 and takes 3.9-4.1 s on a 2-core Xeon
# (14 s when every round built two fresh arrays), but a play at k draws about
# 4k^2 letters (default cap 80k^2) at about 1e9 a second: an hour a play at
# k=10^6.
MAX_ROUNDS = 10**6

__all__ = [
    "MAX_TRIALS",
    "MAX_ROUNDS",
    "WaitingTimeStats",
    "realize_word",
    "sweep_success",
    "success_after_k",
    "canonical_k",
    "best_k",
    "waiting_time_stats",
    "default_letter_cap",
    "expected_stopping_index",
    "stopping_index_variance",
]


def _rounds(n: int, alpha: int):
    """Yield the states after 0, 1, 2, ... full rounds from the uniform start state.

    One round is a sign flip at alpha, then diffusion, the same float
    operations as statevec.flip_sign_at and statevec.diffusion, but both
    written into one buffer: every state yielded is that buffer, valid only
    until the next state is asked for.  The next state is computed only when
    it is asked for, so taking j states runs j - 1 rounds.  alpha is checked
    before the first state, as an in-place flip at a negative index would
    wrap round.
    """
    state = statevec.uniform_state(n)
    statevec._check_index(n, alpha)
    while True:
        yield state
        state[alpha] = -state[alpha]
        statevec.diffusion(state, out=state)


def realize_word(length: int, n: int, alpha: int) -> np.ndarray:
    """Apply the reduced word of the given length to the uniform start state.

    Even length 2j runs j rounds of sign-flip-then-diffusion; odd length adds
    one more sign flip on top.  The rounds' buffer is returned as it is: its
    generator is dropped here, so the caller holds the only reference.
    """
    if length < 0:
        raise ValueError(f"reduced length must be >= 0, got {length}")
    state = next(itertools.islice(_rounds(n, alpha), length // 2, None))
    if length % 2:
        state[alpha] = -state[alpha]
    return state


def sweep_success(n: int, alpha: int, k_max: int) -> list[float]:
    """State-vector success probability after k full rounds, for k = 0..k_max.

    One state is carried through k_max rounds, so the sweep costs
    O(k_max * 2**n); entry k equals
    probability_of(realize_word(2 * k, n, alpha), alpha) exactly, because the
    same operators run in the same order.
    """
    if k_max < 0:
        raise ValueError(f"round count k_max must be >= 0, got {k_max}")
    return [
        statevec.probability_of(state, alpha)
        for state in itertools.islice(_rounds(n, alpha), k_max + 1)
    ]


def success_after_k(n: int, k: int) -> float:
    """Closed-form success sin((2k+1) * asin(2**(-n/2)))**2 after k full rounds."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 0:
        raise ValueError(f"round count k must be >= 0, got {k}")
    return _success_at(_angle(n), k)


def _angle(n: int) -> float:
    """The Grover angle asin(2**(-n/2)) of n qubits."""
    return math.asin(2.0 ** (-n / 2.0))


def _success_at(theta: float, k: int) -> float:
    """Success sin((2k+1) * theta)**2 after k full rounds at angle theta."""
    return math.sin((2 * k + 1) * theta) ** 2


def canonical_k(n: int) -> int:
    """The textbook round count ceil(pi * sqrt(2**n) / 4).

    pi * sqrt(2**n) / 4 is irrational, and for n in 2..24 it lies at least
    0.009 from every integer, so float rounding never moves the ceiling there.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.ceil(math.pi * math.sqrt(2.0**n) / 4.0)


def best_k(n: int) -> int:
    """Round count maximising the closed-form success, by direct scan.

    Scans k in [0, canonical_k(n) + 2]; ties resolve to the smaller k.  This
    repairs the small-n cases where the ceiling rule overshoots the optimum.
    Each success is success_after_k's float, from one shared angle.
    """
    theta = _angle(n)
    return max(range(canonical_k(n) + 3), key=lambda k: _success_at(theta, k))


@dataclass(frozen=True)
class WaitingTimeStats:
    """Empirical summary of stopping indices over plays run under letter_cap."""

    trials: int
    mean: float
    variance: float
    max: int
    cap_exceeded: int
    letter_cap: int


def _letters(words: np.ndarray, size: int) -> np.ndarray:
    """The first size letters held by raw uint64 words of a seeded stream.

    They are the letters of Generator.integers(0, 2, size, dtype=np.uint8)
    when words are the stream's next random_raw words: numpy draws a uint8
    on [0, 2) by Lemire's method with threshold 0, so each letter is bit 7
    of one byte of PCG64's raw uint64 words, low byte first.  A size off a
    multiple of 8 leaves the rest of its last word unread.  A (plays, words)
    array gives one row of letters per play; words is overwritten.
    """
    bits = words.astype("<u8", copy=False).view(np.uint8)[..., :size]
    bits >>= 7
    return bits


def _block(target_length: int) -> int:
    """Letters per block of a play: four mean hitting times, or the mean for a long play.

    A short play's block is 4 * target_length * (target_length + 1)
    letters, rounded up to a multiple of 8, within [64, _STREAM_BLOCK].  A
    play whose mean target_length * (target_length + 1) reaches 2^15 (k from
    91 up) draws that mean rounded down to a power of two instead, at most
    _LONG_BLOCK.  The letters drawn past the hit average about half a
    block, so on average they stay below half the mean.  Every play up to
    k = 90 keeps the first rule's block.
    """
    mean = target_length * (target_length + 1)
    short = min(_STREAM_BLOCK, -(-max(64, 4 * mean) // 8) * 8)
    return min(_LONG_BLOCK, max(short, 1 << (mean.bit_length() - 1)))


def _stopping_index(
    rng: np.random.Generator, target_length: int, letter_cap: int
) -> int | None:
    """Letters consumed until the reduced length first equals target_length.

    Letters are drawn in blocks of _block(target_length) letters, one size
    throughout a play.  A kernel call costs about as much as walking 2,000
    letters one by one, so a short play's block is sized to end nearly every
    play, not only the average one: 1.01 kernel calls per play at k = 4 and
    6, against 1.40 with a first block of the mean.  The few plays that
    outrun it draw later blocks of the same size.  A long play's block, up
    to 2^17 letters, is its mean rounded down to a power of two: at k = 204
    a play makes 1.8 kernel calls, against 11 in blocks of 2^14.  The
    letters come from rng's raw words (see _letters), one word per 8
    letters, so the blocks give exactly the letters of one long
    rng.integers(0, 2, dtype=np.uint8) draw and seeded plays do not depend
    on the block sizes.  Only the block cut short by letter_cap can
    end inside a word, and no draw follows it.  The walk reaches every level
    with probability one, so letter_cap only bounds a pathological stream: a
    play that spends letter_cap letters without stopping returns None
    instead of hanging.  _stopping_indices walks many plays' first blocks
    at once, and plays again here each play that outruns its first block.
    """
    raw = rng.bit_generator.random_raw
    consumed = 0
    level = 0
    block = _block(target_length)
    while consumed < letter_cap:
        size = min(block, letter_cap - consumed)
        bits = _letters(raw(-(-size // 8)), size)
        used, level, hit = kernels.push_letters_until(bits, level, target_length)
        consumed += used
        if hit:
            return consumed
    return None


def _stopping_indices(target_length: int, trials: int, seed, letter_cap: int):
    """Yield the stopping indices of the plays that stop, in play order, a chunk at a time.

    Play i draws child i of the seed.  Fewer than _BATCH_PLAYS plays, or
    plays whose first block takes the word walk (k from 20 up), run alone
    through _stopping_index, one chunk per play, on kernels.seed_children's
    Generators.  Otherwise a chunk covers the plays of up to _CHUNK_LETTERS
    letters of first blocks, less those that spend letter_cap letters
    without stopping: kernels._child_rows computes its first-block rows, one
    per play, from its children's seed words with no Generator built, and
    one kernels._letter_walk call walks all the rows.  A play that outruns
    its first block, about 1 in 100, is played again from the start by
    _stopping_index on a Generator numpy builds for its child, so it draws
    the same letters and stops at the same index.  Both paths check the seed
    before the first play, numpy's own check first.
    """
    block = _block(target_length)
    if trials < _BATCH_PLAYS or block >= kernels._WORD_WALK:
        for rng in itertools.islice(kernels.seed_children(seed), trials):
            index = _stopping_index(rng, target_length, letter_cap)
            yield [] if index is None else [index]
        return
    size = min(block, letter_cap)
    key = kernels._row_key(seed, -(-size // 8))
    plays = _CHUNK_LETTERS // block
    for first in range(0, trials, plays):
        rows = kernels._child_rows(key, first, min(plays, trials - first))
        used, _ = kernels._letter_walk(_letters(rows, size), 0, target_length)
        if size < letter_cap:
            for j in np.flatnonzero(used == 0).tolist():
                child = np.random.SeedSequence(seed, spawn_key=(first + j,))
                index = _stopping_index(np.random.default_rng(child), target_length, letter_cap)
                used[j] = index or 0
        yield used[used > 0]


def _level(target_k: int) -> int:
    """The reduced length L = 2*target_k at which a play for target_k stops."""
    if target_k < 1:
        raise ValueError(f"target_k must be >= 1, got {target_k}")
    return 2 * target_k


def expected_stopping_index(target_k: int) -> Fraction:
    """Exact expected letters until the reduced length first reaches 2*target_k.

    Folded onto the integers (see kernels.push_letters_until) the letter walk
    is a fair +-1 walk from 0 that stops at L = 2*target_k or -L-1, a
    gambler's ruin with mean duration L * (L + 1).
    """
    level = _level(target_k)
    return Fraction(level * (level + 1))


def stopping_index_variance(target_k: int) -> Fraction:
    """Exact variance of the letters until the reduced length reaches 2*target_k.

    The gambler's ruin duration from 0 between -(L+1) and L, with
    L = 2*target_k, has variance L(L+1)((L+1)^2 + L^2 - 2)/3.
    """
    level = _level(target_k)
    return Fraction(level * (level + 1) * ((level + 1) ** 2 + level**2 - 2), 3)


def default_letter_cap(target_k: int) -> int:
    """Letters a play may spend by default: max(10**7, 20 * L * (L + 1)), L = 2*target_k.

    The stopping index has mean L(L+1) and an exponential tail on the scale
    L^2, so a play passes 20 times its mean with probability below 2.5e-11
    at every L (tests/oracles.py checks this exactly for small L): the cap
    only bounds a pathological stream, at any qubit count.
    """
    level = _level(target_k)
    return max(10**7, 20 * level * (level + 1))


def waiting_time_stats(
    target_k: int,
    trials: int,
    seed: int,
    letter_cap: int | None = None,
) -> WaitingTimeStats:
    """Distribution of the stopping index over independent seeded plays.

    seed is a non-negative integer; any other seed raises numpy's error, or
    TypeError for a sequence, before the first play.  Play i draws child i
    of the seed, SeedSequence(seed).spawn(trials)[i], and stops where
    _stopping_index stops it on that child's stream; short plays are walked
    a chunk at a time (_stopping_indices).  Plays that hit the letter cap,
    default_letter_cap(target_k) unless given, are counted in cap_exceeded
    and excluded from the moments.  A given cap must be >= 1.  The state
    vector never enters: waiting times depend only on the letter stream.
    The stopping indices are kept in play order in one float64 array, and
    mean and variance are numpy's mean and var of it, the variance taken in
    place.
    """
    level = _level(target_k)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if letter_cap is None:
        letter_cap = default_letter_cap(target_k)
    elif letter_cap < 1:
        # named by its digit count past 20 digits, like the CLI's bounds
        digits = len(str(-letter_cap))
        shown = letter_cap if digits <= 20 else f"a value of {digits} digits"
        raise ValueError(f"letter cap must be >= 1, got {shown}")
    # float64, not int64: var subtracts the float mean from these same values
    times = np.empty(trials)
    kept = 0
    for stopped in _stopping_indices(level, trials, seed, letter_cap):
        times[kept : kept + len(stopped)] = stopped
        kept += len(stopped)
    if kept:
        times = times[:kept]
        # numpy's mean and var, sums over the count, without var's copy
        mean, peak = times.sum() / kept, times.max()
        times -= mean
        times *= times
        mean, variance, peak = float(mean), float(times.sum() / kept), int(peak)
    else:
        mean, variance, peak = math.nan, math.nan, 0
    return WaitingTimeStats(
        trials=trials,
        mean=mean,
        variance=variance,
        max=peak,
        cap_exceeded=trials - kept,
        letter_cap=letter_cap,
    )
