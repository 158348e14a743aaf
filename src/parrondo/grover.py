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

LETTER_A = "A"
LETTER_B = "B"
DEFAULT_LETTER_CAP = 10_000_000

_STREAM_BLOCK = 1 << 14

# Most plays the CLI accepts per waiting-time estimate.  waiting_time_stats
# makes each play's SeedSequence child as the play runs and keeps every
# stopping index: about 35 B per play at peak (43 MB peak RSS at 2e5 plays,
# 36 MB at 10^3).
MAX_TRIALS = 10**6

__all__ = [
    "LETTER_A",
    "LETTER_B",
    "DEFAULT_LETTER_CAP",
    "MAX_TRIALS",
    "StoppingCapExceeded",
    "StoppingStrategy",
    "PlayRecord",
    "WaitingTimeStats",
    "reduce_push",
    "realize_word",
    "sweep_success",
    "success_after_k",
    "canonical_k",
    "best_k",
    "play",
    "waiting_time_stats",
    "expected_stopping_index",
    "stopping_index_variance",
]


class StoppingCapExceeded(RuntimeError):
    """A play consumed its letter cap without reaching the stopping length."""


def reduce_push(length: int, letter: str) -> int:
    """Feed one letter into the streamed reduced word, returning the new length.

    New letters multiply on the left.  At even length (word starts with B or
    is empty) an A extends and a B cancels, except that B on the empty word is
    absorbed by the start state; at odd length (word starts with A) the roles
    swap.
    """
    if length < 0:
        raise ValueError(f"reduced length must be >= 0, got {length}")
    if letter == LETTER_A:
        return length - 1 if length % 2 else length + 1
    if letter == LETTER_B:
        if length % 2:
            return length + 1
        return length - 1 if length > 0 else 0
    raise ValueError(f"letter must be 'A' or 'B', got {letter!r}")


def _rounds(n: int, alpha: int):
    """Yield the states after 0, 1, 2, ... full rounds from the uniform start state.

    One round is a sign flip at alpha, then diffusion.  The next state is
    computed only when it is asked for, so taking j states runs j - 1 rounds.
    """
    state = statevec.uniform_state(n)
    while True:
        yield state
        state = statevec.diffusion(statevec.flip_sign_at(state, alpha))


def realize_word(length: int, n: int, alpha: int) -> np.ndarray:
    """Apply the reduced word of the given length to the uniform start state.

    Even length 2j runs j rounds of sign-flip-then-diffusion; odd length adds
    one more sign flip on top.
    """
    if length < 0:
        raise ValueError(f"reduced length must be >= 0, got {length}")
    state = next(itertools.islice(_rounds(n, alpha), length // 2, None))
    if length % 2:
        state = statevec.flip_sign_at(state, alpha)
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
    return math.sin((2 * k + 1) * math.asin(2.0 ** (-n / 2.0))) ** 2


def canonical_k(n: int) -> int:
    """The textbook round count ceil(pi * sqrt(2**n) / 4).

    A 1e-9 guard keeps values that are integers up to float rounding from
    being bumped one step too high by ceil.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.ceil(math.pi * math.sqrt(2.0**n) / 4.0 - 1e-9)


def best_k(n: int) -> int:
    """Round count maximising the closed-form success, by direct scan.

    Scans k in [0, canonical_k(n) + 2]; ties resolve to the smaller k.  This
    repairs the small-n cases where the ceiling rule overshoots the optimum.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return max(range(canonical_k(n) + 3), key=lambda k: success_after_k(n, k))


@dataclass(frozen=True)
class StoppingStrategy:
    """Stop at the first moment the reduced word holds target_k full rounds."""

    target_k: int

    def __post_init__(self):
        if self.target_k < 1:
            raise ValueError(f"target_k must be >= 1, got {self.target_k}")


@dataclass(frozen=True)
class PlayRecord:
    """Outcome of one play: letters consumed, exact success, and its seed."""

    stopping_index: int
    success_probability: float
    sequence_seed: int


@dataclass(frozen=True)
class WaitingTimeStats:
    """Empirical summary of stopping indices over independent plays."""

    trials: int
    mean: float
    variance: float
    max: int
    cap_exceeded: int


def _stopping_index(rng: np.random.Generator, target_length: int, letter_cap: int) -> int:
    """Letters consumed until the reduced length first equals target_length.

    Letters are drawn in blocks sized to the play: the first covers the exact
    mean hitting time target_length * (target_length + 1), at least 64
    letters, and each later block doubles up to _STREAM_BLOCK.  Block sizes
    are multiples of 4 because uint8 draws take whole 32-bit words, so the
    blocks give exactly the letters of one long draw and seeded plays do not
    depend on the block sizes.
    """
    consumed = 0
    level = 0
    first = max(64, target_length * (target_length + 1))
    block = min(_STREAM_BLOCK, -(-first // 4) * 4)
    while consumed < letter_cap:
        size = min(block, letter_cap - consumed)
        bits = rng.integers(0, 2, size=size, dtype=np.uint8)
        used, level, hit = kernels.push_letters_until(bits, level, target_length)
        consumed += used
        if hit:
            return consumed
        block = min(2 * block, _STREAM_BLOCK)
    raise StoppingCapExceeded(
        f"no stop at reduced length {target_length} within {letter_cap} letters"
    )


def play(
    n: int,
    alpha: int,
    strategy: StoppingStrategy,
    seed: int,
    letter_cap: int = DEFAULT_LETTER_CAP,
) -> PlayRecord:
    """One seeded play: stream letters, stop, realise the word, measure.

    The reflected letter walk reaches every even level with probability one,
    so the cap only turns pathological seeds into a loud StoppingCapExceeded
    instead of a hang.
    """
    rng = np.random.default_rng(seed)
    stopping_index = _stopping_index(rng, 2 * strategy.target_k, letter_cap)
    state = realize_word(2 * strategy.target_k, n, alpha)
    return PlayRecord(
        stopping_index=stopping_index,
        success_probability=statevec.probability_of(state, alpha),
        sequence_seed=seed,
    )


def expected_stopping_index(target_k: int) -> Fraction:
    """Exact expected letters until the reduced length first reaches 2*target_k.

    Folded onto the integers (see kernels.push_letters_until) the letter walk
    is a fair +-1 walk from 0 that stops at L = 2*target_k or -L-1, a
    gambler's ruin with mean duration L * (L + 1).
    """
    if target_k < 1:
        raise ValueError(f"target_k must be >= 1, got {target_k}")
    level = 2 * target_k
    return Fraction(level * (level + 1))


def stopping_index_variance(target_k: int) -> Fraction:
    """Exact variance of the letters until the reduced length reaches 2*target_k.

    The gambler's ruin duration from 0 between -(L+1) and L, with
    L = 2*target_k, has variance L(L+1)((L+1)^2 + L^2 - 2)/3.
    """
    if target_k < 1:
        raise ValueError(f"target_k must be >= 1, got {target_k}")
    level = 2 * target_k
    return Fraction(level * (level + 1) * ((level + 1) ** 2 + level**2 - 2), 3)


def waiting_time_stats(
    target_k: int,
    trials: int,
    seed: int,
    letter_cap: int = DEFAULT_LETTER_CAP,
) -> WaitingTimeStats:
    """Distribution of the stopping index over independent seeded plays.

    Plays that hit the letter cap are counted in cap_exceeded and excluded
    from the moments.  The state vector never enters: waiting times depend
    only on the letter stream.
    """
    if target_k < 1:
        raise ValueError(f"target_k must be >= 1, got {target_k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    times = []
    cap_exceeded = 0
    for i in range(trials):
        # child i of the seed, made when play i runs: the same stream as
        # SeedSequence(seed).spawn(trials)[i]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        try:
            times.append(_stopping_index(rng, 2 * target_k, letter_cap))
        except StoppingCapExceeded:
            cap_exceeded += 1
    if times:
        arr = np.array(times, dtype=np.float64)
        mean, variance, peak = float(arr.mean()), float(arr.var()), int(arr.max())
    else:
        mean, variance, peak = math.nan, math.nan, 0
    return WaitingTimeStats(
        trials=trials,
        mean=mean,
        variance=variance,
        max=peak,
        cap_exceeded=cap_exceeded,
    )
