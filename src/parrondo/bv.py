"""The unreliable-oracle guessing game on n qubits.

The player tries to land on a hidden nonzero string alpha by running the
three-step sequence H..O..H from |0...0>.  The catch: the phase oracle O only
fires on a random half of the eligible basis states (those y with
y . alpha = 1), so each play happens against a concrete noise realization.
Success probabilities are computed from amplitudes, never sampled.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import statevec

NOISELESS = "noiseless"
FIXED_HALF = "fixed-half"
INDEPENDENT = "independent"
NOISE_MODES = (NOISELESS, FIXED_HALF, INDEPENDENT)

# Most trials and demonstration shots the CLI accepts.  The CLI keeps one
# report row per trial, about 1.5 KB per trial at peak with --format json
# (192 MB peak RSS at 10^5 trials on 2 qubits, 37 MB at 10^3); sampling holds
# about 15 B per shot (189 MB at 10^7 shots, 36 MB at 10^3).
MAX_TRIALS = 10**5
MAX_SAMPLES = 10**7

__all__ = [
    "NOISELESS",
    "FIXED_HALF",
    "INDEPENDENT",
    "NOISE_MODES",
    "MAX_TRIALS",
    "MAX_SAMPLES",
    "NoiseRealization",
    "BvResult",
    "flip_candidates",
    "first_candidate",
    "draw_realization",
    "noisy_oracle",
    "run_game",
    "exact_success",
    "single_reflection_baseline",
    "independent_exhaustive_mean",
]


def _dot(x: int, alpha: int) -> int:
    """Bitwise inner product modulo 2."""
    return (x & alpha).bit_count() & 1


def _check_alpha(n: int, alpha: int) -> None:
    if not (0 <= alpha < (1 << n)):
        raise ValueError(f"alpha {alpha} out of range for {n} qubits")
    if alpha == 0:
        raise ValueError("the hidden string alpha must be nonzero")


def flip_candidates(n: int, alpha: int) -> np.ndarray:
    """All basis indices y with y . alpha = 1, ascending; 2**(n-1) of them."""
    _check_alpha(n, alpha)
    idx = np.arange(1 << n, dtype=np.uint64)
    odd = (np.bitwise_count(idx & np.uint64(alpha)) & 1).astype(bool)
    return np.nonzero(odd)[0].astype(np.int64)


def first_candidate(n: int, alpha: int) -> int:
    """The smallest y with y . alpha = 1: the lowest set bit of alpha.

    Equals flip_candidates(n, alpha)[0] without the pass over 2**n indices:
    every y below the lowest set bit shares no bit with alpha.
    """
    _check_alpha(n, alpha)
    return alpha & -alpha


@dataclass(frozen=True, eq=False)
class NoiseRealization:
    """One concrete noise draw: the eligible indices the oracle left unflipped.

    unflipped is a sorted, read-only int64 array; compare two realizations
    through it with np.array_equal.  Any iterable of ints is accepted and
    checked in one vectorised pass: every index in range, y . alpha = 1, no
    repeats.
    """

    qubits: int
    alpha: int
    unflipped: np.ndarray

    def __post_init__(self):
        _check_alpha(self.qubits, self.alpha)
        values = self.unflipped
        if not isinstance(values, np.ndarray):
            values = np.array([operator.index(y) for y in values], dtype=np.int64)
        arr = np.sort(values.astype(np.int64, casting="safe", copy=False))
        if arr.ndim != 1:
            raise ValueError("unflipped indices must form a flat sequence")
        if arr.size and (arr[0] < 0 or arr[-1] >= 1 << self.qubits):
            raise ValueError(f"unflipped index out of range for {self.qubits} qubits")
        even = (np.bitwise_count(arr & self.alpha) & 1) == 0
        if even.any():
            raise ValueError(
                f"unflipped index {arr[even][0]} does not satisfy y . alpha = 1"
            )
        if np.any(arr[1:] == arr[:-1]):
            raise ValueError("unflipped indices must not repeat")
        arr.flags.writeable = False
        object.__setattr__(self, "unflipped", arr)


@dataclass(frozen=True)
class BvResult:
    success_probability: float
    realization: NoiseRealization


def draw_realization(
    n: int, alpha: int, mode: str, rng: np.random.Generator
) -> NoiseRealization:
    """Sample the unflipped subset for one play.

    fixed-half leaves exactly 2**(n-2) of the 2**(n-1) eligible indices
    unflipped; independent tosses a fair coin per eligible index; noiseless
    flips them all.  The draw is stored as it comes, as an index array.
    """
    if mode == NOISELESS:
        return NoiseRealization(qubits=n, alpha=alpha, unflipped=())
    candidates = flip_candidates(n, alpha)
    if mode == FIXED_HALF:
        if n < 2:
            raise ValueError("fixed-half noise needs n >= 2")
        unflipped = rng.choice(candidates, size=1 << (n - 2), replace=False)
    elif mode == INDEPENDENT:
        coins = rng.integers(0, 2, size=candidates.size).astype(bool)
        unflipped = candidates[coins]
    else:
        raise ValueError(f"unknown noise mode {mode!r}; expected one of {NOISE_MODES}")
    return NoiseRealization(qubits=n, alpha=alpha, unflipped=unflipped)


def noisy_oracle(state, realization: NoiseRealization) -> np.ndarray:
    """Apply the unreliable phase oracle for one realization.

    Amplitudes at x with x . alpha = 0 are untouched; eligible amplitudes are
    negated unless their index sits in the unflipped set.  That is the
    reliable phase oracle followed by one scatter that negates the unflipped
    amplitudes back.  Norm is preserved exactly (every factor is +-1).
    """
    n = statevec.num_qubits(state)
    if n != realization.qubits:
        raise ValueError(
            f"realization is for {realization.qubits} qubits, state has {n}"
        )
    out = statevec.phase_oracle(state, realization.alpha)
    keep = realization.unflipped
    out[keep] = -out[keep]
    return out


def run_game(n: int, alpha: int, mode: str, seed: int) -> BvResult:
    """One seeded play of H..O..H from |0...0>, success read off the amplitudes.

    The first Hadamard layer maps |0...0> to the uniform state, which is
    built directly, so a play runs one transform, not two.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    _check_alpha(n, alpha)
    rng = np.random.default_rng(seed)
    realization = draw_realization(n, alpha, mode, rng)
    state = noisy_oracle(statevec.uniform_state(n), realization)
    state = statevec.hadamard_all(state)
    return BvResult(statevec.probability_of(state, alpha), realization)


def exact_success(n: int, unflipped_count: int) -> float:
    """Closed-form success probability (1 - u / 2**(n-1))**2.

    The final amplitude on alpha is 1 - 2u/2**n: every unflipped eligible
    index moves weight 2/2**n off the matched phase pattern.
    """
    half = 1 << (n - 1)
    if not (0 <= unflipped_count <= half):
        raise ValueError(f"unflipped count {unflipped_count} outside [0, {half}]")
    return (1.0 - unflipped_count / half) ** 2


def single_reflection_baseline(n: int, alpha: int, y: int) -> float:
    """Success when the player reflects about a single |y> instead of the oracle.

    Evaluates |<alpha| H (flip y) H |0...0>|**2 through the state-vector
    pipeline, starting from the uniform state H|0...0>; the value is 4/4**n
    for every eligible y.
    """
    _check_alpha(n, alpha)
    if _dot(y, alpha) != 1:
        raise ValueError(f"reflection index y={y} must satisfy y . alpha = 1")
    state = statevec.flip_sign_at(statevec.uniform_state(n), y)
    state = statevec.hadamard_all(state)
    return statevec.probability_of(state, alpha)


def independent_exhaustive_mean(n: int, alpha: int) -> float:
    """Mean success over all 2**(2**(n-1)) equally likely independent draws.

    Exhaustive enumeration; limited to n <= 4 where the subset count stays at
    or below 256.
    """
    if n < 2 or n > 4:
        raise ValueError("exhaustive enumeration supports 2 <= n <= 4")
    _check_alpha(n, alpha)
    candidates = [int(y) for y in flip_candidates(n, alpha)]
    base = statevec.uniform_state(n)
    total = 0.0
    for bits in range(1 << len(candidates)):
        unflipped = [c for i, c in enumerate(candidates) if (bits >> i) & 1]
        realization = NoiseRealization(n, alpha, unflipped)
        state = statevec.hadamard_all(noisy_oracle(base, realization))
        total += statevec.probability_of(state, alpha)
    return total / (1 << len(candidates))
