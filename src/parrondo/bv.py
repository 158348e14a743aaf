"""The unreliable-oracle guessing game on n qubits.

The player tries to land on a hidden nonzero string alpha by running the
three-step sequence H..O..H from |0...0>.  The catch: the phase oracle O only
fires on a random half of the eligible basis states (those y with
y . alpha = 1), so each play happens against a concrete noise realization.
Success probabilities are computed from amplitudes, never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, statevec

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


def _check_alpha(n: int, alpha: int) -> None:
    statevec._check_qubit_count(n)
    if not (0 <= alpha < (1 << n)):
        raise ValueError(f"alpha {alpha} out of range for {n} qubits")
    if alpha == 0:
        raise ValueError("the hidden string alpha must be nonzero")


def _eligible(alpha: int, ranks: np.ndarray) -> np.ndarray:
    """Map ranks z in [0, 2**(n-1)) in place to the z-th y with y . alpha = 1.

    With b the lowest set bit of alpha, y is z with a bit inserted at b (the
    bits from b up move one place), set so that y . alpha = 1.  The map is
    increasing, so sorted ranks give sorted indices.  It runs on slices of
    kernels._CHUNK ranks, so its temporaries stay under 1 MiB: full-size
    ones would outlive the call in the heap, under the state built next.
    """
    low = alpha & -alpha
    for start in range(0, ranks.size, kernels._CHUNK):
        part = ranks[start : start + kernels._CHUNK]
        part += part & -low
        even = (np.bitwise_count(part & alpha) & 1) == 0
        np.bitwise_or(part, low, out=part, where=even)
    return ranks


def flip_candidates(n: int, alpha: int) -> np.ndarray:
    """All basis indices y with y . alpha = 1, ascending; 2**(n-1) of them.

    _eligible over every rank, on int32 (indices stay below 2**MAX_QUBITS).
    """
    _check_alpha(n, alpha)
    return _eligible(alpha, np.arange(1 << (n - 1), dtype=np.int32)).astype(np.int64)


def first_candidate(n: int, alpha: int) -> int:
    """The smallest y with y . alpha = 1: the lowest set bit of alpha.

    It is rank 0 of _eligible's map: flip_candidates(n, alpha)[0], read off
    alpha without building the array.
    """
    _check_alpha(n, alpha)
    return alpha & -alpha


@dataclass(frozen=True, eq=False)
class NoiseRealization:
    """One concrete noise draw, as draw_realization builds it.

    unflipped holds the eligible indices (y . alpha = 1) the oracle left
    unflipped: a strictly increasing, read-only int64 array, so by
    construction in range and free of repeats; nothing re-checks it.
    Compare two realizations through it with np.array_equal.
    """

    qubits: int
    alpha: int
    unflipped: np.ndarray


@dataclass(frozen=True)
class BvResult:
    success_probability: float
    realization: NoiseRealization


def draw_realization(
    n: int, alpha: int, mode: str, rng: np.random.Generator
) -> NoiseRealization:
    """Sample the unflipped subset for one play; the one check of its inputs.

    fixed-half leaves exactly 2**(n-2) of the 2**(n-1) eligible indices
    unflipped; independent tosses a fair coin per eligible index; noiseless
    flips them all.  Ranks are drawn and mapped by _eligible, which builds no
    2**n array and, as rng.choice(a) is a[rng.choice(len(a))], draws the same.
    The ranks come out sorted (fixed-half sorts its own in place) and the map
    is increasing, so the indices are sorted, distinct and eligible as built.
    """
    _check_alpha(n, alpha)
    half = 1 << (n - 1)
    if mode == NOISELESS:
        unflipped = np.empty(0, np.int64)
    elif mode == FIXED_HALF:
        if n < 2:
            raise ValueError("fixed-half noise needs n >= 2")
        ranks = rng.choice(half, size=half // 2, replace=False)
        ranks.sort()
        unflipped = _eligible(alpha, ranks)
    elif mode == INDEPENDENT:
        ranks = np.flatnonzero(rng.integers(0, 2, size=half).astype(bool))
        unflipped = _eligible(alpha, ranks)
    else:
        raise ValueError(f"unknown noise mode {mode!r}; expected one of {NOISE_MODES}")
    unflipped.flags.writeable = False
    return NoiseRealization(qubits=n, alpha=alpha, unflipped=unflipped)


def noisy_oracle(realization: NoiseRealization) -> np.ndarray:
    """The unreliable phase oracle applied to the uniform state H|0...0>.

    The whole 2**n state, as _oracle_amplitudes builds it: every eligible
    amplitude is the negated uniform one, except the unflipped ones, and
    the rest keep the uniform amplitude; the norm is preserved exactly
    (every factor is +-1).  Plays never build it: run_game scores the same
    amplitudes one chunk at a time.
    """
    statevec._check_qubit_count(realization.qubits)
    return _oracle_amplitudes(realization, 0, np.empty(1 << realization.qubits))


def _oracle_amplitudes(realization: NoiseRealization, first: int, out: np.ndarray) -> np.ndarray:
    """Write amplitudes first .. first + out.size - 1 of noisy_oracle's state into out.

    out's size is a power of two and first a multiple of it.  out is filled
    with the uniform amplitude, then negated where popcount(x & alpha) is
    odd: over out's own index bits by kernels.parity_flip_inplace, and as a
    whole when first's bits, disjoint from those, meet alpha an odd number
    of times.  The unflipped indices in range, found by bisection, get the
    uniform amplitude back by one scalar scatter.  The scatter trusts them
    to be eligible, as the realization's builders make them.
    """
    amplitude = 2.0 ** (-realization.qubits / 2.0)  # uniform_state's value
    out.fill(amplitude)
    kernels.parity_flip_inplace(out, realization.alpha & (out.size - 1))
    if (first & realization.alpha).bit_count() & 1:
        np.negative(out, out=out)
    unflipped = realization.unflipped
    lo, hi = np.searchsorted(unflipped, (first, first + out.size))
    out[unflipped[lo:hi] - first] = amplitude
    return out


def _success(realization: NoiseRealization) -> float:
    """|<alpha| H noisy_oracle(realization)|**2, bit for bit as the full transform gives it.

    The state is built and halved one kernels._CHUNK-amplitude chunk at a
    time in one buffer (kernels.fwht_entry_of_chunks), so no 2**n array is
    held; the entry is then scaled by 2**(-n/2) and squared.
    """
    n = realization.qubits
    buffer = np.empty(min(1 << n, kernels._CHUNK))
    chunks = (
        _oracle_amplitudes(realization, first, buffer)
        for first in range(0, 1 << n, buffer.size)
    )
    amplitude = kernels.fwht_entry_of_chunks(chunks, realization.alpha) * 2.0 ** (-n / 2.0)
    return float(amplitude**2)


def run_game(n: int, alpha: int, mode: str, seed: int | np.random.Generator) -> BvResult:
    """One seeded play of H..O..H from |0...0>, success read off the amplitudes.

    seed is whatever np.random.default_rng takes: a seed, or a Generator,
    which the play draws from and advances.

    The first Hadamard layer maps |0...0> to the uniform state, which is
    built directly; of the last layer only the amplitude on alpha is read,
    and the oracle's state is built one chunk at a time as that entry halves
    it (_success), so a play costs O(2**n) time, not a full O(n 2**n)
    transform, and holds no 2**n array.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    realization = draw_realization(n, alpha, mode, rng)
    return BvResult(_success(realization), realization)


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

    Evaluates |<alpha| H (flip y) H |0...0>|**2 as the state-vector pipeline
    would, bit for bit: the uniform state H|0...0> with entry y negated, then
    its one transform entry on alpha (kernels.fwht_entry_of_chunks), scaled
    and squared as _success does.  That state holds two values, so the
    entry is kernels.fwht_entry_of_two_values, O(n) and without the state;
    the value is 4/4**n for every eligible y.
    """
    _check_alpha(n, alpha)
    if not (0 <= y < 1 << n) or (y & alpha).bit_count() % 2 == 0:
        raise ValueError(f"reflection index y={y} must be a basis index, y . alpha = 1")
    scale = 2.0 ** (-n / 2.0)
    entry = kernels.fwht_entry_of_two_values(1 << n, scale, -scale, y, alpha)
    return float((entry * scale) ** 2)


def independent_exhaustive_mean(n: int, alpha: int) -> float:
    """Mean success over all 2**(2**(n-1)) equally likely independent draws.

    Exhaustive enumeration, each draw scored by the one transform entry on
    alpha; limited to n <= 4 where the subset count stays at or below 256.
    """
    if n < 2 or n > 4:
        raise ValueError("exhaustive enumeration supports 2 <= n <= 4")
    candidates = flip_candidates(n, alpha)
    weights = 1 << np.arange(candidates.size)
    total = 0.0
    for bits in range(1 << candidates.size):
        total += _success(NoiseRealization(n, alpha, candidates[(bits & weights) != 0]))
    return total / (1 << candidates.size)
