"""Hot numeric kernels, vectorised with numpy.

Random draws happen outside the kernels: each one maps pre-drawn inputs to a
deterministic output, so seeded experiments reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "fwht_inplace",
    "parity_flip_inplace",
    "ring_walk_wins",
    "push_letters_until",
]

BACKEND = "numpy"


def fwht_inplace(amps):
    """Unnormalised in-place Walsh-Hadamard transform, vectorised butterflies.

    Each stage copies only the top halves; the difference is written straight
    into the bottom halves.
    """
    n = amps.size
    h = 1
    while h < n:
        view = amps.reshape(-1, 2, h)
        top = view[:, 0, :].copy()
        view[:, 0, :] += view[:, 1, :]
        np.subtract(top, view[:, 1, :], out=view[:, 1, :])
        h *= 2


def parity_flip_inplace(amps, mask):
    """Negate amplitudes at indices with odd popcount(index & mask)."""
    idx = np.arange(amps.size, dtype=np.uint64)
    odd = (np.bitwise_count(idx & np.uint64(mask)) & 1).astype(bool)
    amps[odd] *= -1.0


def ring_walk_wins(increments, modulus, win_table):
    """Winning-round count of the wheel walk started at position 0."""
    positions = np.cumsum(increments) % modulus
    return int(win_table[positions].sum())


def push_letters_until(bits, level, target):
    """Feed letters into the reduced length until it first equals target.

    bits holds 0/1 letters (1 = A, 0 = B); level is the reduced length before
    the first letter.  Returns (letters consumed, reduced length after them,
    whether target was hit).  The start level itself never counts as a hit.

    The reduced length l is the fold of a walk Z on the integers: l = Z for
    Z >= 0 and l = -Z-1 below.  In Z every letter is a +-1 step, the lazy
    reflection at l = 0 included (it is the step between Z = 0 and Z = -1).
    Z steps up exactly when the letter differs from Z's parity, and that
    parity is the start parity flipped once per letter, so the whole walk is
    one cumsum.  Feller vol. 1, XIV.3 treats this walk as a gambler's ruin.
    """
    size = bits.size
    if size == 0:
        return 0, level, False
    up = bits ^ (np.arange(level, level + size, dtype=np.int64) & 1)
    z = level + np.cumsum(2 * up - 1)
    reduced = z ^ (z >> 63)  # l = Z for Z >= 0, -Z-1 (= ~Z) below
    hits = reduced == target
    t = int(hits.argmax())
    if hits[t]:
        return t + 1, int(reduced[t]), True
    return size, int(reduced[-1]), False
