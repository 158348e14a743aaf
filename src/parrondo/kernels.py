"""Hot numeric kernels, vectorised with numpy.

Random draws happen outside the kernels: each one maps pre-drawn inputs to a
deterministic output, so seeded experiments reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "fwht_inplace",
    "fwht_entry",
    "parity_flip_inplace",
    "ring_walk_wins",
    "push_letters_until",
]

BACKEND = "numpy"


def fwht_inplace(amps):
    """Unnormalised in-place Walsh-Hadamard transform, vectorised butterflies.

    Each stage copies the top halves into one buffer allocated once; the
    difference is written straight into the bottom halves.  amps must be
    C-contiguous, so that its reshapes are views.
    """
    n = amps.size
    buffer = np.empty(n // 2, dtype=amps.dtype)
    h = 1
    while h < n:
        view = amps.reshape(-1, 2, h)
        top = buffer.reshape(-1, h)
        np.copyto(top, view[:, 0, :])
        view[:, 0, :] += view[:, 1, :]
        np.subtract(top, view[:, 1, :], out=view[:, 1, :])
        h *= 2


def fwht_entry(amps, index):
    """Entry index of the unnormalised Walsh-Hadamard transform of amps.

    Bit-identical to fwht_inplace(amps)[index]: the stages run in the same
    order (h = 1, 2, 4, ...), and each keeps only the half on the path to
    index.  Stage s pairs neighbours of the kept values, which are the
    entries whose low s bits equal index's; it keeps a + b where bit s of
    index is 0 and a - b where it is 1, the same operation on the same
    float64 operands as the full transform.  About 2 * amps.size element
    reads in all; amps is read, never written.
    """
    values = amps
    while values.size > 1:
        pairs = values.reshape(-1, 2)
        combine = np.subtract if index & 1 else np.add
        values = combine(pairs[:, 0], pairs[:, 1])
        index >>= 1
    return values[0]


def parity_flip_inplace(amps, mask):
    """Negate amplitudes at indices with odd popcount(index & mask).

    The sign is the product of one flip per set bit b of mask, taken over the
    indices with bit b set: the odd rows of amps viewed as (-1, 2, 2**b).
    No index array is built.  amps must be C-contiguous and mask below
    amps.size.
    """
    for b in range(int(mask).bit_length()):
        if (mask >> b) & 1:
            rows = amps.reshape(-1, 2, 1 << b)[:, 1, :]
            np.negative(rows, out=rows)


def ring_walk_wins(increments, modulus, width, start):
    """Winning steps of the wheel walk from position start, and its end position.

    A step wins when its position mod modulus is below width: no table is read.
    increments must be non-negative int64, and it is overwritten: the walk's
    positions are computed in place.  They are never negative, so the floor
    division gives the values of % without its hardware divide.
    """
    if increments.size == 0:
        return 0, start
    positions = np.cumsum(increments, out=increments)
    positions += start
    positions -= positions // modulus * modulus
    return int(np.count_nonzero(positions < width)), int(positions[-1])


def push_letters_until(bits, level, target):
    """Feed letters into the reduced length until it first equals target.

    bits holds fewer than 2**31 letters, 0 or 1 (1 = A, 0 = B); level is the
    reduced length before the first letter.  Returns (letters consumed,
    reduced length after them, whether target was hit).  The start level
    never counts as a hit, and a negative target is never reached.

    The reduced length l is the fold of a walk Z on the integers: l = Z for
    Z >= 0 and l = ~Z = -Z-1 below.  In Z every letter is a +-1 step, the lazy
    reflection at l = 0 included (the step between Z = 0 and Z = -1).  Z
    steps up exactly when the letter differs from Z's parity, which flips
    once per letter: the step is 2*letter - 1 at an even Z and its negation
    at an odd one.  So every other step of the kernel's own array is negated,
    with no parity table, and Z - level is one int32 cumsum, within
    +-bits.size.  bits is read, never written.  l first equals target where
    Z first meets one of its two barriers, target and ~target: a gambler's
    ruin (Feller vol. 1, XIV.3).
    """
    size = bits.size
    if size == 0:
        return 0, level, False
    steps = bits.astype(np.int8)  # a copy, so bits is never written
    steps *= 2  # numpy's int8 <<= is several times slower
    steps -= 1
    odd = steps[~level & 1 :: 2]  # the steps taken from an odd Z
    np.negative(odd, out=odd)
    walk = np.cumsum(steps, dtype=np.int32)  # Z - level
    if target >= 0:
        hits = walk == target - level
        hits |= walk == ~target - level
        t = int(hits.argmax())
        if hits[t]:
            return t + 1, target, True
    z = level + int(walk[-1])
    return size, z if z >= 0 else ~z, False
