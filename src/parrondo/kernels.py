"""Hot numeric kernels, vectorised with numpy.

Random draws happen outside the kernels: each one maps pre-drawn inputs to a
deterministic output, so seeded experiments reproduce bit for bit.
seed_children hands out the seeded streams those draws come from.

The letter walk steps a uint64 word (8 letters) at a time on blocks of at
least _WORD_WALK one-byte letters, and one letter at a time on the rest.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "BACKEND",
    "fwht_inplace",
    "fwht_entry",
    "parity_flip_inplace",
    "ring_walk_wins",
    "push_letters_until",
    "seed_children",
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


# On a 2-core Xeon the two letter walks cost the same at about 6,000 letters
# of grover's first blocks, about 99% of which hit.  Per-letter against word
# walk, per block: 24 vs 35 us at 2,400 letters (k = 12), 31 vs 37 us at
# 4,224 (k = 16), 33 vs 33 us at 6,560 (k = 20) and 70 vs 45 us at 2^14.
_WORD_WALK = 6144


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
    once per letter.  l first equals target where Z first meets one of its
    two barriers, target and ~target: a gambler's ruin (Feller vol. 1,
    XIV.3).  bits is read, never written.

    Two walks give the same answer.  A C-contiguous block of one-byte
    letters, at least _WORD_WALK (6,144) of them and a multiple of 8, takes
    the word walk: one popcount and one int32 cumsum entry per 8 letters, and
    letter-level work only next to a barrier.  Every other block takes the
    per-letter walk, one int32 cumsum entry per letter.
    """
    size = bits.size
    if size == 0:
        return 0, level, False
    if size >= _WORD_WALK and size % 8 == 0 and bits.itemsize == 1 and bits.flags.c_contiguous:
        used, moved = _word_walk(bits, level, target)
    else:
        used, moved = _letter_walk(bits, level, target)
    if used:
        return used, target, True
    z = level + moved
    return size, z if z >= 0 else ~z, False


def _letter_walk(bits, level, target):
    """(letters up to the first hit, or 0; Z - level after the block), letter by letter.

    A letter's step is 2*letter - 1 at an even Z and its negation at an odd
    one, so every other step of the kernel's own array is negated, with no
    parity table, and Z - level is one int32 cumsum, within +-bits.size.
    """
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
            return t + 1, 0
    return 0, int(walk[-1])


def _word_walk(bits, level, target):
    """(letters up to the first hit, or 0; Z - level after the block), word by word.

    Every word starts at an even letter index, so byte t of the XOR pattern
    is the parity of Z before letter t of every word, and the set bits of
    word ^ pattern are the up-steps.  One popcount per word gives its net
    move, 2*ups - 8, and one int32 cumsum over size/8 entries gives Z - level
    before each word.  A word moves Z by at most 8, so a word that starts
    more than 8 from both barriers cannot hit; the other words are walked
    letter by letter, in order, until the first hit.
    """
    words = bits.view("<u8") ^ np.uint64(0x0001000100010001 << 8 * (~level & 1))
    ups = np.empty(words.size + 1, dtype=np.uint8)
    ups[0] = 4  # no move before the first word
    np.bitwise_count(words, out=ups[1:])
    moves = ups.view(np.int8)
    moves *= 2
    moves -= 8
    starts = np.cumsum(moves, dtype=np.int32)  # Z - level before each word, then after all
    if target >= 0:
        up, down = target - level, ~target - level
        near = starts[:-1] >= up - 8
        near |= starts[:-1] <= down + 8
        near = np.flatnonzero(near)
        # 16 near words at a time: grover's blocks that hit walk about 9
        for first in range(0, near.size, 16):
            chunk = near[first : first + 16]
            zs, steps = starts[chunk].tolist(), words[chunk].tolist()
            for j, z, word in zip(chunk.tolist(), zs, steps):
                for t, step_up in enumerate(word.to_bytes(8, "little")):
                    z += 2 * step_up - 1
                    if z == up or z == down:
                        return 8 * j + t + 1, 0
    return 0, int(starts[-1])


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, in uint32 arithmetic) and
# PCG64's LCG multiplier; numpy's stream policy (NEP 19) keeps both fixed
_MASK32 = 0xFFFFFFFF
_MIX_INIT, _MIX_MULT = 0x43B0D7E5, 0x931E8875  # hashmix, as mixing entropy in
_OUT_INIT, _OUT_MULT = 0x8B51F9DD, 0x58F38DED  # the same, as generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def seed_children(seed):
    """Yield one Generator, seated in turn at child 0, 1, 2, ... of seed.

    Child i draws the stream of default_rng(SeedSequence(seed,
    spawn_key=(i,))), which is SeedSequence(seed).spawn(n)[i]'s.  The same
    Generator comes back each time, re-seated, so a caller is done with
    child i before it asks for the next.  Child 0 is built by numpy: a
    one-play caller pays what numpy's constructor costs, and a bad seed
    raises numpy's own error before any play.  Each later child is re-seated
    from SeedSequence(seed)'s pool, which numpy hashes once (_child_state).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    yield rng
    pool, hash_const = _seed_pool(seed)
    bit_generator = rng.bit_generator
    child = 1
    while True:
        bit_generator.state = _child_state(pool, hash_const, child)
        yield rng
        child += 1


def _seed_pool(seed):
    """SeedSequence(seed)'s pool as ints, and the hashmix constant after it.

    A spawned SeedSequence pads the seed's words to the pool size and mixes
    the spawn words in last, so its pool before them is SeedSequence(seed)'s.
    By then hashmix has run 16 times, 4 to fill the pool and 12 to cross-mix
    it, plus 4 times per seed word past the fourth.  seed is a non-negative
    integer, which numpy splits into 32-bit words, at least one.
    """
    words = max(1, -(-operator.index(seed).bit_length() // 32))
    pool = [int(word) for word in np.random.SeedSequence(seed).pool]
    calls = 16 + 4 * max(0, words - 4)
    return pool, _MIX_INIT * pow(_MIX_MULT, calls, 1 << 32) & _MASK32


def _child_state(pool, hash_const, child):
    """PCG64 state of child number child >= 0 of a seed, from the seed's pool.

    pool and hash_const are the seed's, from _seed_pool.  child's 32-bit
    words, low first, are mixed into the pool as SeedSequence.mix_entropy
    does; the pool is hashed out as generate_state(4, np.uint64) does; and
    PCG64 is seeded from the four words: state s from the first two, stream
    q from the last two, then from 0 one LCG step, s added, and one more,
    with increment 2q + 1.
    """
    mixer = list(pool)
    while True:
        word = child & _MASK32
        for dst in range(4):
            value = word ^ hash_const
            hash_const = hash_const * _MIX_MULT & _MASK32
            value = value * hash_const & _MASK32
            value ^= value >> 16
            mixed = (_MIX_L * mixer[dst] - _MIX_R * value) & _MASK32
            mixer[dst] = mixed ^ mixed >> 16
        child >>= 32
        if not child:
            break
    out = []
    hash_const = _OUT_INIT
    for k in range(8):
        value = mixer[k & 3] ^ hash_const
        hash_const = hash_const * _OUT_MULT & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    # uint64 word j is uint32 words 2j (low) and 2j + 1
    w0, w1, w2, w3 = (out[j] | out[j + 1] << 32 for j in range(0, 8, 2))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
