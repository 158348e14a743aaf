"""Hot numeric kernels, vectorised with numpy.

The walk, transform and flip kernels draw nothing: each maps its inputs to a
deterministic output, so seeded experiments reproduce bit for bit.  The
random streams come from here too: seed_children hands out child 0, 1, 2, ...
of a seed as numpy's spawned Generators, and _child_rows the first raw words
of many of those children at once, all computed from numpy's SeedSequence
and PCG64 as numpy computes them.

The letter walk steps a uint64 word (8 letters) at a time on blocks of at
least _WORD_WALK one-byte letters, and one letter at a time on the rest; the
per-letter walk also walks a (plays, letters) array of short plays' blocks,
one row per play.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

__all__ = [
    "BACKEND",
    "fwht_inplace",
    "fwht_entry_of_chunks",
    "fwht_entry_of_two_values",
    "parity_flip_inplace",
    "ring_walk_wins",
    "ring_walk_counts",
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


# Amplitudes per chunk of a transform entry, and ranks per slice of bv's rank map:
# a chunk of 2**16 float64 is 512 KiB, and its first two stages' values
# (256 + 128 KiB) are all the entry's scratch, at any size; bv builds its
# oracle's state one such chunk at a time
_CHUNK = 1 << 16


def fwht_entry_of_chunks(chunks, index):
    """Entry index of the unnormalised Walsh-Hadamard transform of amps, given in chunks.

    chunks yields amps' consecutive chunks in index order.  The result is
    fwht_inplace(amps)[index] bit for bit, with under 1 MiB of scratch when
    no chunk holds more than _CHUNK amplitudes.  The chunks are equal, a
    power of two in size, and read one at a time, so a caller may build each
    in one buffer it refills.  The stages run in the same order as the full
    transform's (h = 1, 2, 4, ...), and each keeps only the half on the path
    to index.  Stage s pairs neighbours of the kept values, which are the
    entries whose low s bits equal index's; it keeps a + b where bit s of
    index is 0 and a - b where it is 1, the same operation on the same
    float64 operands as the full transform.  The first log2(chunk size)
    stages never pair values of different chunks, so each chunk is halved to
    one value on its own, and the later stages run on those values: the same
    operands in the same order.
    """
    values = []
    for chunk in chunks:
        values.append(_halve(chunk, index))
    # every chunk has the last one's size
    return _halve(np.array(values), index >> (chunk.size.bit_length() - 1))


def _halve(values, index):
    """The entry's stages on values, a power-of-two count, down to the one entry."""
    while values.size > 1:
        pairs = values.reshape(-1, 2)
        combine = np.subtract if index & 1 else np.add
        values = combine(pairs[:, 0], pairs[:, 1])
        index >>= 1
    return values[0]


def fwht_entry_of_two_values(size, common, odd, position, index):
    """Transform entry index of size amps that hold common, but odd at position.

    Every stage of the entry's path keeps such an array: the pairs without
    the odd entry all give combine(common, common), and the pair holding it,
    now at position >> 1, gives combine(odd, common) or combine(common, odd)
    as position is even or odd.  These are the same additions and
    subtractions, in the same operand order, as fwht_entry_of_chunks', on
    Python floats, which round as float64 does: bit-identical in O(log2
    size) operations, and no array is built.  size is a power of two, at least 2.
    """
    while size > 1:
        combine = operator.sub if index & 1 else operator.add
        odd = combine(common, odd) if position & 1 else combine(odd, common)
        common = combine(common, common)
        position >>= 1
        index >>= 1
        size >>= 1
    return odd


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
    positions are computed in place (_ring_positions).
    """
    if increments.size == 0:
        return 0, start
    positions = _ring_positions(increments, modulus, start)
    return int(np.count_nonzero(positions < width)), int(positions[-1])


def ring_walk_counts(increments, modulus, start, counts):
    """Add the wheel walk's visits from position start to counts; return its end position.

    counts[r] grows by the steps at position r, so it must hold modulus
    int64 entries.  increments is as for ring_walk_wins, and not empty.
    """
    positions = _ring_positions(increments, modulus, start)
    counts += np.bincount(positions, minlength=modulus)
    return int(positions[-1])


def _ring_positions(increments, modulus, start):
    """The walk's positions mod modulus from start, computed in increments itself.

    start is folded into the first increment, and the reduction takes one
    scratch array.  The positions are never negative, so the floor division
    gives the values of % without its hardware divide.
    """
    increments[0] += start
    positions = np.cumsum(increments, out=increments)
    scratch = np.floor_divide(positions, modulus)
    scratch *= modulus
    positions -= scratch
    return positions


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
        return int(used), target, True
    z = level + int(moved)
    return size, z if z >= 0 else ~z, False


def _letter_walk(bits, level, target):
    """(letters up to the first hit, or 0; Z - level after the block), letter by letter.

    bits is one block, or a (plays, letters) array of blocks that each start
    at level: then both values are arrays, one entry per row.  A letter's
    step is 2*letter - 1 at an even Z and its negation at an odd one, so
    every other step of the kernel's own array is negated, with no parity
    table, and Z - level is one int32 cumsum along the row, within +-letters.
    """
    steps = bits.astype(np.int8)  # a copy, so bits is never written
    steps *= 2  # numpy's int8 <<= is several times slower
    steps -= 1
    odd = steps[..., ~level & 1 :: 2]  # the steps taken from an odd Z
    np.negative(odd, out=odd)
    walk = np.cumsum(steps, axis=-1, dtype=np.int32)  # Z - level
    if target < 0:
        return 0, walk[..., -1]
    hits = walk == target - level
    hits |= walk == ~target - level
    # argmax is a row's first hit, or 0 in a row without one
    return (hits.argmax(axis=-1) + 1) * hits.any(axis=-1), walk[..., -1]


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
# hashmix's constant moves by one multiply per call: after t calls from c it
# is c * mult**t, so the constants of a run of calls are known up front
_MIX_STEPS = tuple(pow(_MIX_MULT, t, 1 << 32) for t in range(5))
_OUT_CONSTS = tuple(_OUT_INIT * pow(_OUT_MULT, t, 1 << 32) & _MASK32 for t in range(9))

# Children hashed in one pass.  A pass of 256 takes about 65 us and holds
# about 70 kB of Python ints; a hashed child then costs about 2.5 us, against
# about 13 us for one numpy builds.
_CHILD_CHUNK = 256


def seed_children(seed):
    """Yield a Generator seated at child 0, 1, 2, ... of seed, in turn.

    Child i draws the stream of default_rng(SeedSequence(seed,
    spawn_key=(i,))), which is SeedSequence(seed).spawn(n)[i]'s, so a
    caller is done with child i before it asks for the next.  Numpy builds
    child 0 only, so a bad seed raises numpy's own error, and a sequence
    seed, which numpy takes, then raises TypeError, before child 0 is handed
    out.  Its Generator is re-seated at each later child, which is hashed
    from SeedSequence(seed)'s pool, itself hashed by numpy once, in passes
    of _CHILD_CHUNK children (_child_words); each hashed child then costs
    one PCG64 seeding in Python integers and numpy's state setter, a few us.
    Every child is below 2**32.  A caller that needs only each child's first
    raw words takes them from _child_rows instead, with no Generator
    re-seated.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    operator.index(seed)
    yield rng
    key = _seed_key(seed)
    bit_generator = rng.bit_generator
    # numpy's setter reads the values out, so one dict serves every child
    pcg64 = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg64, "has_uint32": 0, "uinteger": 0}
    for first in itertools.count(1, _CHILD_CHUNK):
        for w0, w1, w2, w3 in _child_words(key, first, _CHILD_CHUNK).tolist():
            # PCG64's seeding: state s from the first two words, stream q
            # from the last two, then from 0 one LCG step, s added, and one
            # more, with increment 2q + 1
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            pcg64["state"] = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
            pcg64["inc"] = inc
            bit_generator.state = state
            yield rng


def _seed_key(seed):
    """SeedSequence(seed)'s pool, then hashmix's and generate_state's next constants.

    A spawned SeedSequence pads the seed's words to the pool size and mixes
    the spawn word in last, so its pool before it is SeedSequence(seed)'s.
    By then hashmix has run 16 times, 4 to fill the pool and 12 to cross-mix
    it, plus 4 times per seed word past the fourth.  seed is a non-negative
    integer, which numpy splits into 32-bit words, at least one.  All three
    arrays are uint32; hashmix's 5 constants, one spawn word's, come twice,
    as two equal rows.  numpy reads seed first, so a bad seed raises numpy's
    own error, and a sequence seed, which numpy takes, then raises TypeError.
    """
    pool = np.random.SeedSequence(seed).pool
    words = max(1, -(-operator.index(seed).bit_length() // 32))
    calls = 16 + 4 * max(0, words - 4)
    hash_const = _MIX_INIT * pow(_MIX_MULT, calls, 1 << 32) & _MASK32
    mix = np.array(_MIX_STEPS * 2, np.uint32).reshape(2, 5) * hash_const
    return pool, mix, np.array(_OUT_CONSTS, np.uint32)


def _child_words(key, first, count):
    """The four uint64 seed words of children first, ..., first + count - 1 of a seed.

    key is the seed's, from _seed_key.  Row i is SeedSequence(seed,
    spawn_key=(first + i,)).generate_state(4, np.uint64): the child, one
    32-bit spawn word, is mixed into the pool as SeedSequence.mix_entropy
    does, and the pool is hashed out as generate_state does, all children at
    once in uint32 arrays, which wrap as the hash does.  Hashmix call d of
    the spawn word mixes into pool word d, and output word k is hashed from
    pool word k mod 4, so each child is one (2, 4) block throughout: its
    pool twice, then its 8 output words in order.  A child at 2**32 or above
    would take a second spawn word, and raises ValueError.
    """
    if first + count > 1 << 32:
        raise ValueError(f"children must be below 2**32, got up to {first + count - 1}")
    pool, mix, out = key
    value = np.arange(first, first + count, dtype=np.uint32)[:, None, None] ^ mix[:, :4]
    value *= mix[:, 1:]
    value ^= value >> 16
    value *= np.uint32(_MIX_R)
    mixer = np.subtract(pool * np.uint32(_MIX_L), value, out=value)
    mixer ^= mixer >> 16
    mixer ^= out[:8].reshape(2, 4)
    mixer *= out[1:].reshape(2, 4)
    mixer ^= mixer >> 16
    # uint64 word j is uint32 words 2j (low) and 2j + 1
    return mixer.astype("<u4", copy=False).reshape(count, 8).view("<u8")


def _row_key(seed, words):
    """_child_rows' key: the seed's (_seed_key) and PCG64's jump to draws 1..words.

    A child with seed words i1, i0, q1, q0 (i = i1:i0, q = q1:q0) seats
    PCG64 at s_0 = (inc + i) M + inc, inc = 2q + 1 and M = _PCG64_MULT, as
    seed_children does, and draw t reads s_t = A_t s_0 + C_t inc, A_t =
    M**t and C_t = 1 + M + ... + M**(t-1), all mod 2**128 (Brown 1994).  As
    A_t + C_t = C_(t+1), that is s_t = A i + 2 (A + C) q + A + C with A, C =
    A_(t+1), C_(t+1).  The jump is float64, jump[d, r, t-1] the 32-bit digit
    d of draw t's coefficient on the child's 16-bit limb r: A * 2**(16 b) or
    2 (A + C) * 2**(16 b) mod 2**128 for limb b of i or q, and A + C on
    row 16, a limb of 1.  About 40 us plus 2 us a word, built once a call.
    _seed_key checks seed, numpy's own check first.
    """
    coefficients, constants = bytearray(), bytearray()
    a, c = _PCG64_MULT, 1  # A_1, C_1
    for _ in range(words):
        a, c = a * _PCG64_MULT & _MASK128, c + a & _MASK128
        both = a + c & _MASK128
        coefficients += a.to_bytes(16, "little") + (2 * both & _MASK128).to_bytes(16, "little")
        constants += both.to_bytes(16, "little")
    limbs = np.frombuffer(coefficients, "<u2").reshape(words, 2, 8)
    # the coefficients times 2**(16 b), b = 0..7, as limbs shifted up by b
    shift = np.arange(8) - np.arange(8)[:, None]
    shifted = np.ascontiguousarray(limbs[:, :, shift.clip(0)] * (shift >= 0), "<u2")
    # a child's uint64 words come high first: i1 holds i's limbs 4..7
    on_limbs = shifted.view("<u4").reshape(words, 2, 2, 4, 4)[:, :, ::-1]
    jump = np.empty((4, 17, words))
    jump[:, :16] = on_limbs.reshape(words, 16, 4).transpose(2, 1, 0)
    jump[:, 16] = np.frombuffer(constants, "<u4").reshape(words, 4).T
    return _seed_key(seed), jump


def _child_rows(key, first, count):
    """The first raw words of children first, ..., first + count - 1 of a seed, one row each.

    key is _row_key(seed, words), and every child is below 2**32, as
    _child_words requires, or ValueError is raised.  Row i is
    default_rng(SeedSequence(seed, spawn_key=(first + i,))).bit_generator
    .random_raw(words) bit for bit, and no Generator is built.  The
    children's seed words (_child_words), as 16-bit limbs, times the jump
    give every state's four 32-bit digits in one float64 matmul per digit,
    exact because each entry is a sum of 17 products of non-negative
    integers below 2**48, so every partial sum, in any order, is below
    2**53.  The digits are carried into each state's words, hi and lo, and
    PCG64's output (XSL-RR, O'Neill 2014) rotates hi ^ lo right by hi >> 58.
    """
    seed_key, jump = key
    limbs = np.ones((count, 17))
    limbs[:, :16] = _child_words(seed_key, first, count).view("<u2")
    lo, mid, hi, top = (limbs @ jump).astype(np.uint64)
    # carried in place into each state's words: lo (digits 0 and 1) and hi
    mid += lo >> np.uint64(32)
    hi += mid >> np.uint64(32)
    hi += top << np.uint64(32)
    lo &= np.uint64(_MASK32)
    lo |= mid << np.uint64(32)
    turn = hi >> np.uint64(58)
    lo ^= hi
    rows = lo >> turn
    np.negative(turn, out=turn)
    turn &= np.uint64(63)
    lo <<= turn
    rows |= lo
    return rows
