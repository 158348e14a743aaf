"""Numeric kernels against hand values and their loop references."""

import importlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrondo import grover, kernels

import oracles


def test_backend_is_declared():
    assert kernels.BACKEND == "numpy"


@pytest.mark.parametrize(
    "name", ["cli", "kernels", "ring", "grover", "bv", "statevec", "reproduce"]
)
def test_no_module_holds_an_array(name):
    # module-level arrays are state shared by every call; the kernels build
    # what they need per call
    module = importlib.import_module(f"parrondo.{name}")
    arrays = [key for key, value in vars(module).items() if isinstance(value, np.ndarray)]
    assert arrays == []


def test_fwht_matches_hand_sums():
    amps = np.array([1.0, 2.0, 3.0, 4.0])
    kernels.fwht_inplace(amps)
    assert np.array_equal(amps, np.array([10.0, -2.0, -4.0, 0.0]))


@settings(deadline=None, max_examples=60)
@example(n=0, seed=0)
@example(n=12, seed=1)
@given(n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_fwht_is_bit_identical_to_butterfly_loop(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-3, 4, size=1 << n)
    want = oracles.fwht_butterfly_loop(amps)
    kernels.fwht_inplace(amps)
    assert np.array_equal(amps, want)
    assert np.array_equal(np.signbit(amps), np.signbit(want))


@settings(deadline=None, max_examples=60)
@example(n=0, seed=0)
@example(n=10, seed=1)
@given(n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_fwht_entry_is_bit_identical_to_butterfly_loop(n, seed):
    # magnitudes from 1e-300 to 1e300, so sums round, cancel and absorb
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-300, 301, size=1 << n)
    keep = amps.copy()
    want = oracles.fwht_butterfly_loop(amps)
    got = np.array([kernels.fwht_entry(amps, x) for x in range(1 << n)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # with 8-amplitude chunks, every n >= 4 halves chunks, then their values;
    # 128 chunks a call at n = 10, so 64 entries at most, drawn from the seed
    xs = rng.permutation(1 << n)[:64]
    with mock.patch.object(kernels, "_CHUNK", 8):
        got = np.array([kernels.fwht_entry(amps, x) for x in xs.tolist()])
    assert np.array_equal(got.view(np.uint64), want[xs].view(np.uint64))
    assert np.array_equal(amps.view(np.uint64), keep.view(np.uint64))


@pytest.mark.parametrize("n", [17, 18])
def test_fwht_entry_above_the_chunk_is_bit_identical_to_butterfly_loop(n):
    # 2 and 4 chunks of 2**16 amplitudes, halved apart and then together
    assert kernels._CHUNK == 1 << 16
    rng = np.random.default_rng(n)
    amps = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-300, 301, size=1 << n)
    want = oracles.fwht_butterfly_loop(amps)
    for x in (0, 1, (1 << n) - 1, int(rng.integers(1 << n))):
        assert kernels.fwht_entry(amps, x).view(np.uint64) == want[x].view(np.uint64)


@settings(deadline=None, max_examples=60)
@example(n=0, seed=0)
@example(n=10, seed=1)
@given(n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_fwht_entry_of_chunks_is_bit_identical_to_butterfly_loop(n, seed):
    # every chunk size from 1 to 2**n, each chunk copied into one buffer
    # that is refilled for the next, as a bv play builds its chunks
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-300, 301, size=1 << n)
    want = oracles.fwht_butterfly_loop(amps)

    def refilled(size):
        buffer = np.empty(size)
        for first in range(0, amps.size, size):
            buffer[:] = amps[first : first + size]
            yield buffer

    for x in rng.permutation(1 << n)[:4].tolist():
        for bits in range(n + 1):
            got = kernels.fwht_entry_of_chunks(refilled(1 << bits), x)
            assert got.view(np.uint64) == want[x].view(np.uint64)


@settings(deadline=None, max_examples=200)
@example(n=1, seed=0)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_fwht_entry_of_two_values_is_fwht_entry(n, seed):
    # every entry of an array holding common everywhere but at one position,
    # for common and odd of any sign and magnitude, signed zeros included
    rng = np.random.default_rng(seed)
    common, odd = (
        rng.choice([0.0, -0.0, rng.standard_normal() * 10.0 ** rng.integers(-300, 301)])
        for _ in range(2)
    )
    position = int(rng.integers(0, 1 << n))
    amps = np.full(1 << n, common)
    amps[position] = odd
    for index in range(1 << n):
        got = kernels.fwht_entry_of_two_values(1 << n, float(common), float(odd), position, index)
        want = kernels.fwht_entry(amps, index)
        assert type(got) is float
        assert np.float64(got).view(np.uint64) == want.view(np.uint64)


@settings(deadline=None, max_examples=300)
@example(n=1, mask=0, seed=0)
@example(n=12, mask=(1 << 12) - 1, seed=1)
@given(
    n=st.integers(1, 12),
    mask=st.integers(0, (1 << 12) - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_parity_flip_is_bit_identical_to_popcount_reference(n, mask, seed):
    mask &= (1 << n) - 1
    amps = np.random.default_rng(seed).standard_normal(1 << n)
    amps[::7] = 0.0  # signed zeros must flip too
    want = amps.copy()
    oracles.parity_flip_popcount(want, mask)
    kernels.parity_flip_inplace(amps, mask)
    assert np.array_equal(amps, want)
    assert np.array_equal(np.signbit(amps), np.signbit(want))


def test_parity_flip_matches_popcount_reference_for_every_small_mask():
    amps = np.arange(1.0, (1 << 8) + 1)
    for mask in range(1 << 8):
        got, want = amps.copy(), amps.copy()
        kernels.parity_flip_inplace(got, mask)
        oracles.parity_flip_popcount(want, mask)
        assert np.array_equal(got, want), mask


@settings(deadline=None, max_examples=200)
@example(increments=[], modulus=21, start=5)  # empty input keeps the start
@example(increments=[0, 7, 7], modulus=21, start=0)  # 0 -> 7 -> 14 -> 0 wraps past M-1
@example(increments=[3, 14, 20], modulus=21, start=19)  # nonzero start, wrap at once
@given(
    increments=st.lists(st.integers(0, 100), max_size=300),
    modulus=st.integers(1, 50).map(lambda v: 2 * v + 1),
    start=st.integers(0, 100),
)
def test_ring_walk_matches_loop_reference(increments, modulus, start):
    # the kernel walks in coordinates rotated by q, where the winning arc
    # [-q, q] is [0, 2q]; the oracle tests the cosine arc itself
    start %= modulus
    q = modulus // 4
    increments = np.array(increments, dtype=np.int64) % modulus
    wins, end = oracles.ring_walk_wins_loop(increments, modulus, start)
    assert kernels.ring_walk_wins(increments, modulus, 2 * q + 1, (start + q) % modulus) == (
        wins,
        (end + q) % modulus,
    )


def test_ring_walk_hand_values():
    empty = np.zeros(0, dtype=np.int64)
    assert kernels.ring_walk_wins(empty, 3, 1, 2) == (0, 2)
    # M = 3 and width 1, so only 0 wins: 1 -> 2 -> 0 -> 0 -> 1 lands on it twice
    assert kernels.ring_walk_wins(np.array([1, 1, 0, 1]), 3, 1, 1) == (2, 1)
    # width 2 also counts the last step, at 1
    assert kernels.ring_walk_wins(np.array([1, 1, 0, 1]), 3, 2, 1) == (3, 1)


# levels from 2**31 on lie beyond int32; the examples marked int64 hit or pass
# them, and push_letters_until meets them as barrier values, never stored in
# its int32 walk
_WIDE = 2**31


@settings(deadline=None, max_examples=300)
@example(bits=[], level=3, target=4)  # size 0
@example(bits=[1, 0], level=5, target=3)  # target below the start level
@example(bits=[0, 0], level=2, target=2)  # target at the start level
@example(bits=[1, 0, 1, 0], level=0, target=4)  # hit on the last letter
@example(bits=[0, 0, 0, 1, 1, 0], level=0, target=2)  # reflection at level 0
@example(bits=[1, 0, 1], level=_WIDE - 4, target=_WIDE - 2)  # int32, hit at 2**31 - 2
@example(bits=[1, 0, 1], level=_WIDE - 4, target=_WIDE - 1)  # int32, hit at its maximum
@example(bits=[1, 0, 1, 0], level=_WIDE - 4, target=_WIDE)  # int64, hit at 2**31
@example(bits=[0, 1, 0, 1, 0], level=_WIDE - 5, target=_WIDE + 1)  # int64, ends at 2**31
@example(bits=[1] * 8, level=_WIDE + 5, target=_WIDE + 3)  # int64 throughout
@given(
    bits=st.lists(st.integers(0, 1), max_size=400),
    level=st.integers(0, 30),
    target=st.integers(-3, 30),
)
def test_push_letters_matches_loop_reference(bits, level, target):
    want = oracles.push_letters_loops(np.array(bits, dtype=np.uint8), level, target)
    # uint8 as grover draws them, int64 as reproduce passes them, int8 and bool
    for dtype in (np.uint8, np.int64, np.int8, np.bool_):
        letters = np.array(bits, dtype=dtype)
        assert kernels.push_letters_until(letters, level, target) == want, dtype
        assert np.array_equal(letters, np.array(bits, dtype=dtype)), dtype


@settings(deadline=None, max_examples=100)
@given(
    bits=st.lists(st.integers(0, 1), max_size=400),
    level=st.integers(_WIDE - 420, _WIDE + 20),
    offset=st.integers(-20, 20),
)
def test_push_letters_matches_loop_reference_near_the_int64_switch(bits, level, offset):
    bits = np.array(bits, dtype=np.uint8)
    target = level + offset
    assert kernels.push_letters_until(bits, level, target) == oracles.push_letters_loops(
        bits, level, target
    )


@settings(deadline=None, max_examples=200)
@given(
    rows=st.integers(1, 6),
    letters=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    level=st.integers(0, 12),
    target=st.integers(-1, 14),
)
def test_letter_walk_of_rows_is_each_rows_walk(rows, letters, seed, level, target):
    # a (plays, letters) array walks each row from level, as one block would
    bits = np.random.default_rng(seed).integers(0, 2, size=(rows, letters), dtype=np.uint8)
    used, moved = kernels._letter_walk(bits, level, target)
    for row, row_used, row_moved in zip(bits, np.broadcast_to(used, rows), moved):
        want_used, want_level, hit = oracles.push_letters_loops(row, level, target)
        assert row_used == (want_used if hit else 0)
        if not hit:
            z = level + int(row_moved)
            assert (z if z >= 0 else ~z) == want_level


def test_push_letters_edge_cases():
    empty = np.zeros(0, dtype=np.uint8)
    assert kernels.push_letters_until(empty, 3, 4) == (0, 3, False)
    # reflection at level 0: B is absorbed, so the walk waits there
    assert kernels.push_letters_until(np.array([0, 0, 1], np.uint8), 0, 1) == (3, 1, True)
    assert kernels.push_letters_until(np.array([1, 1, 0, 0], np.uint8), 0, 2) == (4, 0, False)
    # target below the start level, and the start level itself is no hit
    assert kernels.push_letters_until(np.array([1, 0], np.uint8), 5, 3) == (2, 3, True)
    assert kernels.push_letters_until(np.array([0, 0], np.uint8), 2, 2) == (2, 2, True)
    # a hit on the last letter
    bits = np.array([1, 0, 1, 0], np.uint8)
    assert kernels.push_letters_until(bits, 0, 4) == (4, 4, True)


def test_push_letters_long_block_matches_loop_reference():
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, size=50_000, dtype=np.uint8)
    for level, target in [(0, 2), (0, 8), (3, 4), (5, 2), (0, 120), (0, 10_000)]:
        assert kernels.push_letters_until(bits, level, target) == oracles.push_letters_loops(
            bits, level, target
        )


_WORD = kernels._WORD_WALK


@settings(deadline=None, max_examples=120)
# a straight run from a word start 8 letters from the target: only a window
# of 8 sees the hit in that word.  The sink of 16 letters takes Z to -16, 8
# above the lower barrier ~23.
@example(size=_WORD, level=0, sink=0, word=0, run=8, offset=8, seed=0, dtype=np.uint8)
@example(size=_WORD, level=1, sink=0, word=0, run=8, offset=8, seed=1, dtype=np.int8)
@example(size=1 << 14, level=5, sink=0, word=300, run=8, offset=8, seed=2, dtype=np.bool_)
@example(size=_WORD + 8, level=20, sink=0, word=0, run=8, offset=-8, seed=3, dtype=np.uint8)
@example(size=_WORD, level=0, sink=16, word=2, run=8, offset=8, seed=4, dtype=np.uint8)
@example(size=_WORD, level=_WIDE - 3, sink=0, word=0, run=9, offset=8, seed=5, dtype=np.uint8)
@example(size=_WORD + 3, level=0, sink=0, word=0, run=8, offset=8, seed=6, dtype=np.uint8)
@given(
    size=st.sampled_from([_WORD, _WORD + 8, 1 << 14, _WORD + 3]),
    level=st.one_of(st.integers(0, 40), st.integers(_WIDE - 40, _WIDE + 40)),
    sink=st.integers(0, 40),
    word=st.one_of(st.just(0), st.integers(0, (1 << 11) - 1)),
    run=st.integers(0, 12),
    offset=st.integers(-9, 9),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.uint8, np.int8, np.bool_]),
)
def test_word_walk_matches_loop_reference(size, level, sink, word, run, offset, seed, dtype):
    # sink letters that step Z straight down, random letters, then a straight
    # run of the reduced length from a word start toward a target offset
    # letters away; _WORD + 3 takes the letter walk
    bits = np.random.default_rng(seed).integers(0, 2, size, dtype=np.uint8)
    bits[:sink] = (level + np.arange(sink)) & 1  # the letter equal to Z's parity
    start = min(8 * word, size - run)
    _, at, _ = oracles.push_letters_loops(bits[:start], level, -1)
    for t in range(run):
        # A (1) raises an even length and B (0) an odd one; the other letter lowers it
        bits[start + t] = (at + t + (offset >= 0)) & 1
    target = at + offset
    want = oracles.push_letters_loops(bits, level, target)
    letters = bits.astype(dtype)
    assert kernels.push_letters_until(letters, level, target) == want
    assert np.array_equal(letters, bits.astype(dtype))


# (level, target): a grover play, then barriers out of the block's reach,
# beyond int32 and from a level at or above the target
_FULL_BLOCK_WALKS = [(0, 144), (0, 2**40), (2**40 + 5, 3), (_WIDE - 4, _WIDE + 20_000), (50, 3)]


def test_grover_blocks_take_the_word_walk_and_first_blocks_do_not(monkeypatch):
    # grover's full blocks are the ones worth the word walk; a k = 4 play's
    # first block (288 letters) stays letter by letter
    def refuse(*args):
        raise AssertionError("the other walk ran")

    raw = np.random.default_rng(5).bit_generator.random_raw
    block = grover._letters(raw(grover._STREAM_BLOCK // 8), grover._STREAM_BLOCK)
    first = grover._letters(raw(288 // 8), 288)
    assert block.flags.c_contiguous and block.dtype == np.uint8
    for level, target in _FULL_BLOCK_WALKS:
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_letter_walk", refuse)
            got = kernels.push_letters_until(block, level, target)
        assert got == oracles.push_letters_loops(block, level, target), (level, target)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_word_walk", refuse)
        got = kernels.push_letters_until(first, 0, 8)
    assert got == oracles.push_letters_loops(first, 0, 8)


def _numpy_child(seed, child):
    return np.random.SeedSequence(seed, spawn_key=(child,))


def _numpy_words(seed, child):
    return _numpy_child(seed, child).generate_state(4, np.uint64).tolist()


@settings(deadline=None, max_examples=300)
@example(seed=0, child=0)
@example(seed=2**32 - 1, child=1)  # one seed word
@example(seed=2**128 - 1, child=1)  # four seed words: the pool's size
@example(seed=2**128, child=1)  # five: one hashed in after the cross-mix
@example(seed=2**200, child=2**32 - 1)
@example(seed=2**256, child=2**32 - 1)  # nine seed words; the last child
@given(seed=st.integers(0, 2**300), child=st.integers(0, 2**32 - 1))
def test_child_words_are_numpys_spawned_seed_words(seed, child):
    got = kernels._child_words(kernels._seed_key(seed), child, 1)
    assert got.tolist() == [_numpy_words(seed, child)]


@pytest.mark.parametrize("first", [0, 2**32 - 5])
def test_one_pass_hashes_each_child_as_numpy_does(first):
    # a pass from child 0, and a pass ending at 2**32 - 1, the last child
    count = min(10, 2**32 - first)
    key = kernels._seed_key(2**128)
    got = kernels._child_words(key, first, count)
    assert got.tolist() == [_numpy_words(2**128, first + i) for i in range(count)]


@pytest.mark.parametrize(
    "draw",
    [
        lambda key, rows: kernels._child_words(key, 2**32, 1),
        lambda key, rows: kernels._child_words(key, 2**32 - 9, 10),
        lambda key, rows: kernels._child_rows(rows, 2**32 - 1, 2),
    ],
    ids=["words of child 2**32", "words of a pass across it", "rows of a pass across it"],
)
def test_children_stop_below_2_to_the_32(draw):
    # child 2**32 would take a second spawn word, which no caller reaches
    with pytest.raises(ValueError, match=r"^children must be below 2\*\*32, got up to 4294967296$"):
        draw(kernels._seed_key(5), kernels._row_key(5, 1))


# first-block rows walked letter by letter hold fewer than _WORD_WALK letters
_LONGEST_ROW = kernels._WORD_WALK // 8


@settings(deadline=None, max_examples=200)
@example(seed=0, first=0, count=4, words=1)  # children 0-3
@example(seed=2**32 - 1, first=2**32 - 2, count=3, words=8)  # cut to the last two children
@example(seed=2**32 + 1, first=5, count=2, words=_LONGEST_ROW)
@example(seed=2**300, first=2**32 - 3, count=3, words=_LONGEST_ROW)  # the last child
@given(
    seed=st.integers(0, 2**300),
    first=st.integers(0, 2**32 - 1),
    count=st.integers(1, 5),
    words=st.integers(1, _LONGEST_ROW),
)
def test_child_rows_are_numpys_spawned_raw_draws(seed, first, count, words):
    count = min(count, 2**32 - first)
    got = kernels._child_rows(kernels._row_key(seed, words), first, count)
    want = [
        np.random.default_rng(_numpy_child(seed, first + i)).bit_generator.random_raw(words)
        for i in range(count)
    ]
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    assert got.tolist() == [row.tolist() for row in want]


def _hash_passes(monkeypatch, seed, children):
    passes = []
    child_words = kernels._child_words

    def recorded(key, first, count):
        passes.append((first, count))
        return child_words(key, first, count)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_child_words", recorded)
        for _ in zip(range(children), kernels.seed_children(seed)):
            pass
    return passes


# seeds of 1, 1, 1, 2, 2, 4, 5, 7 and 9 uint32 words: each word past the
# fourth runs hashmix 4 more times before the spawn key
@pytest.mark.parametrize(
    "seed",
    [
        0,
        1,
        424242,
        np.int64(2**62 + 9),
        np.uint64(2**64 - 1),
        2**128 - 1,
        2**128,
        2**200 + 1,
        2**256 + 3,
    ],
)
def test_seed_children_draw_numpys_child_streams(monkeypatch, seed):
    # the children checked are 0, built by numpy, 1 and 2, hashed, and the
    # two on each side of every hash pass of _CHILD_CHUNK children; each is
    # checked by its draws, a half-used uint32 word left behind each time,
    # so nothing of one child's state leaks into the next
    chunk = kernels._CHILD_CHUNK
    passes = _hash_passes(monkeypatch, seed, 4 * chunk)
    assert passes == [(1 + i * chunk, chunk) for i in range(4)]
    checked = {0, 1, 2}
    checked.update(first + side for first, _ in passes for side in (-1, 0))
    for child, rng in zip(range(max(checked) + 1), kernels.seed_children(seed)):
        if child in checked:
            native = np.random.default_rng(_numpy_child(seed, child))
            assert rng.bit_generator.state == native.bit_generator.state, child
            want = native.integers(0, 2**32, size=3, dtype=np.uint32)
            assert np.array_equal(rng.integers(0, 2**32, size=3, dtype=np.uint32), want)


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "7"])
def test_seed_children_raise_numpys_error_for_a_bad_seed(seed):
    with pytest.raises(Exception) as native:
        np.random.SeedSequence(seed, spawn_key=(0,))
    with pytest.raises(native.type, match=f"^{re.escape(str(native.value))}$"):
        next(kernels.seed_children(seed))
    with pytest.raises(native.type):
        grover.waiting_time_stats(2, trials=3, seed=seed)


@pytest.mark.parametrize("seed", [[1, 2], (1, 2)])
def test_seed_children_refuse_a_sequence_seed(seed):
    # numpy takes a sequence of words as a seed; the hashed children do not
    np.random.SeedSequence(seed, spawn_key=(0,))
    with pytest.raises(TypeError):
        next(kernels.seed_children(seed))


@pytest.mark.parametrize("seed", [3, np.int64(3), 2**128])
def test_plays_alone_draw_numpys_hashed_children(seed):
    # k = 20's first blocks take the word walk, so each play runs alone on
    # seed_children's Generators: child 0 built by numpy, 1-5 hashed
    times = [
        grover._stopping_index(np.random.default_rng(child), 40, 10**7)
        for child in np.random.SeedSequence(seed).spawn(6)
    ]
    stats = grover.waiting_time_stats(20, trials=6, seed=seed)
    assert (stats.mean, stats.variance, stats.max) == (
        float(np.mean(times)),
        float(np.var(times)),
        max(times),
    )


@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("seed", [3, np.int64(3), 2**128])
def test_waiting_time_stats_plays_numpys_children(seed, trials):
    times = [
        grover._stopping_index(np.random.default_rng(_numpy_child(seed, i)), 4, 10**6)
        for i in range(trials)
    ]
    stats = grover.waiting_time_stats(2, trials=trials, seed=seed)
    assert (stats.mean, stats.variance, stats.max) == (
        float(np.mean(times)),
        float(np.var(times)),
        max(times),
    )
