"""Stopping game: word algebra, closed forms, stopping-time behaviour."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrondo import grover, kernels, statevec

import oracles

ATOL = 1e-12


def test_push_letters_one_letter_transition_table():
    # one letter from levels 0-3 (1 is A, 0 is B); -1 is a target no
    # reduced length reaches, so the kernel takes the letter and stops
    table = {
        (0, 0): 0,  # B absorbed by the start state
        (0, 1): 1,
        (1, 0): 2,  # B then A is one full round
        (1, 1): 0,  # A cancels itself
        (2, 0): 1,
        (2, 1): 3,
        (3, 1): 2,
        (3, 0): 4,
    }
    for (level, letter), want in table.items():
        one = np.array([letter], np.uint8)
        assert kernels.push_letters_until(one, level, -1) == (1, want, False)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.sampled_from(["A", "B"]), max_size=120))
def test_push_letters_matches_symbolic_reducer(letters):
    # the kernel's final reduced length, with a target (-1) it never reaches
    bits = np.array([letter == "A" for letter in letters], dtype=np.uint8)
    _, length, _ = kernels.push_letters_until(bits, 0, -1)
    word = []
    for letter in letters:
        word = oracles.symbolic_push(word, letter)
    assert length == len(word)
    # the reduced word alternates and, when nonempty, ends in A
    for first, second in zip(word, word[1:]):
        assert first != second
    if word:
        assert word[-1] == "A"


def test_realize_word_base_cases():
    assert np.array_equal(grover.realize_word(0, 3, 1), statevec.uniform_state(3))
    for n in (2, 3, 5):
        single = grover.realize_word(1, n, 1)
        assert abs(statevec.probability_of(single, 1) - 2.0**-n) < ATOL
    # one full round at n=2 is exact
    assert abs(statevec.probability_of(grover.realize_word(2, 2, 2), 2) - 1.0) < ATOL


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(1, 200),
)
def test_word_reduction_is_sound(n, seed, size):
    rng = np.random.default_rng(seed)
    alpha = int(rng.integers(0, 1 << n))
    letters = rng.integers(0, 2, size=size)
    direct = statevec.uniform_state(n)
    for bit in letters:
        if bit:
            direct = statevec.flip_sign_at(direct, alpha)
        else:
            direct = statevec.diffusion(direct)
    _, length, _ = kernels.push_letters_until(letters, 0, -1)
    assert np.max(np.abs(direct - grover.realize_word(length, n, alpha))) < ATOL


def test_success_after_k_known_values():
    assert abs(grover.success_after_k(2, 1) - 1.0) < ATOL
    assert abs(grover.success_after_k(2, 2) - 0.25) < 1e-12
    assert abs(grover.success_after_k(3, 3) - 169.0 / 512.0) < 1e-12
    assert abs(grover.success_after_k(3, 2) - 121.0 / 128.0) < 1e-12
    assert abs(grover.success_after_k(4, 4) - 0.5817041397094724) < 1e-12
    with pytest.raises(ValueError):
        grover.success_after_k(1, 1)
    with pytest.raises(ValueError):
        grover.success_after_k(3, -1)


@pytest.mark.parametrize("n", range(2, 11))
def test_success_closed_form_matches_statevec(n):
    for k in range(0, 2 * grover.canonical_k(n) + 1):
        state = grover.realize_word(2 * k, n, alpha=1)
        simulated = statevec.probability_of(state, 1)
        assert abs(simulated - grover.success_after_k(n, k)) < 1e-10


@pytest.mark.parametrize("n", range(2, 11))
def test_sweep_success_equals_realize_word_exactly(n):
    k_max = grover.canonical_k(n) + 2
    for alpha in {0, 1, (1 << n) - 1, (1 << n) // 3}:
        sweep = grover.sweep_success(n, alpha, k_max)
        assert len(sweep) == k_max + 1
        for k, value in enumerate(sweep):
            assert value == statevec.probability_of(
                grover.realize_word(2 * k, n, alpha), alpha
            )


@pytest.mark.parametrize("n", range(2, 15))
def test_sweep_success_is_the_pure_operators_rounds(n):
    # the rounds share one buffer; the pure operators copy at every letter,
    # with the same float operations, so every value is equal
    k_max = grover.canonical_k(n) + 2
    for alpha in {0, (1 << n) - 1, (1 << n) // 3}:
        state = statevec.uniform_state(n)
        want = [statevec.probability_of(state, alpha)]
        for _ in range(k_max):
            state = statevec.diffusion(statevec.flip_sign_at(state, alpha))
            want.append(statevec.probability_of(state, alpha))
        assert grover.sweep_success(n, alpha, k_max) == want
        word = grover.realize_word(2 * k_max + 1, n, alpha)
        odd = statevec.flip_sign_at(state, alpha)
        assert np.array_equal(word.view(np.uint64), odd.view(np.uint64))


def test_realize_word_results_never_alias():
    words = [grover.realize_word(length, 4, 3) for length in (0, 1, 2, 5, 5)]
    kept = [word.copy() for word in words]
    for first, second in itertools.combinations(words, 2):
        assert not np.shares_memory(first, second)
    grover.realize_word(6, 4, 3)
    grover.sweep_success(4, 3, 3)
    for word, keep in zip(words, kept):
        assert np.array_equal(word, keep)


@pytest.mark.parametrize("k_max", [0, 1, 2, 7])
@pytest.mark.parametrize("alpha", [-1, -8, 8, 9])
def test_bad_alpha_raises_before_any_round(monkeypatch, k_max, alpha):
    # an in-place flip at a negative index would wrap round instead
    calls = []
    diffusion = statevec.diffusion
    monkeypatch.setattr(
        statevec,
        "diffusion",
        lambda state, out=None: calls.append(1) or diffusion(state, out=out),
    )
    with pytest.raises(ValueError, match="out of range"):
        grover.sweep_success(3, alpha, k_max)
    for length in (2 * k_max, 2 * k_max + 1):
        with pytest.raises(ValueError, match="out of range"):
            grover.realize_word(length, 3, alpha)
    assert calls == []


def test_sweep_success_validation():
    (only,) = grover.sweep_success(3, 5, 0)
    assert abs(only - 0.125) < ATOL
    with pytest.raises(ValueError):
        grover.sweep_success(3, 5, -1)
    with pytest.raises(ValueError):
        grover.sweep_success(3, 8, 2)
    for qubits in (True, np.True_):
        with pytest.raises(ValueError, match="qubit count"):
            grover.sweep_success(qubits, 0, 1)


def test_canonical_k_values():
    assert grover.canonical_k(2) == 2
    assert grover.canonical_k(4) == 4
    assert grover.canonical_k(10) == 26
    with pytest.raises(ValueError):
        grover.canonical_k(1)


# pi to 39 decimals, rounded down, so PI_LOW < pi < PI_LOW + 10**-39
PI_LOW = Fraction(3141592653589793238462643383279502884197, 10**39)


def test_canonical_k_is_the_exact_ceiling():
    # k = ceil(pi * sqrt(2**n) / 4) exactly when 16(k-1)^2 < pi^2 * 2^n < 16k^2,
    # pi irrational; bounding pi from both sides makes the comparison exact
    pi_high = PI_LOW + Fraction(1, 10**39)
    for n in range(2, 25):
        k = grover.canonical_k(n)
        assert 16 * (k - 1) ** 2 < PI_LOW**2 * 2**n, n
        assert pi_high**2 * 2**n < 16 * k**2, n


def test_best_k_values():
    assert grover.best_k(2) == 1
    assert abs(grover.success_after_k(2, 1) - 1.0) < ATOL
    assert grover.best_k(3) == 2
    assert grover.success_after_k(10, grover.best_k(10)) > 0.99


def test_best_k_is_the_scan_of_success_after_k():
    # n = 2 ties at k = 1 and k = 4 (both success 1.0); the scan keeps k = 1
    assert grover.success_after_k(2, 1) == grover.success_after_k(2, 4)
    for n in range(2, 25):
        want = max(range(grover.canonical_k(n) + 3), key=lambda k: grover.success_after_k(n, k))
        assert grover.best_k(n) == want, n
    with pytest.raises(ValueError):
        grover.best_k(1)


def test_best_k_beats_one_half_everywhere():
    for n in range(2, 25):
        assert grover.success_after_k(n, grover.best_k(n)) > 0.5


def test_letter_stream_stays_at_zero_until_first_a():
    bits = np.array([0, 0, 0, 1], dtype=np.uint8)
    consumed, level, hit = kernels.push_letters_until(bits, 0, 1)
    assert (consumed, level, hit) == (4, 1, True)


def _stopping_index_fixed_blocks(rng, target_length, letter_cap):
    # the original draw schedule: fixed 16,384-letter blocks into the loop reference
    consumed = 0
    level = 0
    while consumed < letter_cap:
        bits = rng.integers(0, 2, size=min(1 << 14, letter_cap - consumed), dtype=np.uint8)
        used, level, hit = oracles.push_letters_loops(bits, level, target_length)
        consumed += used
        if hit:
            return consumed
    return None


def test_stopping_index_matches_fixed_block_reference():
    # targets 2 and 10 start below 64 and off a multiple of 4; 40 and 100
    # repeat their first block's size, 100 at the block ceiling; caps cut
    # draws short
    for target in (2, 10, 40, 100):
        for cap in (1, 3, 7, 50, 111, 113, 1001, 20_001, 10**7):
            for seed in range(12):
                want = _stopping_index_fixed_blocks(np.random.default_rng(seed), target, cap)
                rng = np.random.default_rng(seed)
                assert grover._stopping_index(rng, target, cap) == want


@settings(deadline=None, max_examples=300)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(1, 2**11).map(lambda words: 8 * words), max_size=6),
    st.integers(0, 2**14),
)
def test_raw_byte_letters_match_one_uint8_draw(seed, blocks, cut):
    # _stopping_index relies on numpy's uint8 draw on [0, 2) being bit 7 of
    # each raw byte: blocks of 8 to 2**14 letters, then one a cap cut short
    raw = np.random.default_rng(seed).bit_generator.random_raw
    letters = [grover._letters(raw(-(-size // 8)), size) for size in (*blocks, cut)]
    whole = np.random.default_rng(seed).integers(0, 2, size=sum(blocks) + cut, dtype=np.uint8)
    assert np.array_equal(np.concatenate(letters), whole)


def test_expected_stopping_index_closed_form():
    for k in range(1, 26):
        level = 2 * k
        value = grover.expected_stopping_index(k)
        assert value == Fraction(level * level + level)
        assert value == oracles.exact_hitting_time(level)
    with pytest.raises(ValueError):
        grover.expected_stopping_index(0)


def test_stopping_index_variance_closed_form():
    for k, want in [(1, 22), (2, 260), (4, 3432), (13, 328302)]:
        value = grover.stopping_index_variance(k)
        assert value == want
        assert value == oracles.exact_hitting_time_variance(2 * k)
    with pytest.raises(ValueError):
        grover.stopping_index_variance(0)


def test_twenty_mean_stopping_times_bound_every_play():
    # the tail at 20 L(L+1) rises with L towards its large-L value 2.5e-11
    for level in range(2, 9):
        survival = oracles.ruin_survival(level, 20 * level * (level + 1))
        assert survival[-1] < 2.5e-11
        # the survivals sum to the mean, bar a tail below 2e-9
        assert 0 < level * (level + 1) - sum(survival[:-1]) < 2e-9


def test_default_letter_cap_follows_the_mean_stopping_time():
    for k in (1, 2, 202, 353, 354, 403, 1000):
        level = 2 * k
        assert grover.default_letter_cap(k) == max(10**7, 20 * level * (level + 1))
    # 10**7 up to k = 353, past every canonical, best and sweep k at n <= 17
    assert grover.default_letter_cap(353) == 10**7 < grover.default_letter_cap(354)
    assert grover.canonical_k(17) + 2 < 354
    with pytest.raises(ValueError):
        grover.default_letter_cap(0)


def test_waiting_time_stats_small_target():
    stats = grover.waiting_time_stats(1, trials=2000, seed=5)
    assert stats.cap_exceeded == 0
    assert stats.letter_cap == grover.default_letter_cap(1)
    assert stats.mean >= 2.0
    assert stats.max >= 2
    expected = float(grover.expected_stopping_index(1))
    standard_error = math.sqrt(stats.variance / stats.trials)
    assert abs(stats.mean - expected) <= 4 * standard_error


def test_waiting_time_stats_level_ten():
    stats = grover.waiting_time_stats(5, trials=10_000, seed=31337)
    assert stats.cap_exceeded == 0
    assert abs(stats.mean - 100.0) / 100.0 <= 0.15
    exact = float(grover.expected_stopping_index(5))
    standard_error = math.sqrt(stats.variance / stats.trials)
    assert abs(stats.mean - exact) <= 4 * standard_error
    # the stopping index has kurtosis about 8.5, so the variance of 10^4
    # plays has a relative standard error near 0.028; allow four of them
    exact_variance = float(grover.stopping_index_variance(5))
    assert abs(stats.variance - exact_variance) / exact_variance <= 0.12


def test_waiting_time_stats_counts_cap_hits_separately():
    stats = grover.waiting_time_stats(100, trials=5, seed=1, letter_cap=50)
    assert stats.cap_exceeded == 5
    assert stats.letter_cap == 50
    assert math.isnan(stats.mean)


def test_waiting_time_stats_plays_the_seed_children_in_order():
    children = np.random.SeedSequence(77).spawn(40)
    times = np.array(
        [grover._stopping_index(np.random.default_rng(c), 6, 10**6) for c in children],
        dtype=np.float64,
    )
    stats = grover.waiting_time_stats(3, trials=40, seed=77)
    assert (stats.mean, stats.variance, stats.max) == (
        float(times.mean()),
        float(times.var()),
        int(times.max()),
    )


def _kernel_block_sizes(monkeypatch, target_k, trials, seed):
    sizes = []
    push = kernels.push_letters_until

    def counted(bits, level, target):
        sizes.append(bits.size)
        return push(bits, level, target)

    monkeypatch.setattr(kernels, "push_letters_until", counted)
    grover.waiting_time_stats(target_k, trials, seed)
    return sizes


def _per_play_indices(target_k, trials, seed, letter_cap=None):
    # the per-play path: child i of the seed, played alone by _stopping_index
    if letter_cap is None:
        letter_cap = grover.default_letter_cap(target_k)
    children = itertools.islice(kernels.seed_children(seed), trials)
    return [grover._stopping_index(rng, 2 * target_k, letter_cap) for rng in children]


def test_short_plays_end_in_their_first_block(monkeypatch):
    # a kernel call costs about 2,000 letters of the per-letter walk, so the
    # first block is sized to finish nearly every play: at k = 4 a play
    # needed 1.40 calls when it covered only the mean.  Batched plays that
    # end in their first block make no push_letters_until call at all; the
    # few that outrun it are played again alone, so the calls stay far below
    # one per play
    sizes = _kernel_block_sizes(monkeypatch, 4, 1000, seed=1)
    assert len(sizes) <= 1.05 * 1000
    # and those plays draw every block at the first block's size
    assert set(sizes) == {288}


def test_batched_plays_call_the_kernel_only_when_they_outrun_their_first_block(monkeypatch):
    # each play that outruns its 288 letters is played again from the start,
    # one push_letters_until call per 288-letter block it draws; no other
    # play calls it
    times = _per_play_indices(4, 1000, seed=1)
    outran = [t for t in times if t > 288]
    assert 0 < len(outran) <= 0.02 * 1000
    sizes = _kernel_block_sizes(monkeypatch, 4, 1000, seed=1)
    assert len(sizes) == sum(-(-t // 288) for t in outran)


def test_fewer_plays_than_the_batch_minimum_run_one_by_one(monkeypatch):
    # below _BATCH_PLAYS each play calls push_letters_until once per block,
    # so traces of a few plays still show one call per play at least
    trials = grover._BATCH_PLAYS - 1
    times = _per_play_indices(4, trials, seed=2)
    sizes = _kernel_block_sizes(monkeypatch, 4, trials, seed=2)
    assert len(sizes) == sum(-(-t // 288) for t in times) >= trials


def _per_play_stats(target_k, trials, seed, letter_cap):
    times = _per_play_indices(target_k, trials, seed, letter_cap)
    kept = np.array([t for t in times if t is not None], dtype=np.float64)
    stopped = kept.size > 0
    return grover.WaitingTimeStats(
        trials=trials,
        mean=float(kept.mean()) if stopped else math.nan,
        variance=float(kept.var()) if stopped else math.nan,
        max=int(kept.max()) if stopped else 0,
        cap_exceeded=times.count(None),
        letter_cap=grover.default_letter_cap(target_k) if letter_cap is None else letter_cap,
    )


def _same_stats(got, want):
    for field in ("trials", "mean", "variance", "max", "cap_exceeded", "letter_cap"):
        a, b = getattr(got, field), getattr(want, field)
        assert a == b or (math.isnan(a) and math.isnan(b)), (field, a, b)


@st.composite
def _batched_calls(draw):
    # k = 1..19 take the batched walk, k = 20 (6,560-letter blocks) does not;
    # play counts around the batch minimum and a chunk boundary, and caps of
    # 1, inside, at and just past the first block, and the default
    target_k = draw(st.integers(1, 20))
    block = grover._block(2 * target_k)
    chunk = max(1, grover._CHUNK_LETTERS // block)
    low = grover._BATCH_PLAYS
    trials = draw(st.sampled_from([1, low - 1, low, low + 1, chunk, chunk + 1, 2 * chunk + 3]))
    cap = draw(st.sampled_from([1, block // 2 + 3, block, block + 1, None]))
    return target_k, trials, draw(st.integers(0, 2**64)), cap


@settings(deadline=None, max_examples=120)
@example(call=(4, 114, 1, None))  # a full chunk of 113 plays and one more
@example(call=(4, 231, 2, None))  # two full chunks and a last one of 5 plays
@example(call=(4, grover._BATCH_PLAYS, 8, None))  # the fewest plays walked together
@example(call=(4, 1000, 101, 289))  # outran plays cut one letter later
@example(call=(1, 1025, 7, None))  # 512-play chunks of 64 letters
@example(call=(19, 11, 3, None))  # 5 plays of 5,928 letters a chunk
@example(call=(20, 9, 3, None))  # one play at a time
@example(call=(100, 5, 1, 50))  # every play capped
@given(call=_batched_calls())
def test_batched_plays_stop_where_each_play_alone_stops(call):
    target_k, trials, seed, cap = call
    got = grover.waiting_time_stats(target_k, trials, seed, letter_cap=cap)
    _same_stats(got, _per_play_stats(target_k, trials, seed, cap))


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "7"])
@pytest.mark.parametrize(
    "target_k, trials",
    [(2, grover._BATCH_PLAYS - 1), (2, grover._BATCH_PLAYS), (19, grover._BATCH_PLAYS)],
)
def test_a_bad_seed_raises_numpys_error_before_any_play(monkeypatch, seed, target_k, trials):
    # plays alone, and plays walked together on kernels._child_rows' rows
    with pytest.raises(Exception) as native:
        np.random.SeedSequence(seed, spawn_key=(0,))

    def refuse(*args):
        raise AssertionError("a play was walked")

    monkeypatch.setattr(kernels, "push_letters_until", refuse)
    monkeypatch.setattr(kernels, "_letter_walk", refuse)
    with pytest.raises(native.type, match=f"^{re.escape(str(native.value))}$"):
        grover.waiting_time_stats(target_k, trials, seed=seed)


@pytest.mark.parametrize("seed", [[1, 2], (1, 2)])
@pytest.mark.parametrize("target_k, trials", [(2, 1), (2, 3), (2, 4), (2, 40), (20, 1), (20, 5)])
def test_a_sequence_seed_raises_type_error_before_any_play(monkeypatch, seed, target_k, trials):
    # numpy takes a sequence of words as a seed, but plays alone and plays
    # walked together both refuse it, at every play count
    def refuse(*args):
        raise AssertionError("a play was walked")

    monkeypatch.setattr(kernels, "push_letters_until", refuse)
    monkeypatch.setattr(kernels, "_letter_walk", refuse)
    with pytest.raises(TypeError):
        grover.waiting_time_stats(target_k, trials, seed=seed)


@pytest.mark.parametrize(
    "target_k, size",
    [(1, 64), (4, 4 * 8 * 9), (16, 4 * 32 * 33), (72, grover._STREAM_BLOCK)],
)
def test_first_block_is_four_mean_hitting_times(monkeypatch, target_k, size):
    # at least 64 letters, a multiple of 8 and at most _STREAM_BLOCK
    assert _kernel_block_sizes(monkeypatch, target_k, 1, seed=2)[0] == size


@pytest.mark.parametrize(
    "target_k, size",
    [(72, 1 << 14), (90, 1 << 14), (91, 1 << 15), (204, 1 << 17), (402, 1 << 17)],
)
def test_long_plays_draw_blocks_of_their_mean_up_to_2_17(monkeypatch, target_k, size):
    # L(L+1) stays below 2^15 up to k = 90, so those plays keep 2^14-letter
    # blocks; from k = 91 a play's blocks are its mean rounded down to a
    # power of two, at most 2^17, one size throughout the play
    assert set(_kernel_block_sizes(monkeypatch, target_k, 3, seed=5)) == {size}


def _short_play_block(target_length):
    # the block of every play before long plays drew blocks of their mean
    return min(1 << 14, -(-max(64, 4 * target_length * (target_length + 1)) // 8) * 8)


@pytest.mark.parametrize("target_k", [150, 204])
def test_long_blocks_keep_every_stopping_index(monkeypatch, target_k):
    # the blocks are slices of one long draw, so the block size moves no play
    long_blocks = _per_play_indices(target_k, 6, seed=11)
    monkeypatch.setattr(grover, "_block", _short_play_block)
    assert _per_play_indices(target_k, 6, seed=11) == long_blocks
    assert set(_kernel_block_sizes(monkeypatch, target_k, 1, seed=11)) == {1 << 14}


def test_a_cap_inside_the_second_long_block_counts_the_same_plays(monkeypatch):
    # at k = 204 a cap of 2^17 + 12,345 letters ends inside a play's second
    # 2^17-letter block, off a multiple of 8; about half the plays hit it
    target_k, trials, seed, cap = 204, 8, 4, (1 << 17) + 12_345
    long_blocks = grover.waiting_time_stats(target_k, trials, seed, letter_cap=cap)
    assert 0 < long_blocks.cap_exceeded < trials
    children = itertools.islice(kernels.seed_children(seed), trials)
    loops = [_stopping_index_fixed_blocks(rng, 2 * target_k, cap) for rng in children]
    assert long_blocks.cap_exceeded == loops.count(None)
    kept = np.array([t for t in loops if t is not None], dtype=np.float64)
    assert (long_blocks.mean, long_blocks.variance, long_blocks.max) == (
        float(kept.mean()),
        float(kept.var()),
        int(kept.max()),
    )
    monkeypatch.setattr(grover, "_block", _short_play_block)
    _same_stats(grover.waiting_time_stats(target_k, trials, seed, letter_cap=cap), long_blocks)


def test_waiting_time_stats_validation():
    with pytest.raises(ValueError):
        grover.waiting_time_stats(0, trials=10, seed=1)
    with pytest.raises(ValueError):
        grover.waiting_time_stats(1, trials=0, seed=1)
    for cap, shown in ((0, "0"), (-5, "-5"), (-(10**25), "a value of 26 digits")):
        with pytest.raises(ValueError, match=f"^letter cap must be >= 1, got {shown}$"):
            grover.waiting_time_stats(4, trials=10, seed=1, letter_cap=cap)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_many_plays_hold_one_float_each_and_one_chunk():
    # the plays keep their stopping indices as one float64 array, 8 B a
    # play; the rest is one chunk at a time (its raw rows, int8 steps, int32
    # walk and barrier masks, about 10 B a letter) and one pass of the seed
    # hash, within 20 B per letter of a chunk.  A Python list of the plays'
    # indices, or their rows kept, breaks the bound at 2 * 10^4 plays;
    # tracemalloc makes each play's seeding about 20 times slower, so the
    # moments' share is checked with more plays below, without the seeding
    trials = 2 * 10**4
    grover.waiting_time_stats(4, 10, seed=4)  # imports and caches warmed
    _, peak = _traced_peak(lambda: grover.waiting_time_stats(4, trials, seed=4))
    assert peak <= 8 * trials + 20 * grover._CHUNK_LETTERS


def test_moments_are_numpys_taken_in_place(monkeypatch):
    # mean and variance are numpy's mean and var of the stopping indices as
    # float64, in play order, taken without a second array of the plays:
    # 10^6 plays of known indices, one in 1,000 capped, arrive 4,096 at a time
    trials = 10**6
    indices = np.random.default_rng(5).integers(1, 10**4, size=trials)
    indices[::1000] = 0

    def chunks(target_length, count, seed, letter_cap):
        assert count == trials
        for first in range(0, count, 4096):
            chunk = indices[first : first + 4096]
            yield chunk[chunk > 0]

    monkeypatch.setattr(grover, "_stopping_indices", chunks)
    stats, peak = _traced_peak(lambda: grover.waiting_time_stats(4, trials, seed=1))
    kept = indices[indices > 0].astype(np.float64)
    assert (stats.mean, stats.variance, stats.max, stats.cap_exceeded) == (
        float(kept.mean()),
        float(kept.var()),
        int(kept.max()),
        trials // 1000,
    )
    assert peak <= 8 * trials + 2**17
