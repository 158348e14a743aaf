"""Stopping game: word algebra, closed forms, stopping-time behaviour."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_sweep_success_validation():
    (only,) = grover.sweep_success(3, 5, 0)
    assert abs(only - 0.125) < ATOL
    with pytest.raises(ValueError):
        grover.sweep_success(3, 5, -1)
    with pytest.raises(ValueError):
        grover.sweep_success(3, 8, 2)


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
    rng = np.random.default_rng(seed)
    letters = [grover._letters(rng.bit_generator.random_raw, size) for size in (*blocks, cut)]
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


def test_short_plays_end_in_their_first_block(monkeypatch):
    # a kernel call costs about 2,000 letters of the per-letter walk, so the
    # first block is sized to finish nearly every play: 1.40 calls per play
    # at k = 4 when it covered only the mean
    sizes = _kernel_block_sizes(monkeypatch, 4, 1000, seed=1)
    assert len(sizes) <= 1.05 * 1000
    # and the few plays that outrun it draw later blocks of the same size
    assert set(sizes) == {288}


@pytest.mark.parametrize(
    "target_k, size",
    [(1, 64), (4, 4 * 8 * 9), (16, 4 * 32 * 33), (72, grover._STREAM_BLOCK)],
)
def test_first_block_is_four_mean_hitting_times(monkeypatch, target_k, size):
    # at least 64 letters, a multiple of 8 and at most _STREAM_BLOCK
    assert _kernel_block_sizes(monkeypatch, target_k, 1, seed=2)[0] == size


def test_waiting_time_stats_validation():
    with pytest.raises(ValueError):
        grover.waiting_time_stats(0, trials=10, seed=1)
    with pytest.raises(ValueError):
        grover.waiting_time_stats(1, trials=0, seed=1)
    for cap, shown in ((0, "0"), (-5, "-5"), (-(10**25), "a value of 26 digits")):
        with pytest.raises(ValueError, match=f"^letter cap must be >= 1, got {shown}$"):
            grover.waiting_time_stats(4, trials=10, seed=1, letter_cap=cap)
