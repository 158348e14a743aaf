"""Stopping game: word algebra, closed forms, stopping-time behaviour."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondo import grover, statevec

import oracles

ATOL = 1e-12


def test_reduce_push_transition_table():
    assert grover.reduce_push(0, "B") == 0  # absorbed by the start state
    assert grover.reduce_push(0, "A") == 1
    assert grover.reduce_push(1, "B") == 2  # B then A is one full round
    assert grover.reduce_push(1, "A") == 0  # A cancels itself
    assert grover.reduce_push(2, "B") == 1
    assert grover.reduce_push(2, "A") == 3
    assert grover.reduce_push(3, "A") == 2
    assert grover.reduce_push(3, "B") == 4


def test_reduce_push_validation():
    with pytest.raises(ValueError):
        grover.reduce_push(-1, "A")
    with pytest.raises(ValueError):
        grover.reduce_push(0, "C")


@settings(deadline=None, max_examples=200)
@given(st.lists(st.sampled_from(["A", "B"]), max_size=120))
def test_reduce_push_matches_symbolic_reducer(letters):
    length = 0
    word = []
    for letter in letters:
        length = grover.reduce_push(length, letter)
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
    length = 0
    for bit in letters:
        if bit:
            direct = statevec.flip_sign_at(direct, alpha)
            length = grover.reduce_push(length, "A")
        else:
            direct = statevec.diffusion(direct)
            length = grover.reduce_push(length, "B")
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


def test_best_k_values():
    assert grover.best_k(2) == 1
    assert abs(grover.success_after_k(2, 1) - 1.0) < ATOL
    assert grover.best_k(3) == 2
    assert grover.success_after_k(10, grover.best_k(10)) > 0.99


def test_best_k_beats_one_half_everywhere():
    for n in range(2, 25):
        assert grover.success_after_k(n, grover.best_k(n)) > 0.5


def test_stopping_strategy_validation():
    grover.StoppingStrategy(1)
    with pytest.raises(ValueError):
        grover.StoppingStrategy(0)


def test_play_single_round_is_certain_at_two_qubits():
    for seed in range(10):
        record = grover.play(2, 2, grover.StoppingStrategy(1), seed)
        assert abs(record.success_probability - 1.0) < ATOL
        assert record.stopping_index >= 2
        assert record.sequence_seed == seed


def test_play_success_depends_only_on_the_reduced_word():
    want = grover.success_after_k(4, 4)
    for seed in range(50):
        record = grover.play(4, 7, grover.StoppingStrategy(4), seed)
        assert abs(record.success_probability - want) < 1e-10


def test_play_is_deterministic():
    a = grover.play(3, 1, grover.StoppingStrategy(2), seed=99)
    b = grover.play(3, 1, grover.StoppingStrategy(2), seed=99)
    assert a == b


def test_letter_stream_stays_at_zero_until_first_a():
    from parrondo import kernels

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
    # double their draws, 100 up to the block ceiling; caps cut draws short
    for target in (2, 10, 40, 100):
        for cap in (1, 3, 7, 50, 111, 113, 1001, 20_001, grover.DEFAULT_LETTER_CAP):
            for seed in range(12):
                want = _stopping_index_fixed_blocks(np.random.default_rng(seed), target, cap)
                rng = np.random.default_rng(seed)
                if want is None:
                    with pytest.raises(grover.StoppingCapExceeded):
                        grover._stopping_index(rng, target, cap)
                else:
                    assert grover._stopping_index(rng, target, cap) == want


def test_uint8_draws_in_pieces_of_four_match_one_draw():
    # _stopping_index relies on this: uint8 draws take whole 32-bit words
    whole = np.random.default_rng(7).integers(0, 2, size=1000, dtype=np.uint8)
    rng = np.random.default_rng(7)
    pieces = [rng.integers(0, 2, size=size, dtype=np.uint8) for size in (64, 4, 132, 800)]
    assert np.array_equal(np.concatenate(pieces), whole)


def test_play_cap_is_a_loud_error():
    with pytest.raises(grover.StoppingCapExceeded):
        grover.play(3, 1, grover.StoppingStrategy(50), seed=1, letter_cap=30)


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


def test_waiting_time_stats_small_target():
    stats = grover.waiting_time_stats(1, trials=2000, seed=5)
    assert stats.cap_exceeded == 0
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


def test_waiting_time_stats_validation():
    with pytest.raises(ValueError):
        grover.waiting_time_stats(0, trials=10, seed=1)
    with pytest.raises(ValueError):
        grover.waiting_time_stats(1, trials=0, seed=1)
