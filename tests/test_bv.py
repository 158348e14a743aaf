"""Unreliable-oracle game: noise bookkeeping, closed form, baselines."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrondo import bv, kernels, statevec

import oracles

ATOL = 1e-12


def test_flip_candidates_small():
    assert list(bv.flip_candidates(3, 1)) == [1, 3, 5, 7]
    assert list(bv.flip_candidates(2, 3)) == [1, 2]
    for n in range(2, 8):
        assert bv.flip_candidates(n, 1).size == 1 << (n - 1)


def test_flip_candidates_match_popcount_reference():
    for n in range(1, 9):
        for alpha in range(1, 1 << n):
            got = bv.flip_candidates(n, alpha)
            want = oracles.flip_candidates_popcount(n, alpha)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


def test_flip_candidates_peak_memory_at_22_qubits():
    # the rank map runs in place on 2**21 int32 ranks (8 MiB), with its
    # temporaries a 2**16-rank slice at a time, then widens to int64
    # (16 MiB): 24 MiB; on an int64 arange it peaked near 50 MiB, and
    # oracles.flip_candidates_popcount's uint64 pass near 68 MiB
    tracemalloc.start()
    try:
        bv.flip_candidates(22, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_hadamard_probability_matches_full_transform_on_bv_states():
    for n in range(2, 7):
        base = statevec.uniform_state(n)
        for alpha in range(1, 1 << n):
            states = [statevec.flip_sign_at(base, bv.first_candidate(n, alpha))]
            for mode in bv.NOISE_MODES:
                rng = np.random.default_rng(n * alpha)
                realization = bv.draw_realization(n, alpha, mode, rng)
                states.append(bv.noisy_oracle(realization))
            for state in states:
                full = statevec.hadamard_all(state)
                for x in range(1 << n):
                    want = statevec.probability_of(full, x)
                    assert oracles.hadamard_probability(state, x) == want


def test_odd_n_successes_keep_their_rounding():
    # 2**(-n/2) is inexact at odd n; reading one entry rounds exactly as the
    # full transform did, one ulp off the exact 1/4 and 1/16
    play = bv.run_game(3, 5, bv.FIXED_HALF, seed=1)
    assert play.success_probability == 0.2500000000000001
    assert bv.single_reflection_baseline(3, 5, 1) == 0.06250000000000003


def test_hadamard_probability_peak_memory_at_22_qubits():
    # one 2**16-amplitude chunk's stages at a time (256 + 128 KiB), where
    # halving the whole state kept 16 + 8 MiB; the full transform copies the
    # 32 MiB state and adds a 16 MiB stage buffer
    state = statevec.uniform_state(22)
    peaks = {}
    for name, read in (
        ("entry", lambda: oracles.hadamard_probability(state, 1)),
        ("full", lambda: statevec.probability_of(statevec.hadamard_all(state), 1)),
    ):
        tracemalloc.start()
        try:
            read()
            _, peaks[name] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks["entry"] < 2**20
    assert peaks["full"] >= 48 * 2**20


class _TrapGenerator:
    """Stands in for a Generator: any draw from it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} reached before the qubit count was checked")


@pytest.mark.parametrize("n", [0, 25, 30, True])
def test_qubit_count_is_checked_before_any_draw(n):
    # at n = 30, fixed-half's draw builds a 4 GiB permutation and
    # flip_candidates a 2 GiB arange, unless n is refused first
    for mode in bv.NOISE_MODES:
        with pytest.raises(ValueError, match="qubit count"):
            bv.draw_realization(n, 1, mode, _TrapGenerator())
    with pytest.raises(ValueError, match="qubit count"):
        bv.flip_candidates(n, 1)


def test_alpha_zero_rejected_everywhere():
    with pytest.raises(ValueError):
        bv.flip_candidates(3, 0)
    rng = np.random.default_rng(1)
    for mode in bv.NOISE_MODES:
        with pytest.raises(ValueError, match="nonzero"):
            bv.draw_realization(3, 0, mode, rng)
    with pytest.raises(ValueError):
        bv.run_game(3, 0, bv.NOISELESS, seed=1)
    with pytest.raises(ValueError):
        bv.single_reflection_baseline(3, 0, 1)


def test_first_candidate_is_the_smallest_flip_candidate():
    for n in range(1, 9):
        for alpha in range(1, 1 << n):
            assert bv.first_candidate(n, alpha) == bv.flip_candidates(n, alpha)[0]
    with pytest.raises(ValueError):
        bv.first_candidate(3, 0)


def test_noisy_oracle_limits():
    state = statevec.uniform_state(3)
    # nothing unflipped -> the reliable phase oracle
    everything = bv.NoiseRealization(3, 5, np.empty(0, np.int64))
    want = oracles.dense_phase_oracle(3, 5) @ state
    assert np.array_equal(bv.noisy_oracle(everything), want)
    # everything unflipped -> the oracle never fired
    nothing = bv.NoiseRealization(3, 5, bv.flip_candidates(3, 5))
    assert np.array_equal(bv.noisy_oracle(nothing), state)


def test_noisy_oracle_equals_negating_the_unflipped_back():
    # the scalar write of the uniform amplitude gives the bytes of negating
    # the gathered unflipped amplitudes back, for every draw and both limits
    for n in range(2, 7):
        for alpha in range(1, 1 << n):
            eligible = oracles.flip_candidates_popcount(n, alpha)
            realizations = [
                bv.NoiseRealization(n, alpha, eligible[:0]),
                bv.NoiseRealization(n, alpha, eligible),
            ]
            for mode in bv.NOISE_MODES:
                rng = np.random.default_rng(n * 64 + alpha)
                realizations.append(bv.draw_realization(n, alpha, mode, rng))
            for realization in realizations:
                want = oracles.noisy_oracle_negate_back(n, alpha, realization.unflipped)
                assert np.array_equal(bv.noisy_oracle(realization), want)


def test_noisy_oracle_sign_pattern():
    realization = bv.NoiseRealization(3, 1, np.array([1, 3], np.int64))
    got = bv.noisy_oracle(realization)
    amp = 1.0 / math.sqrt(8.0)
    want = np.array([amp, amp, amp, amp, amp, -amp, amp, -amp])
    assert np.max(np.abs(got - want)) < ATOL


def test_run_game_noiseless_is_certain():
    for n, alpha in ((2, 1), (4, 9), (6, 33)):
        result = bv.run_game(n, alpha, bv.NOISELESS, seed=3)
        assert abs(result.success_probability - 1.0) < ATOL
        assert result.realization.unflipped.size == 0


def test_run_game_fixed_half_is_exactly_one_quarter():
    for seed in range(5):
        result = bv.run_game(4, 5, bv.FIXED_HALF, seed)
        assert len(result.realization.unflipped) == 4
        assert abs(result.success_probability - 0.25) < ATOL
    # half of the 2^(n-1) eligible indices stay unflipped, at every size
    for n in range(2, 11):
        for alpha in (1, 2, (1 << n) - 1):
            result = bv.run_game(n, alpha, bv.FIXED_HALF, seed=1000 + 17 * n + alpha)
            assert len(result.realization.unflipped) == 1 << (n - 2)
            assert abs(result.success_probability - 0.25) < ATOL


def test_run_game_matches_closed_form_and_dense_oracle():
    for seed in range(8):
        result = bv.run_game(4, 11, bv.INDEPENDENT, seed)
        count = len(result.realization.unflipped)
        assert abs(result.success_probability - bv.exact_success(4, count)) < ATOL
        dense = oracles.bv_success_dense(4, 11, result.realization.unflipped)
        assert abs(result.success_probability - dense) < ATOL


@settings(deadline=None, max_examples=150)
@example(n=4, alpha_rank=7, mode=bv.FIXED_HALF, seed=0)
@example(n=12, alpha_rank=(1 << 12) - 2, mode=bv.INDEPENDENT, seed=1)
@given(
    n=st.integers(2, 12),
    alpha_rank=st.integers(0, 2**12),
    mode=st.sampled_from(bv.NOISE_MODES),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_play_is_the_built_states_entry(n, alpha_rank, mode, seed):
    # with 8-amplitude chunks a play builds and halves several chunks from
    # n = 4 on (alpha 8 flips whole chunks only); bit for bit the entry of
    # the whole state built at once, for the draw and both unflipped limits
    alpha = 1 + alpha_rank % ((1 << n) - 1)
    limits = [
        bv.NoiseRealization(n, alpha, np.empty(0, np.int64)),
        bv.NoiseRealization(n, alpha, bv.flip_candidates(n, alpha)),
    ]
    with mock.patch.object(kernels, "_CHUNK", 8):
        play = bv.run_game(n, alpha, mode, seed)
        got = [play.success_probability] + [bv._success(r) for r in limits]
    for value, realization in zip(got, [play.realization] + limits):
        assert value == oracles.hadamard_probability(bv.noisy_oracle(realization), alpha)


@pytest.mark.parametrize("mode", bv.NOISE_MODES)
@pytest.mark.parametrize("n", [17, 18])
def test_chunked_play_above_the_chunk_is_the_built_states_entry(n, mode):
    # 2 and 4 chunks of 2**16 amplitudes; alpha (1 << n) - (1 << 16) has its
    # low 16 bits clear, so it flips whole chunks and nothing within one
    assert kernels._CHUNK == 1 << 16
    for alpha in (1, (1 << n) - (1 << 16), (1 << n) - 1, 0x15555 & ((1 << n) - 1)):
        play = bv.run_game(n, alpha, mode, seed=n + alpha)
        want = oracles.hadamard_probability(bv.noisy_oracle(play.realization), alpha)
        assert play.success_probability == want


def test_run_game_is_deterministic():
    a = bv.run_game(5, 7, bv.INDEPENDENT, seed=123)
    b = bv.run_game(5, 7, bv.INDEPENDENT, seed=123)
    assert a.success_probability == b.success_probability
    assert a.realization.unflipped.size > 0
    assert np.array_equal(a.realization.unflipped, b.realization.unflipped)


def test_exact_success_endpoints():
    assert bv.exact_success(5, 0) == 1.0
    assert bv.exact_success(5, 1 << 4) == 0.0
    assert bv.exact_success(5, 1 << 3) == 0.25
    with pytest.raises(ValueError):
        bv.exact_success(5, (1 << 4) + 1)
    with pytest.raises(ValueError):
        bv.exact_success(5, -1)


def test_independent_exhaustive_mean_values():
    # 3/8, 5/16 and 9/32 for every alpha, bit for bit as scoring each draw's
    # whole state gave them; at n = 3 the inexact 2**(-3/2) leaves 5/16 one
    # ulp high
    want = {2: "0x1.8p-2", 3: "0x1.4000000000001p-2", 4: "0x1.2p-2"}
    for n, value in want.items():
        for alpha in range(1, 1 << n):
            assert bv.independent_exhaustive_mean(n, alpha) == float.fromhex(value)
    with pytest.raises(ValueError):
        bv.independent_exhaustive_mean(5, 1)


def test_independent_monte_carlo_mean_tracks_formula():
    n, trials = 10, 2000
    children = np.random.SeedSequence(2718).spawn(trials)
    values = np.array(
        [bv.run_game(n, 3, bv.INDEPENDENT, s).success_probability for s in children]
    )
    want = 0.25 + 2.0 ** -(n + 1)
    standard_error = values.std(ddof=1) / math.sqrt(trials)
    assert abs(values.mean() - want) <= 4 * standard_error


def test_baseline_values_and_y_independence():
    assert abs(bv.single_reflection_baseline(3, 1, 1) - 0.0625) < ATOL
    assert abs(bv.single_reflection_baseline(2, 1, 1) - 0.25) < ATOL
    values = {
        round(bv.single_reflection_baseline(3, 1, int(y)), 15)
        for y in bv.flip_candidates(3, 1)
    }
    assert len(values) == 1
    with pytest.raises(ValueError, match="y . alpha"):
        bv.single_reflection_baseline(3, 1, 2)


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(2, 14),
    alpha_rank=st.integers(0, 2**14),
    y_ranks=st.lists(st.integers(0, 2**13), min_size=1, max_size=20),
)
def test_baseline_is_the_built_states_transform_entry(n, alpha_rank, y_ranks):
    # bit for bit the pipeline it replaced: the uniform state with entry y
    # negated, built, then its one transform entry on alpha
    alpha = 1 + alpha_rank % ((1 << n) - 1)
    eligible = oracles.flip_candidates_popcount(n, alpha)
    for rank in y_ranks:
        y = int(eligible[rank % eligible.size])
        state = oracles.uniform_state_with_flip(n, y)
        want = oracles.hadamard_probability(state, alpha)
        assert bv.single_reflection_baseline(n, alpha, y) == want


def test_combined_game_beats_single_reflections():
    # strict separation from n=3 up; n=2 is the boundary where both equal 1/4
    for n in range(3, 11):
        assert 0.25 > 4.0 / 4.0**n
    assert 4.0 / 4.0**2 == 0.25


def test_draw_realization_modes():
    rng = np.random.default_rng(1)
    assert bv.draw_realization(4, 5, bv.NOISELESS, rng).unflipped.size == 0
    fixed = bv.draw_realization(4, 5, bv.FIXED_HALF, rng)
    assert fixed.unflipped.size == 4
    assert set(fixed.unflipped.tolist()) <= set(bv.flip_candidates(4, 5).tolist())
    assert np.all(np.diff(fixed.unflipped) > 0)
    with pytest.raises(ValueError, match="mode"):
        bv.draw_realization(4, 5, "half", rng)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 12),
    alpha_rank=st.integers(0, 2**12 - 2),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(bv.NOISE_MODES),
)
def test_draws_equal_choice_over_the_listed_candidates(n, alpha_rank, seed, mode):
    # rank-space draws keep the stdout of drawing from the listed candidates;
    # this pins numpy's choice(a) == a[choice(len(a))] and the coin stream.
    # Nothing re-checks a draw at run time, so every mode's is checked here:
    # sorted without repeats, int64 and read-only
    alpha = 1 + alpha_rank % ((1 << n) - 1)
    cands = oracles.flip_candidates_popcount(n, alpha)
    half = cands.size
    rng = np.random.default_rng(seed)
    if mode == bv.NOISELESS:
        want = cands[:0]
    elif mode == bv.FIXED_HALF:
        want = np.sort(rng.choice(cands, size=half // 2, replace=False))
    else:
        want = cands[rng.integers(0, 2, size=half).astype(bool)]
    got = bv.draw_realization(n, alpha, mode, np.random.default_rng(seed)).unflipped
    assert np.array_equal(got, want)
    assert got.dtype == np.int64
    assert got.flags.writeable is False
    assert np.all(np.diff(got) > 0)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_play_peak_memory_at_22_qubits():
    # the draw's transients (rng.choice's 16 MiB int64 permutation and the
    # 8 MiB half it keeps; 16 MiB of int64 coins and their 2 MiB mask) set
    # the peak; the state is built and halved in 512 KiB chunks next to the
    # 8 MiB unflipped indices.  Holding the 32 MiB state peaked at 40.4 MiB.
    # A small play first, so that numpy modules imported on first use are
    # not counted
    bv.run_game(4, 5, bv.FIXED_HALF, seed=1)
    for mode in (bv.FIXED_HALF, bv.INDEPENDENT):
        for alpha in (1, 5):
            peak = _traced_peak(lambda: bv.run_game(22, alpha, mode, seed=1))
            assert peak < 25 * 2**20


def test_eligible_peak_memory_at_22_qubits():
    # slices of 2**16 ranks; mapping all 2**21 at once allocated 18 MiB
    ranks = np.arange(1 << 21, dtype=np.int64)
    assert _traced_peak(lambda: bv._eligible(5, ranks)) < 2**20


def test_eligible_slices_join_up():
    # with 8-rank slices the map crosses slices from n = 5 on
    with mock.patch.object(kernels, "_CHUNK", 8):
        for n in range(2, 9):
            for alpha in range(1, 1 << n):
                want = oracles.flip_candidates_popcount(n, alpha)
                assert np.array_equal(bv.flip_candidates(n, alpha), want)


def test_draw_peak_memory_at_22_qubits():
    # the 16 MiB int64 coins and their 2 MiB bool mask; re-sorting a copy of
    # the 8 MiB unflipped indices and re-checking it reach 25 MiB
    rng = np.random.default_rng(1)
    peak = _traced_peak(lambda: bv.draw_realization(22, 5, bv.INDEPENDENT, rng))
    assert peak < 21 * 2**20


def test_baseline_peak_memory_at_22_qubits():
    # the baseline follows its entry on two values; building the 32 MiB
    # state and reading its entry peaked at 56 MiB
    assert _traced_peak(lambda: bv.single_reflection_baseline(22, 5, 1)) < 2**20
