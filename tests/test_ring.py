"""Wheel games: exact values, solver behaviour, and Monte Carlo agreement."""

import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrondo import reproduce, ring

import oracles


def test_combined_game_validation():
    for moduli in ((3,), (31,), (3, 7), [3, 7]):
        assert ring.CombinedRingGame(moduli).moduli == tuple(moduli)
    # each modulus is checked as it is, so nothing is coerced to 3
    for bad in (2, 1, 0, -3, 4, 3.0, 3.9, "3", True, np.int64(3), np.int32(7)):
        for moduli in ((bad,), (bad, 7), (5, bad)):
            with pytest.raises(ValueError, match="odd integer"):
                ring.CombinedRingGame(moduli)
    for moduli, pair in (((3, 9), "gcd(3, 9) = 3"), ((3, 3), "gcd(3, 3) = 3"),
                         ((5, 7, 3, 21), "gcd(7, 21) = 7")):
        with pytest.raises(ValueError, match=f"coprime: {re.escape(pair)}"):
            ring.CombinedRingGame(moduli)
    with pytest.raises(ValueError, match="at least one modulus"):
        ring.CombinedRingGame(())


def test_coprime_check_is_linear_in_the_game_count():
    # one gcd per modulus against the running product, where a pairwise
    # check makes 1.3e8 gcds on 16,000 primes
    primes = oracles.odd_primes(16_000)
    start = time.perf_counter()
    game = ring.CombinedRingGame(primes)
    assert time.perf_counter() - start < 2.0
    assert len(game.moduli) == 16_000


def test_combined_game_properties():
    game = ring.CombinedRingGame((3, 7, 11))
    assert game.moduli == (3, 7, 11)
    assert game.modulus_product == 231


def test_winning_positions_small_cases():
    assert oracles.winning_positions(3) == frozenset({0})
    assert oracles.winning_positions(21) == frozenset(range(6)) | frozenset(range(16, 21))
    assert ring.winning_count(3) == 1
    assert ring.winning_count(21) == 11
    assert ring.winning_count(77) == 39
    with pytest.raises(ValueError):
        ring.winning_count(4)
    with pytest.raises(ValueError):
        ring.winning_count(1)


@settings(deadline=None)
@given(st.integers(1, 499).map(lambda v: 2 * v + 1))
def test_winning_count_matches_cosine_and_closed_form(modulus):
    count = ring.winning_count(modulus)
    assert count == oracles.cos_winning_count(modulus)
    assert count == len(oracles.winning_positions(modulus))


def test_transition_matrix_combined_values():
    matrix = ring.transition_matrix(ring.CombinedRingGame((3, 7)))
    assert matrix.size == 21
    # staying put picks up the a=0 branch of both games
    assert matrix.entry(0, 0) == Fraction(1, 6) + Fraction(1, 14) == Fraction(5, 21)
    assert all(matrix.entry(j, j) == Fraction(5, 21) for j in range(21))
    # a step of game A (m=3) moves by multiples of 7
    assert matrix.entry(0, 7) == Fraction(1, 6)
    assert matrix.entry(0, 3) == Fraction(1, 14)
    assert [sum(matrix.entry(i, j) for i in range(21)) for j in range(21)] == [1] * 21


def test_transition_matrix_single_game_rows_are_uniform():
    matrix = ring.transition_matrix(ring.CombinedRingGame((3,)))
    rows = [[matrix.entry(i, j) for j in range(3)] for i in range(3)]
    assert rows == [[Fraction(1, 3)] * 3 for _ in range(3)]


def test_rate_report_invariant():
    assert ring.RateReport(Fraction(11, 21), 11).rate == Fraction(1, 21)


def test_stationary_distribution_uniform_cases():
    for moduli in ((3, 7), (7,), (7, 11)):
        game = ring.CombinedRingGame(moduli)
        weight = ring.stationary_distribution(ring.transition_matrix(game))
        assert weight == Fraction(1, game.modulus_product)


def _dense_rows(matrix):
    return [
        [matrix.entry(i, j) for j in range(matrix.size)] for i in range(matrix.size)
    ]


def test_dense_solver_agrees_with_the_uniform_law():
    # the oracle's Gauss-Jordan solution of pi P = pi, sum(pi) = 1, must be
    # the uniform law the package returns without solving anything
    for moduli in ((3,), (5,), (3, 7), (3, 11)):
        matrix = ring.transition_matrix(ring.CombinedRingGame(moduli))
        weight = ring.stationary_distribution(matrix)
        assert [weight] * matrix.size == oracles.exact_stationary(_dense_rows(matrix))


@st.composite
def constructible_games(draw, limit=60):
    """Pairwise coprime odd moduli, in drawn order, whose product is at most limit."""
    moduli = []
    while True:
        room = limit // math.prod(moduli)
        fits = [
            m for m in range(3, room + 1, 2) if all(math.gcd(m, k) == 1 for k in moduli)
        ]
        if not fits or (moduli and not draw(st.booleans())):
            return tuple(moduli)
        moduli.append(draw(st.sampled_from(fits)))


@settings(deadline=None, max_examples=25)
@given(constructible_games())
def test_combined_rate_is_the_oracle_law_on_the_winning_arc(moduli):
    # neither TransitionMatrix nor the closed forms check the offset law: for
    # every constructible game it lies on Z_M, sums to 1 and generates Z_M,
    # so the uniform stationary law is the only one
    game = ring.CombinedRingGame(moduli)
    matrix = ring.transition_matrix(game)
    M = game.modulus_product
    assert math.gcd(M, *matrix.offsets) == 1
    assert all(0 <= off < M for off in matrix.offsets)
    assert sum(matrix.offsets.values()) == 1
    law = oracles.exact_stationary(_dense_rows(matrix))
    assert [ring.stationary_distribution(matrix)] * M == law
    on_arc = sum(law[j] for j in oracles.winning_positions(M))
    assert ring.combined_rate(game).win_probability == on_arc


def test_exact_side_memory_does_not_grow_with_the_ring():
    # M = 255,255; an M-entry Fraction law and winning set would take 15.8 MB
    game = ring.CombinedRingGame((3, 5, 7, 11, 13, 17))
    tracemalloc.start()
    try:
        ring.combined_rate(game)
        ring.stationary_distribution(ring.transition_matrix(game))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_single_game_rates():
    assert ring.single_game_rate(3).rate == Fraction(-1, 3)
    assert ring.single_game_rate(7).rate == Fraction(-1, 7)
    five = ring.single_game_rate(5)
    assert five.rate == Fraction(1, 5)
    assert five.win_probability == Fraction(3, 5)


def test_combined_rate_flagship_pair():
    report = ring.combined_rate(ring.CombinedRingGame((3, 7)))
    assert report.win_probability == Fraction(11, 21)
    assert report.rate == Fraction(1, 21)
    assert report.winning_count == 11


def test_combined_rate_other_pairs():
    assert ring.combined_rate(
        ring.CombinedRingGame((7, 11))
    ).rate == Fraction(1, 77)
    assert ring.combined_rate(
        ring.CombinedRingGame((3, 11))
    ).rate == Fraction(1, 33)


def test_combined_rate_four_games():
    report = ring.combined_rate(ring.CombinedRingGame((3, 7, 11, 19)))
    assert report.rate == Fraction(1, 4389)
    assert report.win_probability == Fraction(2195, 4389)


LISTED_SWEEP_PAIRS = [
    (3, 7), (3, 11), (3, 19), (3, 23), (3, 31),
    (7, 11), (7, 19), (7, 23), (7, 31),
    (11, 19), (11, 23), (11, 31),
    (19, 23), (19, 31), (23, 31),
]


def test_parrondo_effect_spot_checks():
    # every pair of reproduce's sweep, which holds the listed pairs
    pairs = reproduce.sweep_pairs()
    assert len(pairs) == 25
    assert set(LISTED_SWEEP_PAIRS) <= set(pairs)
    start = time.perf_counter()
    for m, n in pairs:
        assert ring.single_game_rate(m).rate == Fraction(-1, m)
        assert ring.single_game_rate(n).rate == Fraction(-1, n)
        combined = ring.combined_rate(ring.CombinedRingGame((m, n)))
        assert combined.rate == Fraction(1, m * n) > 0
    assert time.perf_counter() - start < 10.0


def test_simulate_ring_is_deterministic():
    game = ring.CombinedRingGame((3, 7))
    a = ring.simulate_ring(game, 10_000, seed=42)
    b = ring.simulate_ring(game, 10_000, seed=42)
    assert a == b
    assert a != ring.simulate_ring(game, 10_000, seed=43)


def test_simulate_ring_single_step_zero_rotation_wins():
    # a zero rotation keeps the pointer at position 0, which is winning;
    # scan for a seed whose first draw is the a=0 rotation
    game = ring.CombinedRingGame((3,))
    for seed in range(200):
        rng = np.random.default_rng(seed)
        rng.integers(0, 1, size=1)  # game choice, consumed first
        if int(rng.integers(0, np.array([3]))[0]) == 0:
            report = ring.simulate_ring(game, 1, seed)
            assert report.win_probability == Fraction(1)
            assert report.winning_count == 1
            return
    pytest.fail("no seed with a zero first rotation in range")


def test_simulate_ring_converges_to_exact_probability():
    game = ring.CombinedRingGame((3, 7))
    steps = 10**5
    p = 11 / 21
    se = math.sqrt(p * (1 - p) / steps)
    freq = float(ring.simulate_ring(game, steps, seed=2024).win_probability)
    assert abs(freq - p) <= 4 * se


def _block_edges(block):
    return (block - 1, block, block + 1, 3 * block + 7)


# (3,) draws its choices with bound 1, which takes no word, and (3, 5, 7, 11)
# with bound 4, a power of two, which never redraws
@pytest.mark.parametrize(
    "moduli",
    [(3,), (3, 7), (3, 5, 7), (3, 5, 7, 11, 13), (5, 9, 7), (3, 5, 7, 11), (3, 5, 7, 11, 13, 17)],
)
def test_streamed_walk_matches_one_shot_walk(moduli):
    # the streamed walk plays the very trajectory of one long draw
    game = ring.CombinedRingGame(moduli)
    for steps in (1, 2, *_block_edges(ring._WALK_BLOCK)):
        for seed in (0, 3):
            report = ring.simulate_ring(game, steps, seed)
            assert report.winning_count == oracles.simulate_ring_one_shot(
                moduli, steps, seed
            ), (steps, seed)


@pytest.mark.parametrize("block", [33, 4097])
def test_streamed_walk_does_not_depend_on_the_block_size(monkeypatch, block):
    monkeypatch.setattr(ring, "_WALK_BLOCK", block)
    for moduli in ((3, 7), (3, 5, 7, 11, 13)):
        game = ring.CombinedRingGame(moduli)
        for steps in _block_edges(block):
            for seed in (1, 2):
                report = ring.simulate_ring(game, steps, seed)
                assert report.winning_count == oracles.simulate_ring_one_shot(
                    moduli, steps, seed
                ), (moduli, steps, seed)


def _position(rng):
    """Where a Generator stands: its PCG64 state and whether a spare half waits."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"]


def _position_at(seed, at):
    """Where numpy stands after at words: ceil(at / 2) raw words, a spare half if at is odd."""
    bits = np.random.PCG64(seed)
    bits.advance(-(-at // 2))
    return bits.state["state"], at % 2


@settings(deadline=None, max_examples=200)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(
        st.tuples(
            st.one_of(
                st.just(1),
                st.integers(2, 40),
                # (2**32 - b) % b = 2**32 - b here: up to half the words are redrawn
                st.integers(2**31, 2**32),
                st.lists(st.integers(2, 2**32), min_size=1, max_size=4),
            ),
            st.integers(0, 33),
        ),
        max_size=8,
    ),
)
@example(0, [(1, 5), (7, 3)])
@example(1, [(5, 3), (5, 1), (2**31 + 1, 33)])
@example(2, [([2**31 + 1, 3], 31), (1, 2), ([3, 7], 9)])
def test_words_draw_what_integers_draws(seed, calls):
    # simulate_ring relies on _Words giving numpy's bounded int64 draws: low
    # uint32 half first, the spare half kept across calls, Lemire's redraw,
    # and no word taken for a bound of 1
    rng = np.random.default_rng(seed)
    words = ring._Words(seed)
    pick = np.random.default_rng(seed + 1)
    for bound, size in calls:
        if isinstance(bound, list):
            bounds = np.array(bound, dtype=np.int64)
            index = pick.integers(0, bounds.size, size=size)
            want = rng.integers(0, bounds[index])
            got = words.bounded(bounds.astype(np.uint64), size, index)
        else:
            want = rng.integers(0, bound, size=size)
            got = words.bounded(bound, size)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (bound, size)
        assert _position(rng) == _position_at(seed, words.at), (bound, size)
    # both streams stand at the same word, spare half included
    assert np.array_equal(words.bounded(2**32, 3), rng.integers(0, 2**32, size=3))


@settings(deadline=None, max_examples=200)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(1, 6),
    st.integers(0, 3),
    st.one_of(st.integers(0, 300), st.integers(2**16 - 2, 2**16 + 2)),
)
@example(0, 2, 1, 7)  # a pending spare half, then an odd count
@example(1, 4, 0, 8)
@example(2, 3, 1, 0)
@example(3, 6, 0, 2**16 + 1)  # the scan crosses a _WALK_BLOCK boundary
def test_skip_leaves_the_stream_where_integers_leaves_it(seed, games, before, count):
    # simulate_ring's rotation stream starts where the seed's choices end
    rng = np.random.default_rng(seed)
    words = ring._Words(seed)
    assert np.array_equal(words.bounded(2**32, before), rng.integers(0, 2**32, size=before))
    rng.integers(0, games, size=count)
    words.skip(games, count)
    assert _position(rng) == _position_at(seed, words.at)
    assert np.array_equal(words.bounded(2**32, 5), rng.integers(0, 2**32, size=5))


class _FixedBits:
    """A stand-in for PCG64 whose raw uint64 words come, low half first, from halves.

    Its state is a cursor into those words, so restoring the seeded state
    rewinds it; read is the furthest raw word handed out.
    """

    def __init__(self, halves):
        self.raw = np.array(halves, dtype="<u4").view("<u8")
        self.state = 0
        self.read = 0

    def random_raw(self, size):
        self.state += size
        self.read = max(self.read, self.state)
        return self.raw[self.state - size : self.state]

    def advance(self, delta):
        self.state += delta


def _fixed_bits(monkeypatch, halves):
    """Make every new PCG64 a _FixedBits over halves; returns those made."""
    made = []

    def make(seed):
        made.append(_FixedBits(halves))
        return made[-1]

    monkeypatch.setattr(np.random, "PCG64", make)
    return made


@pytest.mark.parametrize("games, rejected", [(3, 0), (5, 0), (6, 0), (6, 2**31), (6, 715827883)])
@pytest.mark.parametrize("before", [0, 1])
@pytest.mark.parametrize("count", [5, 6])
def test_skip_passes_rejected_words_as_bounded_does(
    monkeypatch, games, rejected, before, count
):
    assert rejected * games % 2**32 < (2**32 - games) % games
    halves = np.arange(1, 41) * 97_654_321 % 2**32
    halves[[1, 2, 6]] = rejected  # rejected words early, back to back, and after a spare half
    fakes = _fixed_bits(monkeypatch, halves)
    want, got = ring._Words(0), ring._Words(0)
    for words in (want, got):
        words.bounded(2**32, before)
    want.bounded(games, count)
    got.skip(games, count)
    assert np.array_equal(got.bounded(2**32, 9), want.bounded(2**32, 9))
    # both streams read the fixed words, past raw word 3 that holds half 6
    assert [fake.read > 3 for fake in fakes] == [True, True]


def test_simulate_ring_reads_each_random_word_once(monkeypatch):
    # the rotation stream seeks past the choices instead of drawing them, so
    # each raw word feeds two choices or two rotations; a rotation read that
    # starts inside a raw word seeks again and re-draws it, once a block
    drawn, seeks = [], []

    class CountingPCG64(np.random.PCG64):
        def random_raw(self, size=None, output=True):
            drawn.append(size)
            return super().random_raw(size, output)

        def advance(self, delta):
            seeks.append(delta)
            return super().advance(delta)

    monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
    steps = 3 * ring._WALK_BLOCK + 5
    ring.simulate_ring(ring.CombinedRingGame((3, 7)), steps, 1)
    # half the choices plus half the rotations, a spare half each and rare redraws
    assert steps <= sum(drawn) <= steps + 4
    assert len(seeks) <= -(-steps // ring._WALK_BLOCK) + 1


def test_simulate_ring_memory_does_not_grow_with_steps():
    # one-shot draws peak near 41 MB at 10**6 steps; a 2**16-step block takes 3 MB
    game = ring.CombinedRingGame((3, 7))
    tracemalloc.start()
    try:
        ring.simulate_ring(game, 10**6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6


def test_simulate_ring_memory_does_not_grow_with_the_ring():
    # the walk holds nothing M-sized: at M = 255,255 one int64 array of the
    # positions alone would take 2 MB
    def peak(moduli):
        game = ring.CombinedRingGame(moduli)
        tracemalloc.start()
        try:
            ring.simulate_ring(game, 10**5, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak((3, 5, 7, 11, 13, 17)) <= peak((3, 7)) + 2**19


@pytest.mark.parametrize(
    "moduli, frequency, steps",
    [
        ((3, 7), Fraction(5, 9), 900),
        ((3,), Fraction(1, 4), 8),
        ((3, 5, 7, 11, 13, 17), Fraction(1, 2), 10**6),
    ],
)
def test_win_frequency_z_is_the_binomial_score(moduli, frequency, steps):
    M = math.prod(moduli)
    p = (2 * (M // 4) + 1) / M
    standard_error = math.sqrt(p * (1 - p) / steps)
    game = ring.CombinedRingGame(moduli)
    assert ring.win_frequency_z(game, frequency, steps) == (
        standard_error,
        (float(frequency) - p) / standard_error,
    )


def test_simulate_ring_rejects_bad_steps():
    game = ring.CombinedRingGame((3, 7))
    with pytest.raises(ValueError):
        ring.simulate_ring(game, 0, seed=1)


def test_simulate_ring_refuses_rings_past_the_walk_limit():
    # a modulus of 2**31 + 1 redraws about half its words, and every redraw
    # seeks and re-reads the rest of its block, so the walk would grow quadratically
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds the limit of {ring.MAX_POSITIONS} positions"):
        ring.simulate_ring(ring.CombinedRingGame((2**31 + 1,)), 2_000, seed=1)
    with pytest.raises(ValueError, match="limit"):
        ring.simulate_ring(ring.CombinedRingGame((ring.MAX_POSITIONS + 1,)), 2_000, seed=1)
    assert time.perf_counter() - start < 0.1
    for moduli in ((ring.MAX_POSITIONS - 1,), (3, 5, 7, 11, 13, 17)):
        report = ring.simulate_ring(ring.CombinedRingGame(moduli), 2_000, seed=1)
        assert 0 < report.winning_count < 2_000
