"""Numeric kernels against hand values and their loop references."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parrondo import kernels

import oracles


def test_backend_is_declared():
    assert kernels.BACKEND == "numpy"


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


@settings(deadline=None, max_examples=300)
@example(bits=[], level=3, target=4)  # size 0
@example(bits=[1, 0], level=5, target=3)  # target below the start level
@example(bits=[0, 0], level=2, target=2)  # target at the start level
@example(bits=[1, 0, 1, 0], level=0, target=4)  # hit on the last letter
@example(bits=[0, 0, 0, 1, 1, 0], level=0, target=2)  # reflection at level 0
@given(
    bits=st.lists(st.integers(0, 1), max_size=400),
    level=st.integers(0, 30),
    target=st.integers(0, 30),
)
def test_push_letters_matches_loop_reference(bits, level, target):
    bits = np.array(bits, dtype=np.uint8)
    assert kernels.push_letters_until(bits, level, target) == oracles.push_letters_loops(
        bits, level, target
    )


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
