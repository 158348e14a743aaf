"""State-vector operations against dense-matrix oracles and known values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondo import kernels, reproduce, statevec

import oracles

ATOL = 1e-12


def random_unit(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def phase(v, alpha):
    """The phase oracle (-1)**(x . alpha), applied to a copy of v."""
    out = np.array(v, dtype=np.float64)
    kernels.parity_flip_inplace(out, alpha)
    return out


def test_uniform_state_values():
    assert np.allclose(statevec.uniform_state(1), [math.sqrt(0.5)] * 2, atol=ATOL)
    assert np.allclose(statevec.uniform_state(2), [0.5] * 4, atol=ATOL)
    assert abs(np.linalg.norm(statevec.uniform_state(10)) - 1.0) < ATOL


@pytest.mark.parametrize("n", [0, -1, 25, True, np.True_, 2.0])
def test_uniform_state_rejects_bad_qubit_count(n):
    with pytest.raises(ValueError, match="qubit count"):
        statevec.uniform_state(n)


def test_hadamard_of_zero_is_uniform():
    # exact: the transform of e_0 is all ones, scaled by the same 2**(-n/2)
    for n in range(1, 15):
        got = statevec.hadamard_all(oracles.basis_state(n, 0))
        assert np.array_equal(got, statevec.uniform_state(n))


def test_hadamard_single_qubit_values():
    plus = statevec.hadamard_all([1.0, 0.0])
    assert np.max(np.abs(plus - [math.sqrt(0.5), math.sqrt(0.5)])) < ATOL
    minus = statevec.hadamard_all([math.sqrt(0.5), -math.sqrt(0.5)])
    assert np.max(np.abs(minus - [0.0, 1.0])) < ATOL


def test_hadamard_does_not_mutate_input():
    v = random_unit(3, 5)
    keep = v.copy()
    statevec.hadamard_all(v)
    assert np.array_equal(v, keep)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_hadamard_probability_is_bit_identical_to_full_transform(n, seed):
    v = random_unit(n, seed)
    keep = v.copy()
    full = statevec.hadamard_all(v)
    for x in range(1 << n):
        assert oracles.hadamard_probability(v, x) == statevec.probability_of(full, x)
    assert np.array_equal(v, keep)


def test_hadamard_probability_rejects_bad_input():
    for bad in (8, -1):
        with pytest.raises(ValueError, match="out of range"):
            oracles.hadamard_probability(statevec.uniform_state(3), bad)
    with pytest.raises(ValueError, match="power of two"):
        oracles.hadamard_probability(np.ones(6), 0)


def test_parity_flip_identity_for_alpha_zero():
    v = random_unit(4, 1)
    assert np.array_equal(phase(v, 0), v)


def test_parity_flip_pattern():
    got = phase(statevec.uniform_state(2), 3)
    assert np.max(np.abs(got - [0.5, -0.5, -0.5, 0.5])) < ATOL


def test_flip_sign_at_values():
    got = statevec.flip_sign_at(oracles.basis_state(2, 0), 0)
    assert np.array_equal(got, [-1.0, 0.0, 0.0, 0.0])
    got = statevec.flip_sign_at(statevec.uniform_state(2), 1)
    assert np.max(np.abs(got - [0.5, -0.5, 0.5, 0.5])) < ATOL
    for bad in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            statevec.flip_sign_at(statevec.uniform_state(2), bad)


def test_diffusion_fixes_uniform_state():
    for n in (1, 2, 5):
        psi = statevec.uniform_state(n)
        assert np.max(np.abs(statevec.diffusion(psi) - psi)) < ATOL


def test_diffusion_of_basis_state():
    got = statevec.diffusion(oracles.basis_state(2, 0))
    assert np.max(np.abs(got - [-0.5, 0.5, 0.5, 0.5])) < ATOL


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_diffusion_in_place_is_diffusion(n, seed):
    # numpy's mean (its pairwise sum over the size), then 2m - v, bit for
    # bit; without out the input is not written, with out it is the result
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-300, 301, size=1 << n)
    keep = v.copy()
    want = 2.0 * float(keep.mean()) - keep
    got = statevec.diffusion(v)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(v.view(np.uint64), keep.view(np.uint64))
    assert statevec.diffusion(v, out=v) is v
    assert np.array_equal(v.view(np.uint64), want.view(np.uint64))


def test_probability_of():
    assert abs(statevec.probability_of(statevec.uniform_state(3), 5) - 0.125) < ATOL
    assert statevec.probability_of(oracles.basis_state(3, 2), 2) == 1.0
    v = random_unit(4, 9)
    total = sum(statevec.probability_of(v, x) for x in range(16))
    assert abs(total - 1.0) < ATOL


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_norm_preservation_and_involutions(n, seed):
    v = random_unit(n, seed)
    alpha = seed % (1 << n)
    transformed = {
        "hadamard": statevec.hadamard_all(v),
        "phase": phase(v, alpha),
        "flip": statevec.flip_sign_at(v, alpha),
        "diffusion": statevec.diffusion(v),
    }
    for name, w in transformed.items():
        assert abs(np.linalg.norm(w) - 1.0) < ATOL, name
    assert np.max(np.abs(statevec.hadamard_all(transformed["hadamard"]) - v)) < ATOL
    assert np.max(np.abs(phase(transformed["phase"], alpha) - v)) < ATOL
    assert np.max(np.abs(statevec.flip_sign_at(transformed["flip"], alpha) - v)) < ATOL
    assert np.max(np.abs(statevec.diffusion(transformed["diffusion"]) - v)) < ATOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operations_match_dense_matrices(n):
    v = random_unit(n, 40 + n)
    assert np.max(np.abs(statevec.hadamard_all(v) - oracles.dense_hadamard(n) @ v)) < ATOL
    for alpha in range(1 << n):
        want = oracles.dense_phase_oracle(n, alpha) @ v
        assert np.max(np.abs(phase(v, alpha) - want)) < ATOL
        assert (
            np.max(
                np.abs(statevec.flip_sign_at(v, alpha) - oracles.dense_flip(n, alpha) @ v)
            )
            < ATOL
        )
    assert np.max(np.abs(statevec.diffusion(v) - oracles.dense_diffusion(n) @ v)) < ATOL


def test_num_qubits_validation():
    assert statevec.num_qubits(np.zeros(8)) == 3
    for bad in (np.zeros(0), np.zeros(1), np.zeros(3), np.zeros(12)):
        with pytest.raises(ValueError):
            statevec.num_qubits(bad)


def test_sample_basis_is_seeded_and_concentrated():
    state = oracles.basis_state(3, 6)
    rng = np.random.default_rng(5)
    outcomes = statevec.sample_basis(state, 50, rng)
    assert np.all(outcomes == 6)
    again = statevec.sample_basis(state, 50, np.random.default_rng(5))
    assert np.array_equal(outcomes, again)
    with pytest.raises(ValueError):
        statevec.sample_basis(state, 0, rng)


def test_row_reduce_is_the_one_dimensional_sum():
    # reproduce's batched word application rests on this: numpy sums each
    # row of a C-contiguous array pairwise, as it sums that row alone
    rng = np.random.default_rng(4)
    for size in range(4, 1025):
        x = rng.standard_normal((3, size)) * 10.0 ** rng.integers(-8, 9, size=(3, size))
        got = np.add.reduce(x, axis=1)
        want = np.array([np.add.reduce(row) for row in x])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), size


def test_diffusion_of_a_stack_is_row_by_row():
    rng = np.random.default_rng(6)
    for n in range(1, 11):
        stack = rng.standard_normal((5, 1 << n))
        want = np.array([statevec.diffusion(row) for row in stack])
        assert np.array_equal(statevec.diffusion(stack).view(np.uint64), want.view(np.uint64))
        assert statevec.diffusion(stack, out=stack) is stack
        assert np.array_equal(stack.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ValueError, match="power of two"):
        statevec.diffusion(np.ones((4, 6)))


def _letter_by_letter(n, alpha, letters):
    state = statevec.uniform_state(n)
    for bit in letters:
        if bit:
            state[alpha] = -state[alpha]
        else:
            statevec.diffusion(state, out=state)
    return state


def _assert_batched_is_letter_by_letter(n, alphas, words):
    got = reproduce._apply_words(n, alphas, words)
    assert got.shape == (len(words), 1 << n)
    for state, alpha, letters in zip(got, alphas, words):
        want = _letter_by_letter(n, alpha, letters)
        assert np.array_equal(state.view(np.uint64), want.view(np.uint64))


def test_batched_words_are_letter_by_letter_on_the_rows_draws():
    draws = reproduce._word_draws()
    assert len(draws) == 200
    for n in (2, 3, 4):
        group = [(alpha, letters) for m, alpha, letters in draws if m == n]
        _assert_batched_is_letter_by_letter(n, *zip(*group))


@pytest.mark.parametrize("n", range(2, 11))
def test_batched_words_are_letter_by_letter(n):
    # words of every length from 1 to 200 among them, ending at different
    # positions; letters drawn with P(B) from 0.2 to 0.8
    rng = np.random.default_rng(n)
    lengths = [1, 200, *rng.integers(1, 201, size=10).tolist()]
    words = [(rng.random(size) < rng.uniform(0.2, 0.8)).astype(np.int64) for size in lengths]
    alphas = rng.integers(0, 1 << n, size=len(words)).tolist()
    _assert_batched_is_letter_by_letter(n, alphas, words)
