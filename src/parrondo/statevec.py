"""Real-amplitude state vectors and the operators the quantum games use.

Every operator here (Hadamard layer, single-index sign flips, diffusion) is
real orthogonal, so amplitudes are plain float64 arrays of length 2**n.
Functions never write their inputs and return fresh arrays, except where a
caller passes diffusion an out= buffer, which may be the input itself.
"""

from __future__ import annotations

import numpy as np

from . import kernels

# a dense float64 state of 2**24 amplitudes is 128 MiB, and grover holds
# one; a bv play builds its state in 512 KiB chunks instead, so `bv -n 24
# --format json` peaks near 132 MB RSS, mostly its noise draw's 96 MiB
MAX_QUBITS = 24

__all__ = [
    "MAX_QUBITS",
    "num_qubits",
    "uniform_state",
    "hadamard_all",
    "hadamard_probability",
    "flip_sign_at",
    "diffusion",
    "probability_of",
    "sample_basis",
]


def num_qubits(state) -> int:
    """Qubit count of a state vector; rejects lengths that are not 2**n, n >= 1."""
    size = int(np.size(state))
    n = size.bit_length() - 1
    if n < 1 or (1 << n) != size:
        raise ValueError(f"state length {size} is not a power of two >= 2")
    return n


def _check_qubit_count(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not (1 <= n <= MAX_QUBITS):
        raise ValueError(f"qubit count must be an integer in [1, {MAX_QUBITS}], got {n!r}")


def _check_index(n: int, x: int) -> None:
    if not (0 <= x < (1 << n)):
        raise ValueError(f"basis index {x} out of range for {n} qubits")


def uniform_state(n: int) -> np.ndarray:
    """Equal superposition over all 2**n basis states."""
    _check_qubit_count(n)
    return np.full(1 << n, 2.0 ** (-n / 2.0))


def hadamard_all(state) -> np.ndarray:
    """Apply a Hadamard to every qubit (normalised fast Walsh-Hadamard transform)."""
    out = np.array(state, dtype=np.float64, copy=True)
    n = num_qubits(out)
    kernels.fwht_inplace(out)
    out *= 2.0 ** (-n / 2.0)
    return out


def hadamard_probability(state, x: int) -> float:
    """Probability of outcome x after a Hadamard on every qubit.

    Equals probability_of(hadamard_all(state), x) bit for bit, but computes
    only the one transform entry (kernels.fwht_entry): O(2**n) work, under
    1 MiB of scratch at any size, and neither the input copy nor the full
    output is built.  A bv play scores its oracle's state the same way from
    chunks it builds one at a time, without the state.
    """
    arr = np.asarray(state, dtype=np.float64)
    n = num_qubits(arr)
    _check_index(n, x)
    amplitude = kernels.fwht_entry(arr, x) * 2.0 ** (-n / 2.0)
    return float(amplitude**2)


def flip_sign_at(state, y: int) -> np.ndarray:
    """Negate the single amplitude at basis index y."""
    out = np.array(state, dtype=np.float64, copy=True)
    n = num_qubits(out)
    _check_index(n, y)
    out[y] = -out[y]
    return out


def diffusion(state, out=None) -> np.ndarray:
    """Reflect about the uniform superposition: v -> 2|psi><psi|v - v.

    With |psi> uniform this is elementwise 2*mean(v) - v.  The mean is
    numpy's: the same pairwise sum, then the same division by the size,
    without mean's Python wrapper.  The result goes into out when given, a
    float64 array of the state's shape that may be the state itself.
    """
    arr = np.asarray(state, dtype=np.float64)
    num_qubits(arr)
    mean = float(np.add.reduce(arr)) / arr.size
    return np.subtract(2.0 * mean, arr, out=out)


def probability_of(state, x: int) -> float:
    """Measurement probability of basis outcome x: squared amplitude."""
    arr = np.asarray(state, dtype=np.float64)
    n = num_qubits(arr)
    _check_index(n, x)
    return float(arr[x] ** 2)


def sample_basis(state, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw computational-basis measurement outcomes from the state.

    Demonstration helper for the CLI; analyses use exact amplitudes instead.
    """
    arr = np.asarray(state, dtype=np.float64)
    num_qubits(arr)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = arr * arr
    p = p / p.sum()
    return rng.choice(arr.size, size=shots, p=p)
