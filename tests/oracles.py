"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately naive: dense matrices built with np.kron,
float trigonometry, full Gaussian elimination over Fractions, and a symbolic
word reducer that stores actual letters.  None of it shares code paths with
the package.
"""

import math
from fractions import Fraction

import numpy as np


def dense_hadamard(n):
    """H^(x)n as a dense 2**n x 2**n matrix via Kronecker products."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(n):
        out = np.kron(out, h1)
    return out


def fwht_butterfly_loop(amps):
    """Unnormalised Walsh-Hadamard transform, one Python butterfly at a time.

    Every output is the same a + b or a - b of the same float64 operands as
    in a vectorised stage, so the result is bit-identical to any correct
    butterfly implementation.
    """
    values = [float(v) for v in amps]
    size = len(values)
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            for j in range(start, start + h):
                a, b = values[j], values[j + h]
                values[j], values[j + h] = a + b, a - b
        h *= 2
    return np.array(values)


def parity_flip_popcount(amps, mask):
    """Negate, in place, the amplitudes at indices with odd popcount(index & mask).

    One pass over an index array and its popcounts: the straightforward form
    of kernels.parity_flip_inplace, which works on strided views instead.
    """
    idx = np.arange(amps.size, dtype=np.uint64)
    odd = (np.bitwise_count(idx & np.uint64(mask)) & 1).astype(bool)
    amps[odd] *= -1.0


def dense_phase_oracle(n, alpha):
    """Diagonal (-1)**(x . alpha) matrix."""
    signs = [(-1.0) ** bin(x & alpha).count("1") for x in range(1 << n)]
    return np.diag(signs)


def dense_flip(n, y):
    """Identity with the (y, y) entry negated."""
    mat = np.eye(1 << n)
    mat[y, y] = -1.0
    return mat


def dense_diffusion(n):
    """2 J / 2**n - I, the reflection about the uniform vector."""
    size = 1 << n
    return 2.0 * np.full((size, size), 1.0 / size) - np.eye(size)


def cos_winning_count(modulus):
    """Count wheel positions in the open upper half-circle with float cosine."""
    return sum(
        1 for j in range(modulus) if math.cos(2.0 * math.pi * j / modulus) > 0.0
    )


def symbolic_push(word, letter):
    """Prepend a letter to a reduced letter list and re-reduce.

    Cancels an equal leftmost pair (both letters are involutions) and absorbs
    a lone trailing B into the start state.
    """
    word = [letter] + list(word)
    if len(word) >= 2 and word[0] == word[1]:
        word = word[2:]
    if word == ["B"]:
        word = []
    return word


def _solve_fraction(matrix, rhs):
    """Solve matrix @ x = rhs over Fractions with plain Gauss-Jordan elimination."""
    size = len(rhs)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[size] for row in aug]


def fraction_rank(matrix):
    """Rank of a matrix of Fractions by plain row reduction."""
    rows = [list(row) for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = Fraction(rows[r][col]) / rows[rank][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exact_stationary(rows):
    """Stationary law of the dense stochastic matrix `rows`: pi P = pi, sum(pi) = 1.

    The equations of (P^T - I) pi = 0 sum to zero, so for an irreducible chain
    the last one is redundant; it is replaced by the normalisation row.
    """
    size = len(rows)
    lhs = [
        [rows[j][i] - (i == j) for j in range(size)] for i in range(size - 1)
    ]
    lhs.append([Fraction(1)] * size)
    return _solve_fraction(lhs, [Fraction(0)] * (size - 1) + [Fraction(1)])


def _lazy_walk(level):
    """Transient block P of the lazy-reflected +-1 walk absorbed at `level`, and I - P.

    The transient states are 0 .. level-1.  From i > 0 the walk moves to i-1
    or i+1 with probability 1/2 each; from 0 it stays or moves to 1.
    """
    half = Fraction(1, 2)
    step = [[Fraction(0)] * level for _ in range(level)]
    step[0][0] = half
    for i in range(level):
        for j in (i - 1, i + 1):
            if 0 <= j < level:
                step[i][j] = half
    lhs = [
        [Fraction(int(i == j)) - step[i][j] for j in range(level)]
        for i in range(level)
    ]
    return step, lhs


def exact_hitting_time(level):
    """Expected steps for the lazy-reflected +-1 walk to first reach `level`.

    First-step analysis over Fractions: (I - P) E = 1.
    """
    _, lhs = _lazy_walk(level)
    return _solve_fraction(lhs, [Fraction(1)] * level)[0]


def exact_hitting_time_variance(level):
    """Variance of the steps for the lazy-reflected +-1 walk to first reach `level`.

    The time T is 1 + T' for the time T' left after the first step, so the
    second moments S solve (I - P) S = 1 + 2 P E.
    """
    step, lhs = _lazy_walk(level)
    first = _solve_fraction(lhs, [Fraction(1)] * level)
    rhs = [1 + 2 * sum(p * e for p, e in zip(row, first)) for row in step]
    second = _solve_fraction(lhs, rhs)
    return second[0] - first[0] ** 2


def push_letters_loops(bits, level, target):
    """Reference letter automaton: one Python step per letter.

    bits: 1 = A (sign flip at the target index), 0 = B (diffusion).  Same
    contract as kernels.push_letters_until.
    """
    for t in range(bits.size):
        if bits[t] == 1:
            level = level - 1 if level & 1 else level + 1
        elif level & 1:
            level += 1
        elif level > 0:
            level -= 1
        if level == target:
            return t + 1, level, True
    return bits.size, level, False


def bv_success_dense(n, alpha, unflipped):
    """Success of the noisy three-step sequence, via dense matrices only."""
    size = 1 << n
    hadamard = dense_hadamard(n)
    state = np.zeros(size)
    state[0] = 1.0
    state = hadamard @ state
    for x in range(size):
        if bin(x & alpha).count("1") % 2 == 1 and x not in unflipped:
            state[x] = -state[x]
    state = hadamard @ state
    return float(state[alpha] ** 2)
