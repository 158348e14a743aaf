"""Acceptance suite: each headline criterion asserts the reproduce rows that carry it.

reproduce.run_all runs once for the module, so every number is derived in one
place.  Each row prints a PASS line on success (visible with -s or in -v
listings), so the whole family of claims can be audited in one run.
"""

import pytest

from parrondo import reproduce

# reproduce's row ids, in its order, under the criterion each row carries
CRITERIA = {
    1: ("ring-rate-3", "ring-rate-7"),
    2: (
        "ring-combined-win",
        "ring-combined-rate",
        "ring-doubly-stochastic",
        "ring-stationary-uniform",
    ),
    3: ("ring-sweep",),
    4: ("ring-monte-carlo",),
    5: ("bv-fixed-half", "bv-independent-mean"),
    6: ("bv-baseline",),
    7: ("quantum-identities", "word-soundness"),
    8: ("grover-best-k", "grover-canonical-k"),
    9: ("grover-stopping",),
}
IDENTS = tuple(ident for idents in CRITERIA.values() for ident in idents)


@pytest.fixture(scope="module")
def rows():
    return {row.ident: row for row in reproduce.run_all()}


def _assert_criterion(rows, criterion):
    for ident in CRITERIA[criterion]:
        row = rows[ident]
        assert row.passed, f"{ident}: expected {row.expected}, observed {row.observed}"
        print(f"ACCEPTANCE {ident} PASS: {row.name}: {row.observed}")


def test_criterion_01_single_game_rates_exact(rows):
    _assert_criterion(rows, 1)


def test_criterion_02_combined_game_exact(rows):
    _assert_criterion(rows, 2)


def test_criterion_03_generalization_sweep(rows):
    _assert_criterion(rows, 3)


def test_criterion_04_monte_carlo_within_four_standard_errors(rows):
    _assert_criterion(rows, 4)


def test_criterion_05_bv_exact_bound(rows):
    _assert_criterion(rows, 5)


def test_criterion_06_bv_baseline_separation(rows):
    _assert_criterion(rows, 6)


def test_criterion_07_grover_identities_and_word_soundness(rows):
    _assert_criterion(rows, 7)


def test_criterion_08_combined_quantum_game_wins(rows):
    _assert_criterion(rows, 8)


def test_criterion_09_stopping_times_match_exact_expectation(rows):
    _assert_criterion(rows, 9)


def test_criterion_10_every_reproduce_row_is_asserted(rows):
    # a row reproduce gains must join a criterion above
    assert tuple(rows) == IDENTS
