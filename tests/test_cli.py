"""CLI behaviour: outputs, exit codes, reproducibility, config handling."""

import argparse
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import parrondo
from parrondo import bv, cli, grover, kernels, reproduce, ring, statevec

import oracles

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_table_flagship_numbers(capsys):
    code, out, err = run_cli(capsys, "ring", "--moduli", "3,7")
    assert code == 0
    assert err == ""
    assert "11/21" in out
    assert "1/21" in out
    assert "doubly stochastic: yes" in out
    assert "uniform" in out


def test_ring_single_game(capsys):
    code, out, _ = run_cli(capsys, "ring", "--moduli", "3")
    assert code == 0
    assert "-1/3" in out


def test_ring_rejects_non_coprime_moduli(capsys):
    code, out, err = run_cli(capsys, "ring", "--moduli", "3,9")
    assert code == 2
    assert out == ""
    assert "coprime" in err


def test_ring_requires_moduli(capsys):
    code, _, err = run_cli(capsys, "ring")
    assert code == 2
    assert "moduli" in err


@pytest.mark.parametrize(
    "moduli, token",
    [("3,,7", "''"), ("3,7,", "''"), ("+3,7", "'+3'"), ("3_0,7", "'3_0'"),
     ("3 7", "'3 7'"), ("٣,7", "'٣'")],
)
def test_ring_rejects_malformed_moduli_tokens(tmp_path, capsys, moduli, token):
    config = tmp_path / "ring.json"
    config.write_text(json.dumps({"moduli": moduli}))
    for argv in (["--moduli", moduli], ["--config", str(config)]):
        code, out, err = run_cli(capsys, "ring", *argv)
        assert code == 2
        assert out == ""
        assert f"token {token}" in err


def test_ring_moduli_may_have_spaces_around_commas(capsys):
    code, out, _ = run_cli(capsys, "ring", "--moduli", " 3, 7")
    assert code == 0
    assert "11/21" in out


def test_ring_rejects_more_positions_than_the_limit(capsys):
    code, out, err = run_cli(capsys, "ring", "--moduli", "3,5,7,11,13,17,19")
    assert code == 2
    assert out == ""
    assert "4849845" in err
    assert f"limit of {ring.MAX_POSITIONS} positions" in err


def test_ring_checks_the_ring_size_before_any_gcd(tmp_path, capsys):
    # the first oversized prefix fails, so a long list neither runs a gcd per
    # modulus nor formats its product, which is past str()'s 4300 digits
    config = tmp_path / "ring.json"
    config.write_text(json.dumps({"moduli": list(oracles.odd_primes(4_000))}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "ring", "--config", str(config))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        f"error: moduli product 4849845 exceeds the limit of {ring.MAX_POSITIONS} positions\n"
    )
    code, _, err = run_cli(capsys, "ring", "--moduli", f"3,{ring.MAX_POSITIONS + 1}")
    assert code == 2
    assert f"modulus {ring.MAX_POSITIONS + 1} exceeds the limit" in err


def test_ring_checks_steps_before_the_exact_side(capsys, monkeypatch):
    calls = []
    combined_rate = ring.combined_rate
    monkeypatch.setattr(ring, "combined_rate", lambda game: calls.append(1) or combined_rate(game))
    code, out, err = run_cli(capsys, "ring", "--moduli", "3,7", "--steps", "0")
    assert (code, out, err, calls) == (2, "", "error: steps must be >= 1, got 0\n", [])


def test_ring_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "ring", "--moduli", "3,7", "--format", "json", "--steps", "1000"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["command"] == "ring"
    assert report["combined"]["win_probability"]["rational"] == "11/21"
    assert report["combined"]["rate"]["rational"] == "1/21"
    assert report["doubly_stochastic"] is True
    assert report["stationary"]["uniform"] is True
    assert report["monte_carlo"]["steps"] == 1000
    assert abs(report["monte_carlo"]["z_score"]) < 10


def test_ring_csv_format(capsys):
    code, out, _ = run_cli(capsys, "ring", "--moduli", "3,7", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("combined.rate,1/21") for line in lines)


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "ring", "--moduli", "3,7", "--steps", "20000", "--seed", "7")
    second = run_cli(capsys, "ring", "--moduli", "3,7", "--steps", "20000", "--seed", "7")
    assert first == second
    third = run_cli(capsys, "grover", "-n", "3", "--trials", "20", "--seed", "3")
    fourth = run_cli(capsys, "grover", "-n", "3", "--trials", "20", "--seed", "3")
    assert third == fourth
    fifth = run_cli(capsys, "bv", "-n", "4", "--alpha", "5", "--trials", "4", "--seed", "11")
    sixth = run_cli(capsys, "bv", "-n", "4", "--alpha", "5", "--trials", "4", "--seed", "11")
    assert fifth == sixth


def test_bv_fixed_half_output(capsys):
    code, out, _ = run_cli(
        capsys, "bv", "-n", "6", "--alpha", "5", "--mode", "fixed-half"
    )
    assert code == 0
    assert "success 0.250000000" in out
    assert "bound check (success > 1/8): PASS" in out


def test_bv_rejects_alpha_zero(capsys):
    code, _, err = run_cli(capsys, "bv", "-n", "4", "--alpha", "0")
    assert code == 2
    assert "alpha" in err


def test_alpha_bounds_name_the_qubit_count(capsys):
    # grover may search for index 0; bv's hidden string must be nonzero
    for argv, message in (
        (["bv", "-n", "4", "--alpha", "16"], "alpha 16 exceeds the limit of 15 for 4 qubits"),
        (["grover", "-n", "4", "--alpha", "16"], "alpha 16 exceeds the limit of 15 for 4 qubits"),
        (["grover", "-n", "4", "--alpha", "-1"], "alpha must be >= 0, got -1"),
        (["bv", "-n", "4", "--alpha", "0"], "alpha must be >= 1, got 0"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


QUBIT_BOUNDS = [
    ("1", "qubit count must be >= 2, got 1"),
    ("25", f"qubit count 25 exceeds the limit of {statevec.MAX_QUBITS} qubits"),
]


def test_bv_rejects_bad_qubit_count(capsys):
    for n, message in QUBIT_BOUNDS:
        code, _, err = run_cli(capsys, "bv", "-n", n, "--alpha", "1")
        assert code == 2
        assert err == f"error: {message}\n"


def test_bv_exhaustive_mean(capsys):
    code, out, _ = run_cli(
        capsys,
        "bv",
        "-n",
        "3",
        "--mode",
        "independent",
        "--trials",
        "16",
        "--exhaustive",
    )
    assert code == 0
    assert "0.312500000" in out


def _count_plays(monkeypatch):
    calls = []
    run_game = bv.run_game
    monkeypatch.setattr(bv, "run_game", lambda *a: calls.append(1) or run_game(*a))
    return calls


def test_bv_exhaustive_requires_independent_mode(capsys, monkeypatch):
    plays = _count_plays(monkeypatch)
    code, _, err = run_cli(capsys, "bv", "-n", "3", "--exhaustive")
    assert code == 2
    assert "independent" in err
    assert plays == []  # checked before the first trial


def test_bv_exhaustive_rejects_more_than_four_qubits_before_any_trial(capsys, monkeypatch):
    plays = _count_plays(monkeypatch)
    code, out, err = run_cli(
        capsys, "bv", "-n", "5", "--mode", "independent", "--exhaustive"
    )
    assert code == 2
    assert out == ""
    assert "2 <= n <= 4" in err
    assert plays == []


@pytest.mark.parametrize(
    "flag, limit, unit",
    [("--trials", bv.MAX_TRIALS, "plays"), ("--samples", bv.MAX_SAMPLES, "shots")],
    ids=["trials", "samples"],
)
def test_bv_rejects_values_over_its_limits(capsys, monkeypatch, flag, limit, unit):
    plays = _count_plays(monkeypatch)
    code, out, err = run_cli(capsys, "bv", "-n", "4", flag, str(limit + 1))
    assert code == 2
    assert out == ""
    assert f"limit of {limit} {unit}" in err
    assert plays == []


def test_bv_trials_and_samples_use_the_seed_children_in_order(capsys):
    code, out, _ = run_cli(
        capsys, "bv", "-n", "5", "--alpha", "3", "--mode", "independent",
        "--trials", "3", "--samples", "50", "--seed", "9", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    children = np.random.SeedSequence(9).spawn(4)
    plays = [bv.run_game(5, 3, bv.INDEPENDENT, child) for child in children[:3]]
    assert [row["success"] for row in report["results"]] == [
        play.success_probability for play in plays
    ]
    state = bv.noisy_oracle(plays[0].realization)
    state = statevec.hadamard_all(state)
    shots = statevec.sample_basis(state, 50, np.random.default_rng(children[3]))
    assert report["sampled_measurements"]["alpha_hits"] == np.count_nonzero(shots == 3)


def test_bv_sampling_demo(capsys):
    code, out, _ = run_cli(
        capsys, "bv", "-n", "4", "--alpha", "3", "--samples", "200", "--seed", "5"
    )
    assert code == 0
    assert "sampled measurements" in out


def test_bv_rejects_negative_samples(capsys):
    code, out, err = run_cli(capsys, "bv", "-n", "4", "--samples", "-1")
    assert code == 2
    assert out == ""
    assert "samples" in err


def test_grover_canonical_win(capsys):
    code, out, _ = run_cli(
        capsys, "grover", "-n", "4", "--strategy", "canonical", "--trials", "50"
    )
    assert code == 0
    assert "k = 4" in out
    assert "0.581704140" in out
    assert "verdict: WIN" in out


def test_grover_canonical_small_n_loses_with_note(capsys):
    code, out, _ = run_cli(
        capsys, "grover", "-n", "3", "--strategy", "canonical", "--trials", "20"
    )
    assert code == 0
    assert "k = 3" in out
    assert "0.330078125" in out
    assert "verdict: LOSE" in out
    assert "undershoots" in out


def test_grover_best_small_n_wins(capsys):
    code, out, _ = run_cli(
        capsys, "grover", "-n", "3", "--strategy", "best", "--trials", "20"
    )
    assert code == 0
    assert "k = 2" in out
    assert "0.945312500" in out
    assert "verdict: WIN" in out


def test_grover_explicit_k(capsys):
    code, out, _ = run_cli(
        capsys, "grover", "-n", "4", "--strategy", "k=2", "--trials", "10"
    )
    assert code == 0
    assert "k = 2" in out


def test_grover_rejects_bad_strategy(capsys):
    code, _, err = run_cli(capsys, "grover", "-n", "4", "--strategy", "soon")
    assert code == 2
    assert "strategy" in err


@pytest.mark.parametrize("strategy", ["k=1_0", "k=\u0663"])
def test_grover_strategy_takes_only_ascii_digits(tmp_path, capsys, strategy):
    # int() would read k=1_0 as k=10 and the Arabic-Indic three as k=3
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"strategy": strategy}))
    argv = ["grover", "-n", "4", "--trials", "5"]
    for extra in (["--strategy", strategy], ["--config", str(path)]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert "strategy must be" in err


def test_grover_rejects_bad_n(capsys):
    for n, message in QUBIT_BOUNDS:
        code, _, err = run_cli(capsys, "grover", "-n", n, "--trials", "5")
        assert code == 2
        assert err == f"error: {message}\n"


def test_grover_letter_cap_exit_code(capsys):
    code, out, err = run_cli(
        capsys,
        "grover",
        "-n",
        "4",
        "--strategy",
        "k=12",
        "--trials",
        "3",
        "--letter-cap",
        "10",
    )
    assert code == 3
    assert "cap exceeded 3" in out
    assert err == "letter cap hit: 3 of 3 plays at k=12\n"


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_grover_sweep_rows_that_hit_the_cap_exit_3(capsys):
    # the main block finishes every play; sweep rows k = 2..6 lose plays to
    # the cap, which drops them from their means
    code, out, err = run_cli(
        capsys, "grover", "-n", "4", "--sweep", "--letter-cap", "40",
        "--strategy", "k=1", "--trials", "200",
    )
    assert code == 3
    assert "cap exceeded 0" in out
    assert err.count("\n") == 1
    assert err.startswith("letter cap hit: ")
    for k in range(3, 7):
        assert f"sweep row k={k}" in err
    assert "at k=1" not in err


def test_default_letter_cap_is_taken_for_each_plays_own_k(capsys, monkeypatch):
    calls = []
    stopping_index = grover._stopping_index
    monkeypatch.setattr(
        grover,
        "_stopping_index",
        lambda rng, target, cap: calls.append((target, cap)) or stopping_index(rng, target, cap),
    )
    argv = ["grover", "-n", "2", "--strategy", "k=400", "--sweep", "--trials", "1"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    # 20 L (L + 1) for the main block's L = 800; 10**7 for the sweep rows
    assert json.loads(out)["waiting"]["letter_cap"] == 12_816_000
    rows = range(1, grover.canonical_k(2) + 3)
    assert calls == [(800, 12_816_000)] + [(2 * kk, 10**7) for kk in rows]
    calls.clear()
    code, _, _ = run_cli(capsys, *argv, "--letter-cap", "50")
    assert code == 3
    assert {cap for _, cap in calls} == {50}


def test_default_letter_cap_grows_past_ten_million_at_18_qubits(capsys):
    code, out, _ = run_cli(capsys, "grover", "-n", "18", "--trials", "1", "--format", "json")
    assert code == 0
    assert '"letter_cap": 13008840' in out


def test_only_the_grover_report_is_rewritten_for_nan(capsys, monkeypatch):
    reports = []
    null_nan = cli._null_nan

    def spy(value):
        # the recursive calls on a report's parts carry no schema key
        if isinstance(value, dict) and "schema" in value:
            reports.append(value["command"])
        return null_nan(value)

    monkeypatch.setattr(cli, "_null_nan", spy)
    for argv in (
        ["ring", "--moduli", "3,7"],
        ["bv", "-n", "3"],
        ["grover", "-n", "3", "--trials", "5"],
    ):
        assert run_cli(capsys, *argv, "--format", "json")[0] == 0
    assert reports == ["grover"]


def test_grover_csv_leaves_the_moments_of_zero_plays_empty(capsys):
    code, out, _ = run_cli(
        capsys, "grover", "-n", "4", "--letter-cap", "1", "--trials", "5", "--format", "csv"
    )
    assert code == 3
    assert "waiting.mean,\n" in out
    assert "waiting.variance,\n" in out


def test_grover_json_is_strict_when_every_play_hits_the_cap(capsys):
    code, out, _ = run_cli(
        capsys,
        "grover",
        "-n",
        "4",
        "--letter-cap",
        "1",
        "--trials",
        "5",
        "--sweep",
        "--format",
        "json",
    )
    assert code == 3
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["waiting"]["cap_exceeded"] == 5
    assert report["waiting"]["mean"] is None
    assert report["waiting"]["variance"] is None
    assert [row["mean_waiting_time"] for row in report["sweep"]][1:] == [None] * 6


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_grover_rejects_non_positive_letter_cap(capsys, cap):
    code, out, err = run_cli(capsys, "grover", "-n", "4", "--letter-cap", cap)
    assert code == 2
    assert out == ""
    assert "letter cap" in err


def test_grover_sweep_runs_each_round_once(capsys, monkeypatch):
    # one state is carried through max(k, canonical_k + 2) rounds, and both
    # the strategy's own success and the sweep rows are read from that pass
    calls = []
    diffusion = statevec.diffusion
    monkeypatch.setattr(
        statevec,
        "diffusion",
        lambda state, out=None: calls.append(1) or diffusion(state, out=out),
    )
    top = grover.canonical_k(8) + 2

    def rounds(*flags):
        calls.clear()
        code, out, _ = run_cli(
            capsys, "grover", "-n", "8", "--trials", "2", "--format", "json", *flags
        )
        assert code == 0
        return json.loads(out), len(calls)

    report, count = rounds("--sweep")
    k = report["k"]
    assert len(report["sweep"]) == top + 1
    assert count == top
    assert report["statevec_success"] == report["sweep"][k]["simulated_success"]

    report, count = rounds("--strategy", f"k={top + 3}", "--sweep")
    k = report["k"]
    assert len(report["sweep"]) == top + 1
    assert count == k == top + 3
    word = grover.realize_word(2 * k, 8, 0)
    assert report["statevec_success"] == statevec.probability_of(word, 0)

    report, count = rounds()
    assert "sweep" not in report
    assert count == report["k"] == grover.canonical_k(8)


def test_bv_reads_one_transform_entry(capsys, monkeypatch):
    # the play reads one transform entry (it starts from the uniform state
    # instead of transforming |0...0>), and the baseline follows that entry's
    # path on its state's two values; only --samples builds a full
    # transform, of trial 0's state
    calls = []

    def counted(name):
        kernel = getattr(kernels, name)

        def wrapper(*args):
            calls.append(name)
            return kernel(*args)

        return wrapper

    for name in ("fwht_inplace", "fwht_entry", "fwht_entry_of_two_values"):
        monkeypatch.setattr(kernels, name, counted(name))
    argv = ["bv", "-n", "6", "--alpha", "5", "--trials", "1"]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls.count("fwht_inplace") == 0
    assert calls.count("fwht_entry") == 1
    assert calls.count("fwht_entry_of_two_values") == 1
    calls.clear()
    code, _, _ = run_cli(capsys, *argv, "--samples", "10")
    assert code == 0
    assert calls.count("fwht_inplace") == 1


def test_ring_and_reproduce_share_one_z_score(capsys, monkeypatch):
    calls = []
    score = ring.win_frequency_z
    monkeypatch.setattr(ring, "win_frequency_z", lambda *a: calls.append(a) or score(*a))
    code, out, _ = run_cli(
        capsys, "ring", "--moduli", "3,7", "--steps", "1000", "--format", "json"
    )
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["monte_carlo"]["z_score"] == score(*calls[0])[1]
    calls.clear()
    monkeypatch.setattr(reproduce, "MC_STEPS", 1000)
    reproduce.run_all()
    assert len(calls) == len(reproduce.MC_SEEDS)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "argv", [["ring", "--moduli", "3,7"], ["bv", "-n", "3"], ["grover", "-n", "3"]],
    ids=["ring", "bv", "grover"],
)
def test_negative_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv, source):
    calls = []
    diffusion = statevec.diffusion
    monkeypatch.setattr(
        statevec,
        "diffusion",
        lambda state, out=None: calls.append(1) or diffusion(state, out=out),
    )
    if source == "flag":
        argv = [*argv, "--seed", "-1"]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": -1}))
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, calls) == (2, "", [])
    assert "seed must be >= 0, got -1" in err


def test_ring_rejects_more_steps_than_the_limit(capsys):
    steps = str(ring.MAX_STEPS + 1)
    code, out, err = run_cli(capsys, "ring", "--moduli", "3,7", "--steps", steps)
    assert code == 2
    assert out == ""
    assert f"limit of {ring.MAX_STEPS} Monte Carlo steps" in err


def test_grover_rejects_more_trials_than_the_limit(capsys):
    trials = str(grover.MAX_TRIALS + 1)
    code, out, err = run_cli(capsys, "grover", "-n", "4", "--trials", trials)
    assert code == 2
    assert out == ""
    assert f"limit of {grover.MAX_TRIALS} plays" in err


def test_grover_rejects_more_rounds_than_the_limit(capsys):
    # the statevec pass keeps one success per round, so k bounds its memory
    k = grover.MAX_ROUNDS + 1
    code, out, err = run_cli(capsys, "grover", "-n", "2", "--strategy", f"k={k}")
    assert code == 2
    assert out == ""
    assert f"limit of {grover.MAX_ROUNDS} rounds" in err


def test_grover_sweep_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "grover",
        "-n",
        "3",
        "--sweep",
        "--trials",
        "10",
        "--format",
        "csv",
        "--seed",
        "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,closed_form_success,simulated_success,mean_waiting_time"
    assert len(lines) == grover_sweep_length()


def grover_sweep_length():
    return grover.canonical_k(3) + 3 + 1  # k = 0..canonical+2, plus header


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    config = tmp_path / "ring.json"
    config.write_text(json.dumps({"moduli": [3, 7], "seed": 5}))
    code, out_config, _ = run_cli(capsys, "ring", "--config", str(config))
    assert code == 0
    assert "11/21" in out_config
    # flag overrides the config moduli
    code, out_flag, _ = run_cli(
        capsys, "ring", "--config", str(config), "--moduli", "3,11"
    )
    assert code == 0
    assert "17/33" in out_flag
    assert "1/33" in out_flag


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"modulus": 3}))
    code, _, err = run_cli(capsys, "ring", "--config", str(config))
    assert code == 2
    assert "unknown keys" in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["bv", "-n", "3"], {"exhaustive": "false"}, "exhaustive must be a boolean"),
        (["bv", "-n", "3"], {"trials": 2.7}, "trials must be an integer"),
        (["grover", "-n", "3"], {"trials": True}, "trials must be an integer"),
        (["ring"], {"moduli": [3.9, 7]}, "moduli must be a string or a list of integers"),
        (["bv", "-n", "3"], {"mode": "noisy"}, "mode must be one of"),
        (["reproduce"], {"format": "xml"}, "format must be one of"),
    ],
    ids=[
        "string-bool", "float-int", "bool-int", "float-moduli", "mode-choice", "format-choice"
    ],
)
def test_config_values_must_match_flag_types(tmp_path, capsys, argv, config, message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: config file {path}: {message}")


# (argv without the flag, the flag's dest, the flag set to a non-default
# value, the same value as a config entry)
ROUND_TRIPS = [
    (["ring", "--steps", "1000"], "moduli", ["--moduli", "3,11"], [3, 11]),
    (["ring", "--moduli", "3,7"], "steps", ["--steps", "1000"], 1000),
    (["ring", "--moduli", "3,7", "--steps", "1000"], "seed", ["--seed", "5"], 5),
    (["ring", "--moduli", "3,7"], "format", ["--format", "json"], "json"),
    (["bv", "--alpha", "3"], "n", ["-n", "5"], 5),
    (["bv", "-n", "4"], "alpha", ["--alpha", "3"], 3),
    (["bv", "-n", "4"], "mode", ["--mode", "independent"], "independent"),
    (["bv", "-n", "4"], "trials", ["--trials", "3"], 3),
    (["bv", "-n", "3", "--mode", "independent"], "exhaustive", ["--exhaustive"], True),
    (["bv", "-n", "4"], "samples", ["--samples", "20"], 20),
    (["bv", "-n", "4", "--mode", "independent"], "seed", ["--seed", "7"], 7),
    (["bv", "-n", "4"], "format", ["--format", "csv"], "csv"),
    (["grover", "--trials", "5"], "n", ["-n", "4"], 4),
    (["grover", "-n", "4", "--trials", "5"], "alpha", ["--alpha", "6"], 6),
    (["grover", "-n", "3", "--trials", "5"], "strategy", ["--strategy", "best"], "best"),
    (["grover", "-n", "4"], "trials", ["--trials", "7"], 7),
    (["grover", "-n", "3", "--trials", "5"], "sweep", ["--sweep"], True),
    (["grover", "-n", "4", "--trials", "5"], "letter_cap", ["--letter-cap", "30"], 30),
    (["grover", "-n", "4", "--trials", "5"], "seed", ["--seed", "9"], 9),
    (["grover", "-n", "4", "--trials", "5"], "format", ["--format", "json"], "json"),
    (["reproduce"], "format", ["--format", "json"], "json"),
]

QUICK_ROW = reproduce.CheckRow("Q1", "quick row", "1", "1", True)


def _subparser(command):
    actions = cli.build_parser()._actions
    sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


INTEGER_FLAGS = [
    (command, action.option_strings[-1])
    for command in ("ring", "bv", "grover", "reproduce")
    for action in _subparser(command)._actions
    if action.dest not in ("help", "config")
    and cli._json_type(action)[0] == "an integer"
]


def test_every_count_seed_and_index_is_an_integer_flag():
    assert len(INTEGER_FLAGS) == 12


@pytest.mark.parametrize("value", ["1_0", "+3", "\u0663", "3.0"])
@pytest.mark.parametrize(
    "command, flag", INTEGER_FLAGS, ids=[f"{c}{f}" for c, f in INTEGER_FLAGS]
)
def test_malformed_integers_exit_2_before_any_work(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize(
    "command, flag", INTEGER_FLAGS, ids=[f"{c}{f}" for c, f in INTEGER_FLAGS]
)
def test_integers_past_python_digit_limit_name_their_flag(capsys, command, flag):
    # int() refuses more digits than this; the error names the flag and the
    # count instead of echoing every digit
    digits = sys.get_int_max_str_digits() + 700
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, "9" * digits])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err) < 1000
    assert flag in captured.err
    assert f"integer digit count {digits} exceeds the limit" in captured.err


def test_long_moduli_tokens_and_k_name_their_input(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    long = "9" * (limit + 700)
    config = tmp_path / "ring.json"
    config.write_text(json.dumps({"moduli": f"3,{long}"}))
    want = f"error: modulus digit count {limit + 700} exceeds the limit of {limit} digits\n"
    for argv in (["--moduli", f"3,{long}"], ["--config", str(config)]):
        assert run_cli(capsys, "ring", *argv) == (2, "", want)
    code, out, err = run_cli(capsys, "grover", "-n", "3", "--strategy", f"k={long}")
    assert (code, out) == (2, "")
    assert err == f"error: explicit k digit count {limit + 700} exceeds the limit of {limit} digits\n"


NINES = "9" * 4000


@pytest.mark.parametrize(
    "argv, what",
    [
        (["grover", "-n", "3", "--trials", NINES], "trials"),
        (["bv", "-n", "3", "--samples", NINES], "samples"),
        (["ring", "--moduli", "3,7", "--steps", NINES], "steps"),
        (["grover", "-n", NINES], "qubit count"),
        (["grover", "-n", "3", "--strategy", f"k={NINES}"], "explicit k"),
        (["grover", "-n", "3", "--seed", f"-{NINES}"], "seed"),
        (["grover", "-n", "3", "--letter-cap", f"-{NINES}"], "letter cap"),
        (["ring", "--moduli", f"3,{NINES}"], "modulus"),
        (["grover", "-n", "3", "--alpha", NINES], "alpha"),
        (["bv", "-n", "3", "--alpha", NINES], "alpha"),
    ],
    ids=[
        "trials", "samples", "steps", "qubits", "k", "seed", "letter-cap", "moduli",
        "grover-alpha", "bv-alpha",
    ],
)
def test_out_of_range_values_are_named_by_their_digit_count(capsys, argv, what):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err) < 1000
    assert what in err
    assert "4000 digits" in err


def test_out_of_range_values_of_up_to_20_digits_are_echoed(capsys):
    for digits, shown in ((20, "9" * 20), (21, "of 21 digits")):
        code, _, err = run_cli(capsys, "grover", "-n", "3", "--trials", "9" * digits)
        assert code == 2
        assert err == f"error: trials {shown} exceeds the limit of {grover.MAX_TRIALS} plays\n"
    code, _, err = run_cli(capsys, "grover", "-n", "3", "--seed", "-" + "9" * 21)
    assert err == "error: seed must be >= 0, got a value of 21 digits\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"moduli": [3, ' + "9" * 5000 + "]}", "5000 digits"),
        ('{"moduli": [3,', "Expecting value"),
    ],
    ids=["long-integer", "truncated"],
)
def test_config_files_that_json_refuses_are_named(tmp_path, capsys, text, message):
    path = tmp_path / "ring.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "ring", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config file {path}: ")
    assert message in err
    assert len(err) < 1000


def test_round_trips_cover_every_flag():
    for command in ("ring", "bv", "grover", "reproduce"):
        dests = {a.dest for a in _subparser(command)._actions} - {"help", "config"}
        assert dests == {dest for argv, dest, _, _ in ROUND_TRIPS if argv[0] == command}


@pytest.mark.parametrize(
    "argv, dest, flag, value",
    ROUND_TRIPS,
    ids=[f"{argv[0]}-{dest}" for argv, dest, _, _ in ROUND_TRIPS],
)
def test_config_value_prints_what_its_flag_prints(
    tmp_path, capsys, monkeypatch, argv, dest, flag, value
):
    monkeypatch.setattr(reproduce, "run_all", lambda: [QUICK_ROW])
    defaults = {a.dest: a.default for a in _subparser(argv[0])._actions}
    assert value != defaults[dest]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({dest: value}))
    by_flag = run_cli(capsys, *argv, *flag)
    assert by_flag[0] in (0, 3)
    assert run_cli(capsys, *argv, "--config", str(path)) == by_flag


def test_reproduce_rejects_a_seed_it_would_not_read(tmp_path, capsys):
    # reproduce pins its own seeds, so a seed flag or config key is an error
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "--seed", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 9}))
    code, out, err = run_cli(capsys, "reproduce", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "unknown keys: seed" in err


# stdout SHA-256s recorded for the benchmark; these runs must still print them
DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize(
    "command",
    [
        "ring --moduli 3,7 --steps 20000000 --format json --seed 1",
        "reproduce --format json",
        "grover -n 13 --format json --seed 1",
        "grover -n 16 --sweep --trials 1 --format json --seed 1",
    ]
    # every recorded bv command and the short ring and grover families: seeds 1-8 each
    + [
        command
        for command in DIGESTS
        if command.startswith(
            (
                "bv ",
                "ring --moduli 3,7,11,19 ",
                "ring --moduli 3,7 --steps 1000000 ",
                "grover -n 4 --strategy canonical ",
                "grover -n 3 --strategy best ",
                "grover -n 4 --sweep --format csv ",
            )
        )
    ],
)
def test_stdout_matches_the_recorded_digest(capsys, command):
    recorded = DIGESTS[command]
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == recorded


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_commands_parse():
    # parse only: the JSON forms of these commands run against their digests
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [
        line.split("#", 1)[0].split()
        for line in block.splitlines()
        if line.startswith("parrondo ")
    ]
    assert len(commands) == 8
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]


def test_config_nested_too_deeply_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5)
    code, out, err = run_cli(capsys, "ring", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: config file {path} nests too deeply to parse\n"


def test_missing_config_file_is_a_config_error(capsys):
    code, _, err = run_cli(capsys, "ring", "--moduli", "3,7", "--config", "/no/such.json")
    assert code == 2
    assert err


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run_cli(capsys)
    assert code == 2
    assert "usage" in out


@pytest.mark.parametrize(
    "module",
    ["parrondo"]
    + [f"parrondo.{info.name}" for info in pkgutil.iter_modules(parrondo.__path__)],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "parrondo", "ring", "--moduli", "3,7"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "11/21" in proc.stdout
