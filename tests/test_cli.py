"""CLI behaviour: outputs, exit codes, reproducibility, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parrondo import cli, grover, kernels, ring, statevec

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


def test_ring_rejects_more_positions_than_the_limit(capsys):
    code, out, err = run_cli(capsys, "ring", "--moduli", "3,5,7,11,13,17,19")
    assert code == 2
    assert out == ""
    assert "4849845" in err
    assert f"limit of {ring.MAX_POSITIONS} positions" in err


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


def test_bv_rejects_bad_qubit_count(capsys):
    code, _, err = run_cli(capsys, "bv", "-n", "1", "--alpha", "1")
    assert code == 2
    assert "qubit count" in err


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


def test_bv_exhaustive_requires_independent_mode(capsys):
    code, _, err = run_cli(capsys, "bv", "-n", "3", "--exhaustive")
    assert code == 2
    assert "independent" in err


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


def test_grover_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "grover", "-n", "1", "--trials", "5")
    assert code == 2
    assert "qubit count" in err


def test_grover_letter_cap_exit_code(capsys):
    code, out, _ = run_cli(
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


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


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
    # one state carried through the sweep: k rounds for the strategy's own
    # row plus canonical_k + 2 for the sweep, not one rebuild per k
    calls = []
    diffusion = statevec.diffusion
    monkeypatch.setattr(
        statevec, "diffusion", lambda state: calls.append(1) or diffusion(state)
    )
    code, out, _ = run_cli(
        capsys, "grover", "-n", "8", "--sweep", "--trials", "2", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    k = report["k"]
    assert len(report["sweep"]) == grover.canonical_k(8) + 3
    assert len(calls) == k + grover.canonical_k(8) + 2


def test_bv_runs_two_hadamard_transforms(capsys, monkeypatch):
    # one transform in the play and one in the baseline; both start from
    # the uniform state instead of transforming |0...0>
    calls = []
    fwht = kernels.fwht_inplace
    monkeypatch.setattr(
        kernels, "fwht_inplace", lambda amps: calls.append(1) or fwht(amps)
    )
    code, _, _ = run_cli(capsys, "bv", "-n", "6", "--alpha", "5", "--trials", "1")
    assert code == 0
    assert len(calls) == 2


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
    ],
    ids=["string-bool", "float-int", "bool-int", "float-moduli"],
)
def test_config_values_must_match_flag_types(tmp_path, capsys, argv, config, message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_missing_config_file_is_a_config_error(capsys):
    code, _, err = run_cli(capsys, "ring", "--moduli", "3,7", "--config", "/no/such.json")
    assert code == 2
    assert err


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run_cli(capsys)
    assert code == 2
    assert "usage" in out


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
