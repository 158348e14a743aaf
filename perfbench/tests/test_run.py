import pytest

import run


def _row(main_s, import_s, probes, layers=None):
    row = {"main_s": main_s, "import_s": import_s, "probe_s": probes, "problems": []}
    if layers is not None:
        row["layers"] = layers
    return row


def _passes():
    ref = run.PROBE_REF_S
    # command 0 ran at reference speed, then twice as slow (probe doubled):
    # rescaled, every one of its passes took 1 s
    return [
        {"wall_s": 3.0, "setup_s": 0.2, "peak_rss_mb": 50.0, "commands": [
            _row(1.0, 0.1, [ref, ref]), _row(2.0, 0.1, [ref, ref])]},
        {"wall_s": 6.0, "setup_s": 0.4, "peak_rss_mb": 60.0, "commands": [
            _row(2.0, 0.2, [2 * ref, 2 * ref]), _row(4.0, 0.2, [2 * ref, 2 * ref])]},
        {"wall_s": 3.5, "setup_s": 0.2, "peak_rss_mb": 55.0, "commands": [
            _row(1.0, 0.1, [ref, ref]), _row(2.5, 0.1, [ref, ref])]},
    ]


def test_end_to_end_rescales_each_timing_by_its_probe():
    e2e = run.end_to_end(_passes())
    # per-command medians of rescaled times: 1.0 + median(2.0, 2.0, 2.5)
    assert e2e["wall_s"]["value"] == pytest.approx(3.0)
    assert e2e["setup_s"]["value"] == pytest.approx(2 * 0.1)
    assert e2e["peak_rss_mb"]["value"] == 55.0
    raw = run.raw_times(_passes())
    assert raw["wall_raw_s"] == 3.5


def test_layer_totals_sum_commands_and_rescale_only_times():
    ref = run.PROBE_REF_S
    one_pass = {"commands": [
        _row(1.0, 0.1, [2 * ref, 2 * ref], {"kernels.letters_used": 10, "kernels.letters_drawn": 40,
                                             "kernels.push_letters_until.self_s": 0.8}),
        _row(1.0, 0.1, [ref, ref], {"kernels.letters_used": 10, "kernels.letters_drawn": 40,
                                    "kernels.push_letters_until.self_s": 0.3}),
    ]}
    totals = run.layer_totals(one_pass)
    assert totals["kernels.letters_used"] == 20
    assert totals["kernels.letters_used_frac"] == pytest.approx(0.25)
    assert totals["kernels.push_letters_until.self_s"] == pytest.approx(0.4 + 0.3)


def test_layer_units():
    assert run.layer_unit("cli.main.self_s") == "s"
    assert run.layer_unit("trace.overhead_frac") == "frac"
    assert run.layer_unit("statevec.bytes_allocated_computed") == "bytes"
    assert run.layer_unit("grover.plays") == "count"


def test_commands_past_the_run_deadline_fail_without_running():
    command = run.Command(("reproduce",), lambda stdout: [], seeded=False)
    result = run.run_pass([command], seed=0, trace=False, digests={}, deadline=0.0)
    assert result["failed"] == 1
    assert "time limit" in result["commands"][0]["problems"][0]
