"""Tests of the benchmark itself; none of them runs a workload."""

import hashlib
import json
from pathlib import Path

import pytest

import run
import tracer

VERIFY_ARGV = ["verify", "-n", "4", "--max-length", "4", "bijection"]
VERIFY_OUT = b"bijection: 276 instances, ok\nall checks passed\n"


def references_for(argv, status, stdout):
    return {
        "outputs": {
            run.command_key(argv): {
                "status": status,
                "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            }
        }
    }


def test_matching_output_passes_and_counts_instances():
    refs = references_for(VERIFY_ARGV, 0, VERIFY_OUT)
    tally = run.Tally()
    assert tally.record(VERIFY_ARGV, 0, VERIFY_OUT, refs)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert run.items_done(VERIFY_ARGV, VERIFY_OUT) == 276


def test_tampered_reference_marks_command_failed():
    refs = references_for(VERIFY_ARGV, 0, VERIFY_OUT)
    refs["outputs"][run.command_key(VERIFY_ARGV)]["stdout_sha256"] = "0" * 64
    tally = run.Tally()
    assert not tally.record(VERIFY_ARGV, 0, VERIFY_OUT, refs)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_status_mismatch_unknown_command_and_failed_verify_fail():
    refs = references_for(VERIFY_ARGV, 0, VERIFY_OUT)
    assert not run.output_ok(VERIFY_ARGV, 1, VERIFY_OUT, refs)
    assert not run.output_ok(["expand", "-n", "5", "[1,2,3,4,5]"], 0, VERIFY_OUT, refs)
    failing = b"bijection: 276 instances, 1 FAILED\nverification FAILED\n"
    assert not run.output_ok(VERIFY_ARGV, 0, failing, references_for(VERIFY_ARGV, 0, failing))


def test_expand_passes_are_seeded_draws_from_the_pool():
    refs = run.load_references()
    assert len(run.expand_pool(refs)) == 875  # every element of length 10 at n = 5

    def draw(seed):
        return [cmd for _, cmd in zip(range(20), run.passes("expand", seed, refs))]

    assert draw(7) == draw(7) != draw(8)
    for (argv,) in draw(7):
        assert argv[:3] == ["expand", "-n", "5"]
        assert run.command_key(argv) in refs["outputs"]


def test_every_workload_command_has_a_reference():
    refs = run.load_references()
    for commands in run.VERIFY_COMMANDS.values():
        for argv in commands:
            assert refs["outputs"][run.command_key(argv)]["status"] == 0


def test_launch_reports_status_stdout_and_peak_rss():
    result = run.launch(["-c", "print('out'); raise SystemExit(3)"], run.child_env())
    assert (result.status, result.stdout) == (3, b"out\n")
    assert result.seconds > 0 and result.peak_rss_mib > 1


def test_missing_sources_exit_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "bijection", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert end_to_end == {"setup_s", "wall_ref", "items_per_ref", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_traced_pass_counts_layers_and_restores_functions():
    import affsym.cli
    import affsym.group
    import affsym.little
    import affsym.verify

    originals = (affsym.little.phi, affsym.verify.phi, affsym.cli._SUITES["bijection"])
    mul = affsym.group.AffinePermutation.__mul__
    results = []
    metrics = tracer.traced_pass(
        [["verify", "-n", "3", "--max-length", "1", "bijection"], ["expand", "-n", "3", "[3,2,1]"]],
        lambda argv, status, out: results.append(status),
    )
    assert results == [0, 0, 0, 0]
    assert set(metrics) == set(tracer.metric_units())
    assert metrics["verify.bijection_sweep.calls"][0] == 1
    assert metrics["little.phi.calls"][0] > 0
    assert metrics["stanley.stanley_table.calls"][0] > 0
    assert metrics["group.mul.calls"][0] > 0
    assert 0 < metrics["group.covers_above.yield"][0] <= 1
    assert metrics["group._length.misses"][0] > 0
    assert (affsym.little.phi, affsym.verify.phi, affsym.cli._SUITES["bijection"]) == originals
    assert affsym.group.AffinePermutation.__mul__ is mul


@pytest.mark.parametrize("window", [(3, 2, 1), (-1, 1, 4, 6), (2, 3, 0, 5)])
def test_inversions_matches_the_group_length(window):
    from affsym.group import from_window

    assert tracer._inversions(window) == from_window(len(window), window).length()
