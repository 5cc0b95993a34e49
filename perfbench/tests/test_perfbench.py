"""Tests of the benchmark harness: tracing changes no output, every patched
function is put back, and corrupted outputs are counted as failures."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def make(name, tmp_path):
    return workloads.WORKLOADS[name](workloads.Playnet(), str(tmp_path))


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request, tmp_path):
    return make(request.param, tmp_path)


def snapshot() -> dict:
    """Every attribute of every playnet module and of the classes the tracer patches."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "playnet" or name.startswith("playnet."):
            for key, val in vars(mod).items():
                snap[(name, key)] = val
                if isinstance(val, type) and val.__module__ == name:
                    for member, raw in vars(val).items():
                        snap[(name, key, member)] = raw
    return snap


def test_traced_outputs_are_byte_identical(workload):
    plain = run.run_requests(workload, SEED, range(2), run.Window(), keep_outputs=2)
    with tracing.Tracer() as tracer:
        traced = run.run_requests(workload, SEED, range(2), run.Window(), tracer=tracer, keep_outputs=2)
    assert plain.failed == traced.failed == 0
    assert len(tracer) > 0
    assert len(plain.outputs) == 2
    assert traced.outputs == plain.outputs


def test_tracer_leaves_no_patched_function_behind(workload):
    before = snapshot()
    with tracing.Tracer() as tracer:
        during = snapshot()
        run.run_requests(workload, SEED, range(1), run.Window(), tracer=tracer)
    after = snapshot()
    assert tracer.patched > 0
    assert any(during[k] is not before[k] for k in before)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def corrupt_compare(monkeypatch, pn):
    original = pn.cli.monte_carlo_compare

    def corrupted(*args, **kwargs):
        reports = original(*args, **kwargs)
        return [dataclasses.replace(reports[0], goal_rate=1.5)] + reports[1:]

    monkeypatch.setattr(pn.cli, "monte_carlo_compare", corrupted)


def corrupt_random_states(monkeypatch, pn):
    original = pn.simulate.rollout

    def corrupted(state, cfg):
        result = original(state, cfg)
        return dataclasses.replace(result, security=result.security / 2)

    monkeypatch.setattr(pn.simulate, "rollout", corrupted)


def corrupt_log_roundtrip(monkeypatch, pn):
    original = pn.cli.efficiency
    monkeypatch.setattr(pn.cli, "efficiency", lambda seq: original(seq) / 2)


@pytest.mark.parametrize("name, corrupt", [
    ("compare-fixed", corrupt_compare),
    ("random-states", corrupt_random_states),
    ("log-roundtrip", corrupt_log_roundtrip),
])
def test_corrupted_output_counts_in_failed_frac(name, corrupt, monkeypatch, tmp_path):
    wl = make(name, tmp_path)
    corrupt(monkeypatch, wl.pn)
    window = run.run_requests(wl, SEED, range(2), run.Window())
    assert (window.attempted, window.failed) == (2, 2)
    metrics, _ = run.end_to_end(window, [1.0])
    assert metrics["ok_frac"][0] == 0.0


def test_plausible_wrong_answer_fails_the_pinned_digest(monkeypatch, tmp_path):
    wl = make("compare-fixed", tmp_path)
    original = wl.pn.cli.monte_carlo_compare

    def shifted(*args, **kwargs):
        reports = original(*args, **kwargs)
        return [dataclasses.replace(r, mean_length=r.mean_length + 0.01) for r in reports]

    window = run.Window()
    run.final_checks(wl, str(tmp_path), window)
    assert window.failed == 0, window.errors
    monkeypatch.setattr(wl.pn.cli, "monte_carlo_compare", shifted)
    window = run.Window()
    run.final_checks(wl, str(tmp_path), window)
    assert window.failed == 1
    assert "sha256" in window.errors[0]


def test_reported_metrics_are_the_declared_ones(tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    wl = make("compare-fixed", tmp_path)
    counts = []
    for _ in range(2):
        window = run.Window()
        with tracing.Tracer() as tracer:
            run.run_requests(wl, SEED, range(2), window, tracer=tracer)
        layer = tracing.per_layer_metrics(tracer, window.requests, window.speeds(), 2,
                                          workloads.STATES, workloads.STYLES)
        counts.append({k: v for k, v in layer.items() if layer_units[k] != "us"})
    assert counts[0] == counts[1]
    assert counts[0]["simulate.estimate_calls_per_possession"] > 0
    layer["trace.overhead_frac"] = 0.0
    assert sorted(layer) == sorted(m["name"] for m in declared["per_layer"])
    e2e, _ = run.end_to_end(window, [1.0])
    assert sorted(e2e) == sorted(m["name"] for m in declared["end_to_end"])
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: u for k, (_, u, _) in e2e.items()} == units
