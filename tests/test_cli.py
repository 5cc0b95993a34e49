import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import stat
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import playnet.cli
import playnet.estimators
import playnet.sequence
from playnet import (
    Decision,
    DecisionNetwork,
    DecisionPolicy,
    LinearStyle,
    PossessionSequence,
    PossessionStep,
    SimulationConfig,
    StepOutcome,
    parse_match_state,
    run_trials,
)
from playnet.cli import regenerate, run_cli
from playnet.estimators import DEFAULT_PARAMS
from playnet.jsonio import canonical_dumps, manifest_path, parse_json
from playnet.sequence import (
    _RECENT, _log_sequences, efficiency, load_log, log_text, pareto_points, read_log, security,
    sequence_from_obj,
)
from playnet.config import load_config
from playnet.state import load_match_state

from conftest import (
    DATA_DIR, GOLDEN_DIR, HUGE_INT, JSON_CUTS, json_mutations, json_paths, mutated_json_text,
    random_match_state, random_sequence, state_to_obj,
)
from oracles import (
    reference_analyze_text, reference_frontier_text, reference_log_text, reference_simulate_text, sequence_to_obj,
)

MIDFIELD = str(DATA_DIR / "midfield_state.json")
BOX = str(DATA_DIR / "box_state.json")


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_happy_path(capsys):
    code, out, err = run(capsys, "decide", "--state", MIDFIELD, "--style", "3:1", "--threshold", "0.5")
    assert code == 0
    assert "decision: pass -> t6" in out
    assert "ranked options:" in out
    assert err == ""


def test_decide_shoot_on_box_state(capsys):
    code, out, _ = run(capsys, "decide", "--state", BOX, "--style", "3:1")
    assert code == 0
    assert "decision: shoot" in out


def test_decide_json_output(capsys):
    code, out, _ = run(capsys, "decide", "--state", MIDFIELD, "--style", "3:1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"]["type"] == "pass"
    assert payload["decision"]["target"] == 6
    assert len(payload["ranked"]) == 10
    assert payload["network"]["holder"] == 8
    assert payload["threshold"] == 0.5  # the one key the text printed before --json had it


def test_decide_json_holds_the_threshold_in_use(capsys):
    code, out, _ = run(capsys, "decide", "--state", BOX, "--style", "3:1", "--threshold", "0.25", "--json")
    assert code == 0
    assert list(json.loads(out)) == ["decision", "threshold", "ranked", "network"]
    assert json.loads(out)["threshold"] == 0.25


# the holder alone on the pitch: every teammate is outside, so every pass option scores zero
_DEGENERATE_STATE = {
    "pitch": {"length": 105, "width": 68},
    "team": [
        {"id": j, "x": 50, "y": 34} if j == 8 else {"id": j, "x": -5, "y": -5, "outside": True}
        for j in range(1, 12)
    ],
    "opponents": [{"x": 80, "y": 6 * k + 2} for k in range(11)],
    "holder": 8,
}
_LOG_OF_7 = ["simulate", "--state", MIDFIELD, "--style", "3:1", "--trials", "7", "--seed", "3", "--out", "{log}"]
_SEED42 = str(GOLDEN_DIR / "simulate_seed42.json")
# golden file -> the command line whose stdout it holds; "{degenerate}" and "{log}" are files the test writes
_STDOUT_GOLDENS = {
    "decide_pass.txt": ["decide", "--state", MIDFIELD, "--style", "3:1"],
    "decide_shoot.txt": ["decide", "--state", BOX, "--style", "3:1"],
    "decide_degenerate.txt": ["decide", "--state", "{degenerate}", "--style", "3:1"],
    "simulate_one_trial.txt": ["simulate", "--state", MIDFIELD, "--style", "3:1", "--trials", "1", "--seed", "42"],
    "simulate_30_trials.txt": ["simulate", "--state", MIDFIELD, "--style", "2:2", "--trials", "30", "--seed", "7"],
    "simulate_midfield.json": ["simulate", "--state", MIDFIELD, "--style", "2:2", "--trials", "30", "--seed", "7", "--json"],
    "simulate_box.json": ["simulate", "--state", BOX, "--style", "3:1", "--trials", "30", "--seed", "7", "--json"],
    "analyze_seed42.txt": ["analyze", "--log", _SEED42],
    "analyze_midfield_7.txt": ["analyze", "--log", "{log}"],
    "compare_midfield.txt": ["compare", "--state", MIDFIELD, "--styles", "3:1,2:2,1:3", "--trials", "200", "--seed", "7"],
    "frontier_seed42.txt": ["frontier", "--log", _SEED42],
    "frontier_midfield_7.txt": ["frontier", "--log", "{log}"],
}


@pytest.mark.parametrize("name", list(_STDOUT_GOLDENS))
def test_stdout_equals_its_frozen_golden(tmp_path, name):
    files = {"{degenerate}": tmp_path / "degenerate_state.json", "{log}": tmp_path / "log.json"}
    files["{degenerate}"].write_text(json.dumps(_DEGENERATE_STATE))
    argv = _STDOUT_GOLDENS[name]
    if "{log}" in argv:
        argv_of_log = [str(files["{log}"]) if a == "{log}" else a for a in _LOG_OF_7]
        assert run_cli(argv_of_log) == 0
    argv = [str(files[a]) if a in files else a for a in argv]
    assert _stdout_of(argv).encode() == (GOLDEN_DIR / name).read_bytes()


class _BrokenPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", [
    ["decide", "--state", MIDFIELD, "--style", "3:1"],
    ["simulate", "--state", MIDFIELD, "--style", "3:1", "--trials", "3"],
    ["analyze", "--log", _SEED42],
    ["compare", "--state", BOX, "--styles", "3:1,1:3", "--trials", "3"],
    ["frontier", "--log", _SEED42],
], ids=lambda argv: argv[0])
def test_a_failing_stdout_write_exits_1_with_one_error_line(argv, mode):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(_BrokenPipe()), contextlib.redirect_stderr(stderr):
        code = run_cli(argv + mode)
    assert (code, stderr.getvalue()) == (1, "error: [Errno 32] Broken pipe\n")


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "decide", "--style", "3:1")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "conquer")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "decide" in out and "simulate" in out


def test_bad_style_is_validation_error(capsys):
    code, _, err = run(capsys, "decide", "--state", MIDFIELD, "--style", "0:0")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("styles", [",3:1", "3:1,,1:3", "3:1,", ","], ids=["leading", "doubled", "trailing", "lone"])
def test_empty_compare_style_entry_is_validation_error(capsys, styles):
    code, out, err = run(capsys, "compare", "--state", MIDFIELD, "--styles", styles, "--trials", "2")
    assert code == 1
    assert out == ""
    assert err == "error: style '' must look like 'x:y', e.g. '3:1'\n"


def test_missing_state_file_is_validation_error(capsys):
    code, _, err = run(capsys, "decide", "--state", "/no/such/state.json", "--style", "3:1")
    assert code == 1
    assert "error:" in err


def test_invalid_state_reports_json_path(capsys, tmp_path):
    doc = json.loads((DATA_DIR / "midfield_state.json").read_text())
    doc["team"][2]["x"] = 300.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decide", "--state", str(bad), "--style", "3:1")
    assert code == 1
    assert "team[2].x" in err


def test_simulate_matches_frozen_log(capsys, tmp_path):
    out_file = tmp_path / "log.json"
    code, _, _ = run(
        capsys, "simulate", "--state", MIDFIELD, "--style", "3:1",
        "--trials", "3", "--seed", "42", "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_bytes() == (GOLDEN_DIR / "simulate_seed42.json").read_bytes()


def test_simulate_deterministic_across_runs(capsys, tmp_path):
    outputs = []
    for name in ("a.json", "b.json", "c.json"):
        out_file = tmp_path / name
        code, _, _ = run(
            capsys, "simulate", "--state", MIDFIELD, "--style", "2:2",
            "--trials", "6", "--seed", "9", "--out", str(out_file),
        )
        assert code == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_manifest_and_regeneration(capsys, tmp_path):
    out_file = tmp_path / "log.json"
    code, _, _ = run(
        capsys, "simulate", "--state", MIDFIELD, "--style", "3:1",
        "--trials", "4", "--seed", "13", "--out", str(out_file),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "log.json.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["run"]["seed"] == 13
    assert manifest["config"]["policy"]["threshold"] == 0.5
    assert manifest["inputs"]["state"]["path"] == MIDFIELD
    assert len(manifest["inputs"]["state"]["sha256"]) == 64
    assert regenerate(manifest) == out_file.read_text()


def test_regenerate_from_another_working_directory(capsys, tmp_path, monkeypatch):
    (tmp_path / "state.json").write_text((DATA_DIR / "midfield_state.json").read_text())
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        capsys, "simulate", "--state", "state.json", "--style", "3:1",
        "--trials", "2", "--seed", "5", "--out", "log.json",
    )
    assert code == 0
    manifest = json.loads((tmp_path / "log.json.manifest.json").read_text())
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert regenerate(manifest) == (tmp_path / "log.json").read_text()


def test_manifest_records_config_exactly(capsys, tmp_path):
    # trimmed to six significant digits these read back as 30 and 0.5,
    # and the rebuilt log differs from the one written
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"estimators": {"pass_decay_m": 29.99999949}, "policy": {"threshold": 0.49999999}}
    ))
    out_file = tmp_path / "log.json"
    code, _, _ = run(
        capsys, "--config", str(config), "simulate", "--state", MIDFIELD, "--style", "3:1",
        "--trials", "50", "--seed", "13", "--out", str(out_file),
    )
    assert code == 0
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    assert manifest["config"]["estimators"]["pass_decay_m"] == 29.99999949
    assert manifest["config"]["policy"]["threshold"] == 0.49999999
    assert regenerate(manifest) == out_file.read_text()


def test_regenerate_detects_changed_input(capsys, tmp_path):
    state_copy = tmp_path / "state.json"
    state_copy.write_text((DATA_DIR / "midfield_state.json").read_text())
    out_file = tmp_path / "log.json"
    code, _, _ = run(
        capsys, "simulate", "--state", str(state_copy), "--style", "3:1",
        "--trials", "1", "--seed", "1", "--out", str(out_file),
    )
    assert code == 0
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    state_copy.write_text((DATA_DIR / "box_state.json").read_text())
    with pytest.raises(ValueError, match="digest"):
        regenerate(manifest)


def test_a_state_file_rewritten_mid_run_is_recorded_as_the_bytes_that_ran(capsys, tmp_path, monkeypatch):
    state_file = tmp_path / "state.json"
    ran, other = (DATA_DIR / "midfield_state.json").read_bytes(), (DATA_DIR / "box_state.json").read_bytes()
    state_file.write_bytes(ran)
    real_run_trials, real_sha256 = playnet.cli.run_trials, playnet.cli.sha256_of_file

    def rewriting_run_trials(*args, **kwargs):
        state_file.write_bytes(other)  # after the state was read, before its trials run
        return real_run_trials(*args, **kwargs)

    monkeypatch.setattr(playnet.cli, "run_trials", rewriting_run_trials)
    out_file = tmp_path / "log.json"
    code, _, err = run(
        capsys, "simulate", "--state", str(state_file), "--style", "3:1",
        "--trials", "3", "--seed", "4", "--out", str(out_file),
    )
    assert (code, err) == (0, "")
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    assert manifest["inputs"]["state"]["sha256"] == hashlib.sha256(ran).hexdigest()
    with pytest.raises(ValueError, match="does not match the manifest"):
        regenerate(manifest)  # the file now holds another input

    def rewriting_sha256(*args):
        digest = real_sha256(*args)
        state_file.write_bytes(other)  # between the digest and anything read after it
        return digest

    monkeypatch.setattr(playnet.cli, "sha256_of_file", rewriting_sha256)
    state_file.write_bytes(ran)
    assert regenerate(manifest) == out_file.read_text()
    assert state_file.read_bytes() == other


def _without_timestamp(manifest_text: str) -> dict:
    manifest = json.loads(manifest_text)
    del manifest["timestamp"]
    return manifest


@pytest.mark.parametrize("state", [MIDFIELD, BOX], ids=["midfield", "box"])
@pytest.mark.parametrize("argv, artifact", [
    (["decide", "--style", "3:1", "--dot"], "network.dot"),
    (["decide", "--style", "1:3", "--json"], None),
    (["simulate", "--style", "1:3", "--trials", "100", "--seed", "3", "--out"], "log.json"),
    (["compare", "--styles", "3:1,2:2,1:3", "--trials", "200", "--seed", "5", "--json"], None),
    (["compare", "--styles", "3:1,2:2,1:3", "--trials", "200", "--seed", "5", "--csv"], "report.csv"),
], ids=["decide-dot", "decide-json", "simulate-out", "compare-json", "compare-csv"])
def test_a_second_run_in_one_process_writes_the_same_bytes(
    capsys, tmp_path, monkeypatch, no_loaded_states, state, argv, artifact
):
    """The first run parses the file afresh (no_loaded_states); the second reuses it."""
    estimated = []
    real = playnet.estimators.unavailable_teammates  # called once per network estimated, not per memo hit
    monkeypatch.setattr(playnet.estimators, "unavailable_teammates", lambda st: estimated.append(st) or real(st))
    argv = [argv[0], "--state", state, *argv[1:]] + ([str(tmp_path / artifact)] if artifact else [])
    runs = []
    for _ in range(2):
        del estimated[:]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        files = {}
        if artifact:
            text = (tmp_path / artifact).read_text()
            manifest_text = Path(manifest_path(tmp_path / artifact)).read_text()
            assert regenerate(json.loads(manifest_text)) == text
            files = {"artifact": text, "manifest": _without_timestamp(manifest_text)}
        runs.append((out, files, len(estimated)))
    assert runs[1][:2] == runs[0][:2]
    assert runs[0][2] > 0 and runs[1][2] == 0  # the second run and regenerate reuse every network
    assert no_loaded_states() == 1  # the state file's one text


def test_analyze_matches_golden_expectations(capsys):
    code, out, _ = run(capsys, "analyze", "--log", str(GOLDEN_DIR / "simulate_seed42.json"), "--json")
    assert code == 0
    assert out == (GOLDEN_DIR / "analyze_expected.json").read_text()


def test_frontier_matches_golden_expectations(capsys):
    code, out, _ = run(capsys, "frontier", "--log", str(GOLDEN_DIR / "simulate_seed42.json"), "--json")
    assert code == 0
    assert out == (GOLDEN_DIR / "frontier_expected.json").read_text()


def test_analyze_human_output(capsys):
    code, out, _ = run(capsys, "analyze", "--log", str(GOLDEN_DIR / "simulate_seed42.json"))
    assert code == 0
    assert "sequence 0: steps 1, terminal pass_intercepted" in out
    assert "efficiency 0.0814301" in out
    assert "security 0.61018" in out


def test_analyze_single_sequence_log(capsys, tmp_path):
    log = json.loads((GOLDEN_DIR / "simulate_seed42.json").read_text())
    single = tmp_path / "one.json"
    single.write_text(json.dumps(log[0]))
    code, out, _ = run(capsys, "analyze", "--log", str(single), "--json")
    assert code == 0
    assert len(json.loads(out)["sequences"]) == 1


def test_analyze_names_the_sequence_and_step_of_a_bad_network(capsys, tmp_path):
    log = json.loads((GOLDEN_DIR / "simulate_seed42.json").read_text())
    network = log[1][1]["network"]
    network["s"] = 2.0
    path = tmp_path / "bad.json"
    for data, where in ((log, "sequence 1: "), (log[1], "")):  # an array of sequences, and a lone one
        path.write_text(json.dumps(data, indent=2) + "\n")
        code, _, err = run(capsys, "analyze", "--log", str(path))
        assert (code, err) == (1, f"error: log {path}: {where}step 1: s=2.0 outside [0, 1]\n")
    network["s"] = 0.5
    network["edges"][0]["r"] = 11
    path.write_text(json.dumps(log, indent=2) + "\n")
    code, _, err = run(capsys, "analyze", "--log", str(path))
    to = network["edges"][0]["to"]
    assert (code, err) == (1, f"error: log {path}: sequence 1: step 1: teammate {to}: r=11 outside 0..10\n")


def test_compare_csv_and_manifest(capsys, tmp_path):
    csv_file = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "compare", "--state", MIDFIELD, "--styles", "3:1,1:3",
        "--trials", "50", "--seed", "3", "--csv", str(csv_file),
    )
    assert code == 0
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "style,trials,mean_efficiency,mean_security,goal_rate,mean_length"
    assert lines[1].startswith("3:1,50,")
    assert lines[2].startswith("1:3,50,")
    manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert regenerate(manifest) == csv_file.read_text()
    assert "3:1" in out


def test_compare_json(capsys):
    code, out, _ = run(
        capsys, "compare", "--state", MIDFIELD, "--styles", "3:1,1:3",
        "--trials", "20", "--seed", "3", "--json",
    )
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["style"] for r in reports] == ["3:1", "1:3"]
    assert all(0.0 <= r["mean_security"] <= 1.0 for r in reports)


def test_frontier_output(capsys):
    code, out, _ = run(capsys, "frontier", "--log", str(GOLDEN_DIR / "simulate_seed42.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["frontier"][0]["index"] == 0


def test_dot_artifact_and_regeneration(capsys, tmp_path):
    dot_file = tmp_path / "net.dot"
    code, _, _ = run(capsys, "decide", "--state", MIDFIELD, "--style", "3:1", "--dot", str(dot_file))
    assert code == 0
    assert dot_file.read_text() == (GOLDEN_DIR / "midfield_t8.dot").read_text()
    manifest = json.loads((tmp_path / "net.dot.manifest.json").read_text())
    assert regenerate(manifest) == dot_file.read_text()


def test_config_file_changes_decision(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": {"threshold": 0.05}}))
    code, out, _ = run(capsys, "--config", str(cfg), "decide", "--state", MIDFIELD, "--style", "3:1")
    assert code == 0
    assert "decision: shoot" in out  # midfield s=0.081 clears a 0.05 threshold


def test_threshold_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": {"threshold": 0.05}}))
    code, out, _ = run(
        capsys, "--config", str(cfg), "decide",
        "--state", MIDFIELD, "--style", "3:1", "--threshold", "0.5",
    )
    assert code == 0
    assert "decision: pass" in out


def test_unhashable_outcome_label_is_validation_error(capsys, tmp_path):
    log = json.loads((GOLDEN_DIR / "simulate_seed42.json").read_text())
    log[0][-1]["outcome"] = [1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(log))
    for command in ("analyze", "frontier"):
        code, out, err = run(capsys, command, "--log", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "config",
    [
        {"simulation": {"max_steps": 0}},
        {"simulation": {"max_steps": "x"}},
        {"policy": {"threshold": 2}},
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--state", MIDFIELD, "--style", "3:1"],
        ["analyze", "--log", str(GOLDEN_DIR / "simulate_seed42.json")],
        ["frontier", "--log", str(GOLDEN_DIR / "simulate_seed42.json")],
    ],
)
def test_bad_config_fails_at_load_for_every_command(capsys, tmp_path, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_out_of_range_flags_are_validation_errors(capsys):
    code, _, err = run(capsys, "decide", "--state", MIDFIELD, "--style", "3:1", "--threshold", "nan")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "simulate", "--state", MIDFIELD, "--style", "3:1", "--max-steps", "0")
    assert code == 1 and err.startswith("error:")


# each count just above its limit, so that a check that fails runs no long simulation
@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--state", MIDFIELD, "--style", "3:1", "--trials", "1000001"],
         "trials=1000001 above the limit of 1000000"),
        (["compare", "--state", MIDFIELD, "--styles", "3:1,1:3", "--trials", "1000001"],
         "trials=1000001 above the limit of 1000000"),
        (["simulate", "--state", MIDFIELD, "--style", "3:1", "--max-steps", "1001"],
         "max_steps=1001 above the limit of 1000"),
        (["--config", "{config}", "analyze", "--log", str(GOLDEN_DIR / "simulate_seed42.json")],
         "config {config}: max_steps=1001 above the limit of 1000"),
    ],
    ids=["simulate-trials", "compare-trials", "max-steps-flag", "max-steps-config"],
)
def test_a_count_above_its_limit_exits_1_at_load(capsys, tmp_path, argv, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"simulation": {"max_steps": 1001}}))
    code, out, err = run(capsys, *(a.replace("{config}", str(config)) for a in argv))
    assert (code, out, err) == (1, "", f"error: {message.replace('{config}', str(config))}\n")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_regenerate_rejects_trials_above_the_limit(capsys, tmp_path, command):
    out_file = tmp_path / "artifact"
    assert run(capsys, *_ARTIFACT_ARGV[command], str(out_file))[0] == 0
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    manifest["run"]["trials"] = 1_000_001
    with pytest.raises(ValueError, match="^trials=1000001 above the limit of 1000000$"):
        regenerate(manifest)


@settings(max_examples=60, deadline=None)
@given(
    state_seed=st.integers(0, 2**32 - 1),
    weights=st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda w: w != (0, 0)),
    threshold=st.floats(0.0, 1.0),
    max_steps=st.integers(1, 30),
    seed=st.integers(0, 2**63),
    trials=st.integers(1, 40),
)
def test_log_text_equals_reference_writer(state_seed, weights, threshold, max_steps, seed, trials):
    state = random_match_state(random.Random(state_seed))
    cfg = SimulationConfig(
        policy=DecisionPolicy(style=LinearStyle(*weights), threshold=threshold),
        estimators=DEFAULT_PARAMS, max_steps=max_steps, seed=seed,
    )
    results = run_trials(state, cfg, 0, trials)
    sequences = [r.sequence for r in results]
    assert log_text(sequences) == reference_log_text(sequences)


@pytest.mark.parametrize("state", [MIDFIELD, BOX], ids=["midfield", "box"])
def test_a_second_log_text_encodes_no_network_again(monkeypatch, state):
    cfg = SimulationConfig(policy=DecisionPolicy(style=LinearStyle(1, 3)), estimators=DEFAULT_PARAMS, seed=3)
    real = DecisionNetwork.to_json_dict
    converted = []
    monkeypatch.setattr(DecisionNetwork, "to_json_dict", lambda net: converted.append(net) or real(net))
    # a state parsed anew: its networks have never been written
    sequences = [r.sequence for r in run_trials(parse_match_state(Path(state).read_bytes()), cfg, 0, 100)]
    steps = {id(step): step for seq in sequences for step in seq.steps}
    networks = {id(step.network) for step in steps.values()}
    assert len(networks) < len(steps)  # a path step's network is shared by its completed and its ending step
    text = log_text(sequences)
    assert sorted(map(id, converted)) == sorted(networks)  # each distinct network converted once
    assert text == reference_log_text(sequences)
    # the same loaded state twice: the second log's networks are the first's, and keep their text
    first = log_text([r.sequence for r in run_trials(load_match_state(state), cfg, 0, 100)])
    converted.clear()
    assert log_text([r.sequence for r in run_trials(load_match_state(state), cfg, 0, 100)]) == first == text
    assert converted == []


@settings(max_examples=40, deadline=None)
@given(state_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63), trials=st.integers(2, 30))
def test_the_kept_network_texts_do_not_depend_on_the_order_of_logs(state_seed, seed, trials):
    cfg = SimulationConfig(policy=DecisionPolicy(style=LinearStyle(1, 1)), estimators=DEFAULT_PARAMS, seed=seed)
    for lone_first in (True, False):  # each order from a state built anew, whose networks no log has written
        sequences = [r.sequence for r in run_trials(random_match_state(random.Random(state_seed)), cfg, 0, trials)]
        for logged in ([sequences[-1:], sequences] if lone_first else [sequences, sequences[-1:]]):
            assert log_text(logged) == reference_log_text(logged)


@pytest.mark.parametrize(
    "manifest, field",
    [
        ({"command": "simulate"}, "config"),
        ({"command": "simulate", "config": {}, "run": {}, "inputs": {}}, "inputs.state.path"),
        ({"command": "simulate", "config": {}, "run": {}, "inputs": {"state": {}}}, "inputs.state.path"),
        ({"command": "simulate", "config": {}, "run": {},
          "inputs": {"state": {"path": MIDFIELD}}}, "inputs.state.sha256"),
    ],
)
def test_regenerate_names_a_missing_manifest_field(manifest, field):
    with pytest.raises(ValueError, match=f"^manifest: {field}: missing$"):
        regenerate(manifest)


def test_regenerate_names_a_missing_run_field(capsys, tmp_path):
    out_file = tmp_path / "log.json"
    code, _, _ = run(capsys, "simulate", "--state", MIDFIELD, "--style", "3:1", "--out", str(out_file))
    assert code == 0
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    del manifest["run"]
    with pytest.raises(ValueError, match="^manifest: run.style: missing$"):
        regenerate(manifest)


_TOO_LARGE = "style weights x and y give a score too large for a float"


@pytest.mark.parametrize(
    "command, field, value, message",
    [
        ("compare", "styles", [], "run.styles=.* must be a nonempty array"),
        ("compare", "styles", 5, "run.styles=5 must be a nonempty array"),
        ("compare", "styles", [3], "style 3 must be a string"),
        ("simulate", "style", 3, "style 3 must be a string"),
        ("compare", "styles", ["9" * 5000 + ":1"], f"^{_TOO_LARGE}$"),
        ("simulate", "style", "1:" + "9" * 5000, f"^{_TOO_LARGE}$"),
    ],
    ids=[
        "styles-empty", "styles-number", "styles-of-numbers", "style-number",
        "styles-digit-limit", "style-digit-limit",
    ],
)
def test_regenerate_rejects_a_mistyped_run_value(capsys, tmp_path, command, field, value, message):
    out_file = tmp_path / "artifact"
    if command == "compare":
        argv = ["compare", "--state", MIDFIELD, "--styles", "3:1", "--trials", "5", "--csv", str(out_file)]
    else:
        argv = ["simulate", "--state", MIDFIELD, "--style", "3:1", "--out", str(out_file)]
    assert run(capsys, *argv)[0] == 0
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    assert field in manifest["run"]
    manifest["run"][field] = value
    with pytest.raises(ValueError, match=message):
        regenerate(manifest)


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--state", "{deep}", "--style", "3:1"],
        ["--config", "{deep}", "decide", "--state", MIDFIELD, "--style", "3:1"],
        ["analyze", "--log", "{deep}"],
    ],
    ids=["state", "config", "log"],
)
def test_deeply_nested_json_is_validation_error(capsys, tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *[str(deep) if a == "{deep}" else a for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "invalid JSON" in err and err.count("\n") == 1


_NUMBER = re.compile(rb"-?\d[\d.eE+-]*")  # a number token; the inputs below hold no digit in a string


def _input_with_fault(kind: str, fault: bytes) -> tuple[bytes, int]:
    """The bytes of a valid input of this kind with one number replaced by fault, and fault's offset.

    The log in log_text's layout gets its fault in its last element, so
    the element scan reads the first elements before it gives up.
    """
    if kind == "state":
        data, start = Path(MIDFIELD).read_bytes(), 0
    elif kind == "config":
        data, start = b'{"policy": {"threshold": 0.5}}', 0
    else:
        data = (GOLDEN_DIR / "simulate_seed42.json").read_bytes()
        if kind == "log-whole":
            data = json.dumps(json.loads(data)).encode()
        start = data.rindex(b",\n  [") if kind == "log-scan" else len(data) // 2
    m = _NUMBER.search(data, start)
    return data[: m.start()] + fault + data[m.end() :], m.start()


@pytest.mark.parametrize("fault", ["byte-ff", "long-integer"])
@pytest.mark.parametrize("kind", ["state", "config", "log-scan", "log-whole"])
def test_undecodable_bytes_and_overlong_integers_are_invalid_json(capsys, tmp_path, kind, fault):
    digits = sys.get_int_max_str_digits()
    data, pos = _input_with_fault(kind, b"\xff" if fault == "byte-ff" else b"7" * (digits + 1))
    path = tmp_path / "input.json"
    path.write_bytes(data)
    argv = {
        "state": ["decide", "--state", str(path), "--style", "3:1"],
        "config": ["--config", str(path), "decide", "--state", MIDFIELD, "--style", "3:1"],
    }.get(kind, ["analyze", "--log", str(path)])
    if fault == "byte-ff":
        message = f"'utf-8' codec can't decode byte 0xff in position {pos}: invalid start byte"
    else:
        message = f"an integer has more than {digits} digits"
    label = kind.partition("-")[0]
    assert run(capsys, *argv) == (1, "", f"error: {label} {path}: invalid JSON: {message}\n")
    if kind == "log-scan":
        assert data.startswith(b"[\n  [") and _log_sequences(data) is None  # the scan gave up on it


def test_reused_parser_leaks_no_state(capsys, tmp_path, monkeypatch):
    calls = [
        ["decide", "--state", BOX, "--style", "3:1", "--threshold", "0.1"],
        ["decide", "--state", BOX, "--style", "3:1"],
        ["--help"],
        ["decide", "--style", "3:1"],
        ["simulate", "--state", MIDFIELD, "--style", "3:1", "--trials", "5", "--out", "{out}"],
        ["simulate", "--state", MIDFIELD, "--style", "3:1", "--trials", "5"],
    ]

    def session(fresh: bool, name: str):
        outcomes = []
        for argv in calls:
            if fresh:
                playnet.cli._parser.cache_clear()
            out_file = tmp_path / name
            code, out, err = run(capsys, *[str(out_file) if a == "{out}" else a for a in argv])
            outcomes.append((code, out, err))
        return outcomes, (tmp_path / name).read_bytes()

    real = playnet.cli.build_parser
    built = []

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(playnet.cli, "build_parser", counting)
    playnet.cli._parser.cache_clear()
    reused = session(False, "reused.json")
    assert len(built) == 1
    assert session(True, "fresh.json") == reused
    codes = [code for code, _, _ in reused[0]]
    assert codes == [0, 0, 0, 2, 0, 0]
    assert "threshold 0.1)" in reused[0][0][1] and "threshold 0.5)" in reused[0][1][1]


def _file_with_huge_int(tmp_path, doc) -> str:
    """doc written as JSON with every "HUGE" string replaced by a 400-digit integer."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', HUGE_INT))
    return str(path)


def _log_with_huge_int(tmp_path, edit) -> str:
    log = json.loads((GOLDEN_DIR / "simulate_seed42.json").read_text())
    edit(log[0][0]["network"])
    return _file_with_huge_int(tmp_path, log)


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda tmp: ["analyze", "--log", _log_with_huge_int(tmp, lambda net: net.update(s="HUGE"))],
        lambda tmp: ["analyze", "--log", _log_with_huge_int(tmp, lambda net: net.update(tau="HUGE"))],
        lambda tmp: ["frontier", "--log",
                     _log_with_huge_int(tmp, lambda net: net["edges"][0].update(p="HUGE"))],
        lambda tmp: ["--config", _file_with_huge_int(tmp, {"estimators": {"pass_decay_m": "HUGE"}}),
                     "decide", "--state", MIDFIELD, "--style", "3:1"],
        lambda tmp: ["decide", "--state", MIDFIELD, "--style", HUGE_INT + ":1"],
    ],
    ids=["analyze-s", "analyze-tau", "frontier-p", "config-pass_decay_m", "style-weight"],
)
def test_integer_too_large_for_a_float_is_validation_error(capsys, tmp_path, make_argv):
    code, out, err = run(capsys, *make_argv(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "integer too large for a float" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [("path", 2**20), ("path", ["x"]), ("sha256", 5)],
    ids=["path-number", "path-array", "sha256-number"],
)
def test_regenerate_requires_string_input_fields(capsys, tmp_path, field, value):
    # an integer path would be opened as a file descriptor
    out_file = tmp_path / "log.json"
    assert run(capsys, "simulate", "--state", MIDFIELD, "--style", "3:1", "--out", str(out_file))[0] == 0
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    manifest["inputs"]["state"][field] = value
    with pytest.raises(ValueError, match=rf"^manifest: inputs\.state\.{field}=.* must be a string$"):
        regenerate(manifest)


_ARTIFACT_ARGV = {
    "decide": ["decide", "--state", MIDFIELD, "--style", "3:1", "--dot"],
    "simulate": ["simulate", "--state", MIDFIELD, "--style", "3:1", "--trials", "3", "--seed", "4", "--out"],
    "compare": ["compare", "--state", MIDFIELD, "--styles", "3:1,1:3", "--trials", "3", "--csv"],
}
_DROPPED = object()  # stands for removing the field
_MANIFEST_VALUES = [None, True, False, -1, 10**400, 1.5, math.nan, "", "3:1", [], {}, _DROPPED]
_UNREAD_BY_REGENERATE = {("tool",), ("version",), ("timestamp",)}


@pytest.mark.parametrize("command", sorted(_ARTIFACT_ARGV))
def test_regenerate_on_a_mutated_manifest_gives_the_text_or_value_error(capsys, tmp_path, command):
    # run.trials stays small: a valid trial count runs up to a million trials
    out_file = tmp_path / "artifact"
    assert run(capsys, *_ARTIFACT_ARGV[command], str(out_file))[0] == 0
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    for path in list(json_paths(manifest))[1:]:
        for value in _MANIFEST_VALUES:
            mutated = json.loads(json.dumps(manifest))
            parent = functools.reduce(lambda obj, key: obj[key], path[:-1], mutated)
            if value is _DROPPED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            try:
                text = regenerate(mutated)
            except ValueError:
                continue
            except OSError:  # an unreadable state path: run_cli maps it to exit 1 as well
                assert path == ("inputs", "state", "path"), (path, value)
                continue
            assert isinstance(text, str), (path, value)
            if path in _UNREAD_BY_REGENERATE:
                assert text == out_file.read_text(), (path, value)


_RUN_KEYS = {"decide": ["style"], "simulate": ["style", "trials", "seed"], "compare": ["styles", "trials", "seed"]}
_OLD_RUN_FIELDS = {
    "decide": {"threshold": 0.5, "tie_break": "lowest_id"},
    "simulate": {"threads": 4},
    "compare": {"threads": 4},
}


@pytest.mark.parametrize("command", sorted(_ARTIFACT_ARGV))
def test_manifest_from_before_threads_went_still_regenerates(capsys, tmp_path, command):
    # older manifests recorded --threads, and decide its threshold and tie-break
    out_file = tmp_path / "artifact"
    assert run(capsys, *_ARTIFACT_ARGV[command], str(out_file))[0] == 0
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    assert list(manifest["run"]) == _RUN_KEYS[command]
    manifest["run"].update(_OLD_RUN_FIELDS[command])
    assert regenerate(manifest) == out_file.read_text()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_threads_flag_is_a_usage_error(capsys, command):
    argv = _ARTIFACT_ARGV[command][:-1] + ["--threads", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--threads" in err


@pytest.mark.parametrize("command", sorted(_ARTIFACT_ARGV))
def test_tie_break_in_older_configs_and_manifests(capsys, tmp_path, command):
    # lowest_id is the one tie rule: files that name it load and change no
    # byte; files naming any other rule are invalid input
    plain = tmp_path / "plain"
    assert run(capsys, *_ARTIFACT_ARGV[command], str(plain))[0] == 0
    config = tmp_path / "config.json"
    config.write_text('{"policy": {"threshold": 0.5, "tie_break": "lowest_id"}}')
    named = tmp_path / "named"
    assert run(capsys, "--config", str(config), *_ARTIFACT_ARGV[command], str(named))[0] == 0
    assert named.read_bytes() == plain.read_bytes()
    manifest = json.loads(Path(manifest_path(plain)).read_text())
    assert manifest["config"]["policy"] == {"threshold": 0.5}
    manifest["config"]["policy"]["tie_break"] = "lowest_id"
    assert regenerate(manifest) == plain.read_text()
    manifest["config"]["policy"]["tie_break"] = "highest_id"
    with pytest.raises(ValueError, match="^manifest config: policy: unknown tie_break 'highest_id'"):
        regenerate(manifest)
    config.write_text('{"policy": {"tie_break": "highest_id"}}')
    code, out, err = run(capsys, "--config", str(config), *_ARTIFACT_ARGV[command], str(tmp_path / "other"))
    assert (code, out) == (1, "")
    assert err.count("error:") == 1 and "tie_break" in err
    assert not (tmp_path / "other").exists()


@pytest.mark.parametrize("command", sorted(_ARTIFACT_ARGV))
def test_tie_break_flag_is_a_usage_error(capsys, command):
    argv = _ARTIFACT_ARGV[command][:-1] + ["--tie-break", "lowest_id"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--tie-break" in err


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=["022", "002"])
@pytest.mark.parametrize("command", sorted(_ARTIFACT_ARGV))
def test_artifact_files_get_the_mode_a_plain_write_gives(capsys, tmp_path, command, umask):
    out_file = tmp_path / "artifact"
    old = os.umask(umask)
    try:
        assert run(capsys, *_ARTIFACT_ARGV[command], str(out_file))[0] == 0
    finally:
        os.umask(old)
    for path in (out_file, Path(manifest_path(out_file))):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


def _overwrite_case(tmp_path, case):
    """(argv, env, the input file an artifact path names) for one way of overwriting an input."""
    state = tmp_path / "state.json"
    state.write_text((DATA_DIR / "midfield_state.json").read_text())
    config = tmp_path / "config.json"
    config.write_text('{"policy": {"threshold": 0.5}}')
    (tmp_path / "link.json").symlink_to(state)
    named = str(state)
    env = {}
    if case == "simulate-out-state":
        argv = ["simulate", "--state", named, "--style", "3:1", "--out", named]
    elif case == "compare-csv-state":
        argv = ["compare", "--state", named, "--styles", "3:1", "--trials", "2", "--csv", named]
    elif case == "decide-dot-state":
        argv = ["decide", "--state", named, "--style", "3:1", "--dot", named]
    elif case == "out-symlink-to-state":
        argv = ["simulate", "--state", named, "--style", "3:1", "--out", str(tmp_path / "link.json")]
    elif case == "manifest-is-state":
        state.rename(tmp_path / "log.json.manifest.json")
        state = tmp_path / "log.json.manifest.json"
        argv = ["simulate", "--state", str(state), "--style", "3:1", "--out", str(tmp_path / "log.json")]
    elif case == "out-is-config-flag":
        argv = ["--config", str(config), "simulate", "--state", named, "--style", "3:1", "--out", str(config)]
    else:  # out-is-config-env
        env = {"PLAYNET_CONFIG": str(config)}
        argv = ["compare", "--state", named, "--styles", "3:1", "--trials", "2", "--csv", str(config)]
    return argv, env, (config if "config" in case else state)


@pytest.mark.parametrize(
    "case",
    [
        "simulate-out-state", "compare-csv-state", "decide-dot-state", "out-symlink-to-state",
        "manifest-is-state", "out-is-config-flag", "out-is-config-env",
    ],
)
def test_an_artifact_never_overwrites_its_own_input(capsys, tmp_path, monkeypatch, case):
    argv, env, victim = _overwrite_case(tmp_path, case)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if not path.is_symlink()}
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "would overwrite the input file" in err
    assert victim.read_bytes() == before[victim.name]
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir() if not path.is_symlink()}
    assert after == before  # nothing written, not even a manifest


@pytest.mark.parametrize("directory", ["artifact", "manifest"])
def test_a_failed_artifact_write_leaves_neither_file(capsys, tmp_path, directory):
    out_file = tmp_path / "log.json"
    blocked = out_file if directory == "artifact" else Path(manifest_path(out_file))
    blocked.mkdir()
    code, out, err = run(capsys, "simulate", "--state", MIDFIELD, "--style", "3:1", "--out", str(out_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == [blocked.name]  # no artifact, manifest or temporary
    assert not any(blocked.iterdir())


# JSON texts spliced into a recorded sequence log in place of one value
_LOG_RAW_VALUES = st.one_of(
    st.sampled_from([
        HUGE_INT, "-" + HUGE_INT, "1e400", "-1e400", "NaN", "0", "1", "8", "11", "-1", "true", "null",
        '"x"', '"pass"', '"shoot"', '"shot_scored"', '"pass_completed"', "[]", "{}",
    ]),
    st.floats(-1.0, 12.0).map(json.dumps),
)


@settings(max_examples=300, deadline=None)
@given(picks=json_mutations(_LOG_RAW_VALUES), cut=JSON_CUTS, indent=st.sampled_from([2, None]))
def test_mutated_log_gives_sequences_or_one_value_error(picks, cut, indent):
    doc = json.loads((GOLDEN_DIR / "simulate_seed42.json").read_text())
    data = mutated_json_text(doc, picks, cut, indent).encode()  # indented: read by element texts
    sequences = _read_outcome(read_log, data)  # what analyze and frontier read
    assert sequences == _read_outcome(_read_whole, data)
    if isinstance(sequences, str):
        return
    for seq in sequences:
        assert sequence_from_obj(sequence_to_obj(seq)) == seq
        for step in seq.steps:
            net = step.network
            values = (net.s, net.tau, *(edge.p for edge in net.edges.values()))
            assert all(type(v) is float and math.isfinite(v) for v in values)


@pytest.mark.parametrize(
    "style",
    ["1" + "0" * 308 + ":1", "1:1" + "0" * 308, "9" * 5000 + ":1"],
    ids=["x-1e308", "y-1e308", "x-past-digit-limit"],
)
@pytest.mark.parametrize("command", ["decide", "simulate", "compare"])
def test_style_whose_score_overflows_is_validation_error(capsys, command, style):
    # 10**308 is inside float range, but x * 10.0 is inf and y * 10 is no float;
    # 5000 digits are past int()'s limit, whose own message names no style
    argv = {
        "decide": ["decide", "--style", style],
        "simulate": ["simulate", "--style", style, "--trials", "3"],
        "compare": ["compare", "--styles", f"3:1,{style}", "--trials", "3"],
    }[command]
    code, out, err = run(capsys, *argv, "--state", MIDFIELD)
    assert code == 1
    assert out == ""
    assert err == "error: style weights x and y give a score too large for a float\n"


@pytest.mark.parametrize(
    "command, blocked",
    [("decide", "artifact"), ("simulate", "artifact"), ("compare", "artifact"), ("simulate", "manifest")],
    ids=["decide-dot", "simulate-out", "compare-csv", "simulate-manifest"],
)
def test_an_artifact_path_that_is_a_directory_is_refused_before_writing(capsys, tmp_path, command, blocked):
    target = tmp_path / "out"
    sibling = Path(manifest_path(target))
    directory, kept = (target, sibling) if blocked == "artifact" else (sibling, target)
    directory.mkdir()
    kept.write_bytes(b'{"kept": true}\n')
    argv = {
        "decide": ["decide", "--style", "3:1", "--dot"],
        "simulate": ["simulate", "--style", "3:1", "--trials", "3", "--out"],
        "compare": ["compare", "--styles", "3:1,1:3", "--trials", "3", "--csv"],
    }[command]
    code, out, err = run(capsys, *argv, str(target), "--state", MIDFIELD)
    assert (code, out) == (1, "")
    assert err == f"error: {directory}: is a directory\n"  # not the name of a temporary file
    assert kept.read_bytes() == b'{"kept": true}\n'
    assert sorted(path.name for path in tmp_path.iterdir()) == [target.name, sibling.name]  # no .part file
    assert not any(directory.iterdir())


# --- the log reader parses and checks each distinct sequence once -----------


def _read_each(obj):
    """The log reader without its memo: every sequence checked on its own."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("expected a nonempty array")
    if isinstance(obj[0], dict):
        return [sequence_from_obj(obj)]
    sequences = []
    for i, item in enumerate(obj):
        try:
            sequences.append(sequence_from_obj(item))
        except ValueError as err:
            raise ValueError(f"sequence {i}: {err}") from None
    return sequences


def _read_whole(data: bytes):
    """The log reader without its text path: one whole parse, then every sequence checked."""
    return _read_each(parse_json(data))


def _read_outcome(read, *args):
    """read(*args)'s sequences, or the message of its ValueError."""
    try:
        return read(*args)
    except ValueError as err:
        return f"ValueError: {err}"


@functools.cache
def _log_text_of(name: str) -> str:
    """The golden log, or a 100-trial midfield log (100 sequences, 6 distinct)."""
    if name == "golden":
        return (GOLDEN_DIR / "simulate_seed42.json").read_text()
    cfg = SimulationConfig(
        policy=DecisionPolicy(style=LinearStyle(1, 3)), estimators=DEFAULT_PARAMS, seed=3,
    )
    return log_text([r.sequence for r in run_trials(load_match_state(MIDFIELD), cfg, 0, 100)])


def _network_reads(monkeypatch) -> list:
    """The network objects DecisionNetwork.from_json_dict is given from here on."""
    real = DecisionNetwork.from_json_dict
    reads = []
    monkeypatch.setattr(DecisionNetwork, "from_json_dict", classmethod(lambda cls, obj: reads.append(obj) or real(obj)))
    return reads


def _distinct_steps(doc) -> set:
    """The distinct (network, decision) values of the steps of a parsed log of several sequences."""
    return {json.dumps([step["network"], step["decision"]]) for seq in doc for step in seq}


def test_log_reader_checks_each_distinct_sequence_once(monkeypatch, no_kept_reads):
    obj = json.loads(_log_text_of("midfield"))
    real = PossessionSequence.__post_init__
    checked = []
    monkeypatch.setattr(PossessionSequence, "__post_init__", lambda seq: checked.append(seq) or real(seq))
    networks = _network_reads(monkeypatch)
    sequences = read_log(_log_text_of("midfield").encode())
    distinct = {json.dumps(item) for item in obj}
    assert len(checked) == len(distinct) < len(obj)
    assert len({id(seq) for seq in sequences}) == len(distinct)  # a repeat is the same frozen sequence
    # each distinct (network, decision) is read once: the steps of a known one are not read again
    steps = sum(len(json.loads(item)) for item in distinct)
    assert len(networks) == len(_distinct_steps(obj)) < steps
    assert sequences == _read_each(obj)


def _retyped(value) -> str:
    """JSON text of a value equal to value but of another type: 6 -> 6.0, 1.0 -> true, 0.0 -> -0.0."""
    if type(value) is int and value in (0, 1):
        return json.dumps(bool(value))
    if type(value) is int:
        return f"{value}.0"
    if type(value) is float and value == 0.0:
        return "-0.0"
    if type(value) is float and value == 1.0:
        return "true"
    if type(value) is float and value.is_integer():
        return str(int(value))
    return json.dumps(value)


# besides the log property's texts: a value equal to the replaced one but of another type
_MEMO_RAW_VALUES = st.one_of(
    _LOG_RAW_VALUES,
    st.just(_retyped),
    st.sampled_from(["-0.0", "1.0", "6.0", "8.0", "true", "false", '["pass_completed"]', '{"a": 1}']),
)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["golden", "midfield"]),
    picks=json_mutations(_MEMO_RAW_VALUES),
    indent=st.sampled_from([2, None]),
)
def test_memoised_log_read_equals_checking_each_sequence(name, picks, indent):
    doc = json.loads(_log_text_of(name))
    if name == "golden":
        doc += json.loads(_log_text_of(name))  # each sequence twice; the midfield log repeats its own
    data = mutated_json_text(doc, picks, None, indent).encode()  # a pick changes one copy
    assert _read_outcome(read_log, data) == _read_outcome(_read_whole, data)


def _one_step_sequence(holder=1, target=2, s=0.25, p=0.5, shoot=False) -> list:
    network = DecisionNetwork(holder, s, 1.0, {j: (p, 1) for j in range(1, 12) if j != holder})
    if shoot:
        step = PossessionStep(network, Decision("shoot"), StepOutcome.SHOT_MISSED)
    else:
        step = PossessionStep(network, Decision("pass", target=target), StepOutcome("pass_intercepted"))
    return sequence_to_obj(PossessionSequence((step,)))


_DROP = object()  # as the value of _set: delete the field


def _set(*path_and_value):
    """An edit of a one-step log that sets the field at path to value."""
    *path, key, value = path_and_value

    def edit(seq):
        obj = seq[0]
        for part in path:
            obj = obj[part]
        if value is _DROP:
            del obj[key]
        else:
            obj[key] = value
    return edit


@pytest.mark.parametrize(
    "valid, edit, rejected",
    [
        ({}, _set("network", "edges", 0, "r", 1.0), True),
        ({}, _set("network", "edges", 0, "r", True), True),
        ({"s": 1.0}, _set("network", "s", True), True),
        ({"holder": 2, "target": 1}, _set("network", "holder", 2.0), True),
        ({"holder": 1, "target": 2}, _set("network", "holder", True), True),
        ({"holder": 1, "target": 2}, _set("decision", "target", 2.0), True),
        ({"holder": 2, "target": 1}, _set("decision", "target", True), True),
        ({"shoot": True}, _set("decision", "target", None), False),
        ({}, _set("decision", "target", _DROP), True),
        ({}, _set("decision", "target", None), True),
        ({"p": 0.0}, _set("network", "edges", 0, "p", -0.0), False),
        ({}, _set("network", "s", [0.25]), True),
        ({}, _set("outcome", ["pass_intercepted"]), True),
        ({"shoot": True}, _set("decision", "target", 2), True),
        ({"shoot": True}, _set("decision", "taget", 3), True),
        ({}, _set("network", "edges", 0, "q", 0.5), True),
    ],
    ids=[
        "r-1.0", "r-true", "s-true", "holder-2.0", "holder-true", "target-2.0", "target-true",
        "shoot-target-null", "pass-target-missing", "pass-target-null", "p-negative-zero",
        "s-unhashable", "outcome-unhashable", "shoot-with-target", "shoot-taget", "edge-q",
    ],
)
def test_a_valid_copy_does_not_vouch_for_a_changed_one(valid, edit, rejected):
    first = _one_step_sequence(**valid)
    second = json.loads(json.dumps(first))
    edit(second)
    for log in ([first, second], [second, first]):
        for indent in (2, None):  # read by element texts, and parsed whole
            data = (json.dumps(log, indent=indent) + "\n").encode()
            assert (_log_sequences(data) is None) == (indent is None or rejected)
            got = _read_outcome(read_log, data)
            assert got == _read_outcome(_read_whole, data)
            assert isinstance(got, str) == rejected


def _pass_chain() -> list:
    """The log shape of a pass from 1 to 2, completed, then a pass from 2 to 3, intercepted."""
    steps = []
    for holder, target, outcome in ((1, 2, "pass_completed"), (2, 3, "pass_intercepted")):
        network = DecisionNetwork(holder, 0.25, 1.0, {j: (0.5, 3) for j in range(1, 12) if j != holder})
        steps.append(PossessionStep(network, Decision("pass", target), StepOutcome(outcome)))
    return sequence_to_obj(PossessionSequence(tuple(steps)))


@pytest.mark.parametrize("changed", [0, 1], ids=["first-step-changed", "second-step-changed"])
@pytest.mark.parametrize(
    "field, known, value, rejected",
    [("r", 3, 3.0, True), ("r", 3, True, True), ("p", 0.0, -0.0, False), ("p", -0.0, 0.0, False)],
    ids=["r-3.0", "r-true", "p-negative-zero", "p-positive-zero"],
)
def test_a_known_step_does_not_vouch_for_a_changed_one(field, known, value, rejected, changed):
    # the copy changes one step's first edge, from a text that reads to a value equal to the
    # new one, so the other step is known when the second element is read
    first = _pass_chain()
    for step in first:
        step["network"]["edges"][0][field] = known
    second = json.loads(json.dumps(first))
    second[changed]["network"]["edges"][0][field] = value
    for at, log in ((1, [first, second]), (0, [second, first])):
        data = (json.dumps(log, indent=2) + "\n").encode()
        assert (_log_sequences(data) is None) == rejected
        got = _read_outcome(read_log, data)
        whole = _read_outcome(_read_whole, data)
        assert got == whole
        assert isinstance(got, str) == rejected
        if not rejected:  # -0.0 == 0.0, so compare the texts, which keep each zero's sign
            assert [json.dumps(sequence_to_obj(q)) for q in got] == [json.dumps(sequence_to_obj(q)) for q in whole]
            assert json.dumps(sequence_to_obj(got[at])) == json.dumps(second)


def _step_text(step: dict, key: str = '"outcome"') -> str:
    """A step's text as log_text lays it in an element; key is the text of its "outcome" key."""
    return json.dumps(step, indent=2).replace("\n", "\n    ").replace('"outcome"', key)


_ESCAPED = '"outc\\u006fme"'  # the key "outcome", written without the text outcome


@pytest.mark.parametrize(
    "case",
    [
        "separator-of-five", "step-ends-early", "outcome-key-escaped",
        "escaped-key-and-duplicate-key", "unlaid-outcome-and-duplicate-key",
    ],
)
def test_a_step_text_outside_the_layout_vouches_for_nothing(case):
    # the first element's steps become known; read as the layout has it, a text in the second
    # would be a known step, or one step where the log holds more
    s0, s1 = _pass_chain()
    first, second = [_step_text(s0), _step_text(s1)], [_step_text(s0), _step_text(s1)]
    separator = ",\n    "
    if case == "separator-of-five":  # the first element's second step starts a byte early
        separator = ",\n   "
        second[1] = second[1][1:]  # a text without its "{", as the layout would have cut it
    elif case == "step-ends-early":  # the first "outcome" is the key of an object after the step
        second[1] = _step_text(s1, _ESCAPED) + ', {"x": 1,\n      "outcome": "pass_intercepted"\n    }'
    elif case.endswith("-and-duplicate-key"):
        # the first element holds as many "outcome" lines as steps, but not the first step's,
        # escaped or on the line of its "}", and the second's network holds one in a duplicate
        # "holder" that a parse drops: cut there, the second step's text is a fragment, which
        # the second element holds alone
        fake = '"holder": {"outcome": "shot_scored"\n    },\n    "holder": 2,'
        lead = _step_text(s0, _ESCAPED) if case.startswith("escaped") else _step_text(s0).replace('"\n    }', '"}')
        first = [lead, _step_text(s1).replace('"holder": 2,', fake, 1)]
        second[1] = second[1][second[1].index('"holder": 2,'):]
    else:  # the first "outcome" is the second step's, so one step text holds both steps
        first[0] = second[0] = _step_text(s0, _ESCAPED)
        second[1] = _step_text(dict(s1, outcome="forced_loss"))
    data = "[\n  [\n    " + separator.join(first) + "\n  ],\n  [\n    " + ",\n    ".join(second) + "\n  ]\n]\n"
    data = data.encode()
    assert _log_sequences(data) is None
    got = _read_outcome(read_log, data)
    assert got == _read_outcome(_read_whole, data)
    assert isinstance(got, list) == (case == "outcome-key-escaped")


def _parsed_steps(texts, elements) -> int:
    """How many steps the texts given to parse_json hold: each is one step's text, a part of an element's."""
    for text in texts:
        assert type(json.loads(text)) is dict
        assert any(text in element for element in elements)
    return len(texts)


def test_log_reader_parses_each_distinct_element_once_and_never_the_whole(monkeypatch, tmp_path, no_kept_reads):
    path = tmp_path / "log.json"
    path.write_text(_log_text_of("midfield"))
    real = playnet.sequence.parse_json
    parsed = []
    monkeypatch.setattr(playnet.sequence, "parse_json", lambda text: parsed.append(text) or real(text))
    networks = _network_reads(monkeypatch)
    sequences = load_log(str(path))
    doc = json.loads(path.read_text())
    elements = path.read_text()[5:-3].split(",\n  [")  # each element's text after its "["
    assert len(elements) == len(doc) > len(set(elements))
    # only the new steps of each element are parsed, each on its own: each distinct
    # (network, decision) text is parsed and checked once, never an element or the whole log
    assert _parsed_steps(parsed, set(elements)) == len(networks) == len(_distinct_steps(doc))
    assert sequences == _read_whole(path.read_bytes())


@pytest.mark.parametrize("repeat_first", [False, True], ids=["no-repeats", "last-repeats-first"])
def test_log_reader_parses_each_element_of_a_log_without_repeats(monkeypatch, repeat_first, no_kept_reads):
    rng = random.Random(21)
    log = [sequence_to_obj(random_sequence(rng)) for _ in range(50)]
    if repeat_first:
        log.append(log[0])
    data = (json.dumps(log, indent=2) + "\n").encode()  # the layout simulate writes, numbers exact
    real = playnet.sequence.parse_json
    parsed = []
    monkeypatch.setattr(playnet.sequence, "parse_json", lambda text: parsed.append(text) or real(text))
    networks = _network_reads(monkeypatch)
    sequences = read_log(data)
    # no step recurs, so each step's text is parsed on its own, in turn, never an element or the log
    assert [json.loads(text) for text in parsed] == [step for seq in log[:50] for step in seq]
    assert len(networks) == len(parsed)
    assert sequences == _read_whole(data)
    assert len({id(seq) for seq in sequences}) == 50
    assert (sequences[-1] is sequences[0]) == repeat_first


def _element_texts(count: int, seed: int) -> list[bytes]:
    """count distinct element texts (after their "[") of valid one- or two-step sequences."""
    rng = random.Random(seed)
    return [json.dumps(sequence_to_obj(random_sequence(rng, max_len=2)), indent=2).encode()[1:]
            .replace(b"\n", b"\n  ") for _ in range(count)]


def _prefix_texts(seed: int) -> list[bytes]:
    """Element texts, as _element_texts has them, of a random passing chain and of each of its prefixes.

    A prefix ends with its last pass intercepted, so each step of the
    chain but its last is completed in every longer element and
    intercepted at the end of one.
    """
    rng = random.Random(seed)
    seq = random_sequence(rng, max_len=6)
    while len(seq) < 3:
        seq = random_sequence(rng, max_len=6)
    steps = seq.steps
    prefixes = [
        PossessionSequence(steps[: k - 1] + (PossessionStep(steps[k - 1].network, steps[k - 1].decision,
                                                            StepOutcome.PASS_INTERCEPTED),))
        for k in range(1, len(steps))
    ]
    return [json.dumps(sequence_to_obj(q), indent=2).encode()[1:].replace(b"\n", b"\n  ")
            for q in [*prefixes, seq]]


def _log_of(elements: list[bytes]) -> bytes:
    return b"[\n  [" + b",\n  [".join(elements) + b"\n]\n"


def _bad(text: bytes) -> bytes:
    """An element text that reads as JSON but not as a sequence: its first outcome label unknown."""
    return text.replace(b'"outcome": "', b'"outcome": "x', 1)


# name -> (element texts, whether the reader reads them by element texts rather than whole)
_READER_CASES = {
    # a known text that is a prefix of a longer element, so not followed by the separator:
    # with whitespace it is an element of its own, but outside log_text's layout, with "x"
    # the log is invalid, and with ", [" and an element it holds two sequences; a whole
    # parse reads all three
    "known-text-then-space": lambda a: ([a[0], a[0] + b" ", a[0], a[0] + b"\n", a[0]], False),
    "known-text-then-garbage": lambda a: ([a[0], a[0] + b"x", a[0]], False),
    "known-text-then-element": lambda a: ([a[0], a[0] + b", [" + a[1], a[0]], False),
    # known steps followed by the separator of steps, and no step
    "known-steps-then-separator": lambda a: ([a[0], a[0][:-4] + b",\n    ", a[0]], False),
    # a known text followed by what separates elements but no "[": one element
    "known-text-then-separator-without-bracket": lambda a: ([a[0], a[0] + b",\n  ", a[0]], False),
    # a known text, five bytes that are not the separator, and an element: invalid JSON
    "known-text-then-five-bytes-and-element": lambda a: ([a[0], a[0] + b"x\n  [" + a[1], a[0]], False),
    "all-distinct": lambda a: (a[:12], True),
    "six-distinct-in-turn": lambda a: (a[:6] * 5, True),
    # more distinct texts than the reader matches in place, so each recurs after it was
    # dropped from the recent ones, or, reversed, some recur while still recent
    "twelve-distinct-in-turn": lambda a: (a[:12] * 3, True),
    "twelve-distinct-then-reversed": lambda a: (a[:12] + a[11::-1], True),
    "repeats-reordered": lambda a: ([a[k] for k in (0, 1, 2, 3, 0, 4, 3, 2, 1, 0, 4, 4)], True),
    # elements that share steps: a known step is not parsed or checked again
    "shared-steps-longest-first": lambda a: (_prefix_texts(5)[::-1] * 2, True),
    "shared-steps-shortest-first": lambda a: ([*_prefix_texts(5), a[0], *_prefix_texts(6)], True),
}


@pytest.mark.parametrize("case", list(_READER_CASES))
@pytest.mark.parametrize("fault", ["valid", "bad-last", "bad-middle"])
def test_log_reader_equals_a_whole_parse_on_written_logs(monkeypatch, case, fault, no_kept_reads):
    elements, by_elements = _READER_CASES[case](_element_texts(12, seed=5))
    if fault == "bad-last":
        elements[-1] = _bad(elements[-1])
    elif fault == "bad-middle":
        elements[len(elements) // 2] = _bad(elements[len(elements) // 2])
    data = _log_of(elements)
    real = playnet.sequence.parse_json
    parsed = []
    monkeypatch.setattr(playnet.sequence, "parse_json", lambda text: parsed.append(text) or real(text))
    expected = _read_outcome(_read_whole, data)
    parsed.clear()
    networks = _network_reads(monkeypatch)
    got = _read_outcome(read_log, data)
    assert got == expected
    if fault != "valid":
        assert isinstance(got, str)
    elif by_elements:
        assert isinstance(got, list) and len(got) == len(elements)
        # each distinct (network, decision) text parsed and checked once, never the whole log
        distinct = _distinct_steps(json.loads(data))
        assert _parsed_steps(parsed, {text.decode() for text in elements}) == len(networks) == len(distinct)
        by_text = {}
        for text, seq in zip(elements, got):  # repeats of a text share its sequence
            assert by_text.setdefault(text, seq) is seq


# byte strings made of what separates and starts the elements of an indented log
_LAYOUT_BYTES = st.lists(
    st.sampled_from([b",", b"\n", b" ", b"  ", b"[", b"x", b",\n  [", b",\n  ", b"\n  ["]), max_size=40,
).map(b"".join)


def _check_split(body: bytes) -> None:
    data = b"[\n  [" + body + b"\n]\n"
    elements = [text.decode() for text in body.split(b",\n  [")]
    read = []
    with pytest.MonkeyPatch.context() as patch:  # each element text reads as itself, with nothing kept
        patch.setattr(playnet.sequence, "_element_sequence", lambda text, seen: read.append(text) or text)
        patch.setattr(playnet.sequence, "_KEPT", [])
        assert _log_sequences(data) == elements
    assert read == list(dict.fromkeys(elements))  # each distinct text once, in order


@settings(max_examples=500, deadline=None)
@given(body=_LAYOUT_BYTES)
def test_log_reader_finds_the_elements_of_a_split(body):
    _check_split(body)


# more distinct element texts than _log_sequences matches in place, none holding the
# separator, some a prefix of another, each at least once among up to 30 repeats
_MANY_TEXTS = st.lists(
    st.lists(st.sampled_from([b",", b"\n", b" ", b"[", b"x", b",\n  ", b"\n  ["]), max_size=6)
    .map(b"".join).filter(lambda text: b",\n  [" not in text),
    min_size=_RECENT + 1, max_size=_RECENT + 4, unique=True,
).flatmap(lambda texts: st.lists(st.sampled_from(texts), max_size=30).flatmap(
    lambda repeats: st.permutations([*texts, *repeats])))


@settings(max_examples=300, deadline=None)
@given(elements=_MANY_TEXTS)
def test_log_reader_finds_the_elements_of_a_split_of_many_texts(elements):
    _check_split(b",\n  [".join(elements))


def test_a_second_read_of_a_log_parses_nothing_and_shares_its_sequences(monkeypatch, no_kept_reads):
    data = _log_text_of("midfield").encode()
    first = read_log(data)
    real = playnet.sequence.parse_json
    parsed = []
    monkeypatch.setattr(playnet.sequence, "parse_json", lambda text: parsed.append(text) or real(text))
    networks = _network_reads(monkeypatch)
    second = read_log(data)
    # its 6 distinct element texts are still recent, so each element is matched in place
    assert parsed == [] and networks == []
    assert len(second) == len(first) and all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("case", [case for case in _READER_CASES if case.startswith("known-text-then-")])
def test_a_text_kept_from_another_log_is_only_that_element(case, no_kept_reads):
    # the builders' logs split in two: the known text is read in the first log, and met in
    # the second followed by what is not the separator of elements or the log's end
    elements, _ = _READER_CASES[case](_element_texts(12, seed=5))
    first, second = _log_of(elements[:1]), _log_of(elements[1:])
    assert _read_outcome(read_log, first) == _read_whole(first)
    assert playnet.sequence._KEPT[0][0] == elements[0]
    assert _read_outcome(read_log, second) == _read_outcome(_read_whole, second)


def test_reads_from_several_threads_each_equal_a_whole_parse(monkeypatch, no_kept_reads):
    # the logs share element texts and steps, one fails, and the bound on kept heads is low,
    # so the threads publish, match and drop one another's kept texts and heads
    monkeypatch.setattr(playnet.sequence, "_MAX_HEADS", 8)
    pool = _element_texts(12, seed=5)
    logs = [
        _log_of(pool[0:6] * 3),
        _log_of(pool[3:9] * 2 + pool[8:2:-1]),
        _log_of([*_prefix_texts(5), pool[6], *_prefix_texts(5)[::-1], *pool[6:12]]),
        _log_of(pool[0:4] + [_bad(pool[9])] + pool[0:4]),
    ]
    expected = [_read_outcome(_read_whole, data) for data in logs]
    assert isinstance(expected[3], str)
    errors = []

    def read_each(data, whole):
        try:
            for _ in range(60):
                if _read_outcome(read_log, data) != whole:
                    raise AssertionError("a read differs from a whole parse")
        except Exception as err:  # reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_each, args=pair) for pair in zip(logs, expected)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_a_read_after_one_of_more_heads_than_the_bound_starts_without_them(monkeypatch, no_kept_reads):
    rng = random.Random(8)
    wide = []
    while sum(len(q) for q in wide) <= playnet.sequence._MAX_HEADS:  # random steps are all distinct
        wide.append(random_sequence(rng))
    read_log((json.dumps([sequence_to_obj(q) for q in wide], indent=2) + "\n").encode())
    assert playnet.sequence._HEADS == {}  # it ended past the bound, so it kept none
    # heads past the bound, as a read in another thread could leave them when this one starts
    playnet.sequence._HEADS.update((str(k), None) for k in range(playnet.sequence._MAX_HEADS + 1))
    # one step of the wide log, its pass now intercepted: its head was read there
    step = next(q for q in wide if len(q) > 1).steps[0]
    cut = PossessionSequence((PossessionStep(step.network, step.decision, StepOutcome.PASS_INTERCEPTED),))
    data = (json.dumps([sequence_to_obj(cut)] * 2, indent=2) + "\n").encode()
    real = playnet.sequence.parse_json
    parsed = []
    monkeypatch.setattr(playnet.sequence, "parse_json", lambda text: parsed.append(text) or real(text))
    assert read_log(data) == _read_whole(data)
    assert len(parsed) == len(playnet.sequence._HEADS) == 1


def test_a_process_keeps_at_most_the_bound_of_heads_after_reading_a_log_without_repeats(no_kept_reads):
    rng = random.Random(7)
    sequences = [random_sequence(rng) for _ in range(200)]
    assert sum(map(len, sequences)) > playnet.sequence._MAX_HEADS  # random steps are all distinct
    data = log_text(sequences).encode()
    assert read_log(data) == _read_whole(data)
    assert len(playnet.sequence._HEADS) <= playnet.sequence._MAX_HEADS


@pytest.mark.parametrize("layout, distinct", [("written", 6), ("compact", 100)])
def test_analyze_and_frontier_measure_each_distinct_sequence_once(monkeypatch, capsys, tmp_path, layout, distinct):
    text = _log_text_of("midfield")
    path = tmp_path / "log.json"
    path.write_text(text if layout == "written" else json.dumps(json.loads(text)))  # compact: parsed whole
    sequences = load_log(str(path))
    assert len({id(seq) for seq in sequences}) == distinct  # a whole parse shares nothing
    rows = [
        {
            "index": i,
            "steps": len(seq),
            "terminal": seq.terminal_outcome.label(),
            "efficiency": efficiency(seq),
            "security": security(seq),
        }
        for i, seq in enumerate(sequences)
    ]
    points = pareto_points([(row["efficiency"], row["security"]) for row in rows])
    frontier = [{"index": idx, "efficiency": eff, "security": sec} for eff, sec, idx in points]
    measured = []
    for real in (efficiency, security):
        def counted(seq, real=real):
            measured.append(real.__name__)
            return real(seq)
        monkeypatch.setattr(playnet.cli, real.__name__, counted)
        monkeypatch.setattr(playnet.sequence, real.__name__, counted)
    for command, expected in (
        ("analyze", {"sequences": rows}),
        ("frontier", {"count": len(sequences), "frontier": frontier}),
    ):
        measured.clear()
        assert run(capsys, command, "--log", str(path), "--json") == (0, canonical_dumps(expected), "")
        assert measured.count("efficiency") == measured.count("security") == distinct


def _stdout_of(argv) -> str:
    """run_cli(argv)'s stdout; it must exit 0 and print nothing to stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(argv)
    assert (code, stderr.getvalue()) == (0, "")
    return stdout.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pool=st.integers(1, 7),
    picks=st.lists(st.integers(0, 6), min_size=1, max_size=40),
    layout=st.sampled_from(["written", "lone", "compact", "indent-1", "indent-4"]),
)
def test_analyze_and_frontier_equal_their_rows_written_one_by_one(tmp_path_factory, seed, pool, picks, layout):
    rng = random.Random(seed)
    distinct = [random_sequence(rng, max_len=4) for _ in range(pool)]
    sequences = [distinct[k % pool] for k in picks]
    if layout == "lone":
        sequences = sequences[:1]
    doc = sequence_to_obj(sequences[0]) if layout == "lone" else [sequence_to_obj(q) for q in sequences]
    indent = {"written": 2, "lone": 2, "compact": None, "indent-1": 1, "indent-4": 4}[layout]
    path = tmp_path_factory.mktemp("log") / "log.json"
    path.write_text(json.dumps(doc, indent=indent) + "\n")  # numbers exact, so each sequence reads back equal
    assert _stdout_of(["analyze", "--log", str(path), "--json"]) == reference_analyze_text(sequences)
    assert _stdout_of(["frontier", "--log", str(path), "--json"]) == reference_frontier_text(sequences)


@settings(max_examples=30, deadline=None)
@given(
    state_seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(["3:1", "2:2", "1:3", "1:0", "0:1"]),
    seed=st.integers(0, 2**63),
    trials=st.integers(1, 60),
)
def test_simulate_json_equals_its_rows_written_one_by_one(tmp_path_factory, state_seed, style, seed, trials):
    path = tmp_path_factory.mktemp("state") / "state.json"
    path.write_text(json.dumps(state_to_obj(random_match_state(random.Random(state_seed)))))
    record = {"style": style, "trials": trials, "seed": seed}
    results = playnet.cli._simulate_results(load_match_state(path), load_config(None), record)
    argv = ["simulate", "--state", str(path), "--style", style, "--trials", str(trials), "--seed", str(seed)]
    assert _stdout_of([*argv, "--json"]) == reference_simulate_text(results)


@functools.cache
def _log_layout_cases() -> dict[str, tuple[bytes, bool]]:
    """Logs that _log_sequences must leave to a whole parse: name -> (bytes, whether they read)."""
    log = _log_text_of("midfield")
    [result] = run_trials(load_match_state(BOX), SimulationConfig(
        policy=DecisionPolicy(style=LinearStyle(3, 1)), estimators=DEFAULT_PARAMS), 0, 1)
    lone = log_text([result.sequence])
    first = json.dumps(json.loads(log)[0])
    return {
        "lone-sequence": (lone.encode(), True),
        "utf8-bom": (b"\xef\xbb\xbf" + log.encode(), True),
        "utf16": (log.encode("utf-16"), True),
        "compact": (json.dumps(json.loads(log)).encode(), True),
        "truncated": (log.encode()[:-2], False),
        "truncated-element": (log.encode()[: len(log) // 2] + b"\n]\n", False),
        # the first sequence with a second step [1] laid out as an element: the split cuts it apart
        "split-at-wrong-depth": (f"[\n  [{first[1:-1]},\n  [1]]\n]\n".encode(), False),
        "empty": (b"[]\n", False),
        "bad-sequence-then-bad-json": (b"[\n  [1],\n  [}\n]\n", False),
        "element-not-utf8": (b'[\n  ["\xff"]\n]\n', False),
        "element-with-nul": (b"[\n  [\x00]\x00\n]\n", False),
        "nested-too-deeply": (b"[\n  [" + b"[" * 100_000 + b"]" * 100_001 + b"\n]\n", False),
    }


@pytest.mark.parametrize("case", [
    "lone-sequence", "utf8-bom", "utf16", "compact", "truncated", "truncated-element",
    "split-at-wrong-depth", "empty", "bad-sequence-then-bad-json", "element-not-utf8",
    "element-with-nul", "nested-too-deeply",
])
def test_log_reader_equals_a_whole_parse_outside_the_written_layout(tmp_path, case):
    data, reads = _log_layout_cases()[case]
    assert _log_sequences(data) is None
    got = _read_outcome(read_log, data)
    assert got == _read_outcome(_read_whole, data)
    assert isinstance(got, list) == reads
    path = tmp_path / "log.json"
    path.write_bytes(data)
    named = got if reads else got.replace("ValueError: ", f"ValueError: log {path}: ", 1)
    assert _read_outcome(load_log, str(path)) == named


# --- run_cli on generated argv ------------------------------------------------

# each value is mostly valid, so that most argv reach a command and some run to exit 0
_WEIGHTS = st.one_of(st.integers(0, 5), st.integers(0, 5), st.sampled_from([10**23, 2 * 10**307, 10**308, 10**400]))
_STYLES = st.one_of(
    st.builds("{}:{}".format, _WEIGHTS, _WEIGHTS),
    st.builds("{}:{}".format, _WEIGHTS, _WEIGHTS),
    st.sampled_from(["3", "a:b", "-1:2", "1.5:2", "", "1:1:1"]),
)
_THRESHOLDS = st.one_of(
    st.floats(0.0, 1.0).map(str), st.floats().map(str), st.sampled_from(["nan", "inf", "-inf", "1e400", "x"]),
)
# trials and max_steps stay small or beyond float range, so that no run is long
_COUNTS = st.one_of(st.integers(1, 12), st.integers(-3, 12), st.sampled_from([10**400, -(10**400)])).map(str)
_SEEDS = st.one_of(st.integers(0, 2**64), st.integers(), st.sampled_from([10**400, "x"])).map(str)
_STATES = st.sampled_from([MIDFIELD, BOX, MIDFIELD, BOX, "/no/such"])


@st.composite
def _cli_argv(draw) -> list[str]:
    """An argv for any subcommand; "{out}" stands for an output file path."""
    command = draw(st.sampled_from(["decide", "simulate", "analyze", "compare", "frontier"]))
    argv = [command]

    def maybe(flag, values=None):
        if draw(st.booleans()):
            argv.extend([flag] if values is None else [flag, draw(values)])

    if command in ("analyze", "frontier"):
        argv += ["--log", draw(st.sampled_from([str(GOLDEN_DIR / "simulate_seed42.json"), MIDFIELD, "/no/such"]))]
    else:
        argv += ["--state", draw(_STATES)]
        if command == "compare":
            argv += ["--styles", ",".join(draw(st.lists(_STYLES, min_size=1, max_size=3)))]
        else:
            argv += ["--style", draw(_STYLES)]
        maybe("--threshold", _THRESHOLDS)
    if command in ("simulate", "compare"):
        maybe("--trials", _COUNTS)
        maybe("--seed", _SEEDS)
    if command == "simulate":
        maybe("--max-steps", _COUNTS)
    output_flag = {"decide": "--dot", "simulate": "--out", "compare": "--csv"}.get(command)
    if output_flag:
        maybe(output_flag, st.just("{out}"))
    maybe("--json")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_cli_argv())
def test_run_cli_exits_0_1_or_2_on_any_argv(tmp_path_factory, argv):
    out_file = str(tmp_path_factory.mktemp("argv") / "artifact")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli([out_file if a == "{out}" else a for a in argv])
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(_ARTIFACT_ARGV))
def test_an_artifact_into_a_missing_directory_names_the_artifact(capsys, tmp_path, monkeypatch, command):
    def refused(*args, **kwargs):  # the path is refused before the command's work, not after it
        raise AssertionError("the command ran before its artifact path was refused")
    for name in ("estimate_network", "run_trials", "monte_carlo_compare"):
        monkeypatch.setattr(playnet.cli, name, refused)
    (tmp_path / "file").write_text("kept")
    for parent, error in (
        (("no",), "[Errno 2] No such file or directory"),
        (("file",), "[Errno 20] Not a directory"),
        (("file", "sub"), "[Errno 20] Not a directory"),
    ):
        target = tmp_path.joinpath(*parent, "dir.json")
        code, out, err = run(capsys, *_ARTIFACT_ARGV[command], str(target))
        assert (code, out) == (1, "")
        assert err == f"error: {error}: '{target}'\n"  # as the write would give it, not a temporary file's name
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("command", sorted(_ARTIFACT_ARGV))
def test_an_empty_artifact_path_is_refused_naming_its_flag(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    argv = _ARTIFACT_ARGV[command]
    code, out, err = run(capsys, *argv, "")
    assert (code, out) == (1, "")
    assert err == f"error: {argv[-1]}: the path is empty\n"
    assert list(tmp_path.iterdir()) == []
