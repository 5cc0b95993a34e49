import contextlib
import functools
import io
import json
import math
import os
import random
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import playnet.cli
from playnet import (
    Decision,
    DecisionPolicy,
    LinearStyle,
    PossessionSequence,
    PossessionStep,
    SimulationConfig,
    StepOutcome,
    build_network,
    default_suite,
    run_trials,
)
from playnet.cli import _load_log, _log_items, _log_text, _read_log, regenerate, run_cli
from playnet.jsonio import manifest_path, parse_json
from playnet.sequence import sequence_from_obj, sequence_to_obj
from playnet.state import load_match_state

from conftest import (
    DATA_DIR, GOLDEN_DIR, HUGE_INT, JSON_CUTS, json_mutations, json_paths, mutated_json_text,
    random_match_state,
)
from oracles import reference_log_text

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


def test_analyze_matches_golden_expectations(capsys):
    code, out, _ = run(capsys, "analyze", "--log", str(GOLDEN_DIR / "simulate_seed42.json"), "--json")
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN_DIR / "analyze_expected.json").read_text())


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
        estimators=default_suite(), max_steps=max_steps, seed=seed,
    )
    results = run_trials(state, cfg, 0, trials)
    assert _log_text(results) == reference_log_text(results)


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
    with pytest.raises(ValueError, match=f"missing field {field}$"):
        regenerate(manifest)


def test_regenerate_names_a_missing_run_field(capsys, tmp_path):
    out_file = tmp_path / "log.json"
    code, _, _ = run(capsys, "simulate", "--state", MIDFIELD, "--style", "3:1", "--out", str(out_file))
    assert code == 0
    manifest = json.loads(Path(manifest_path(out_file)).read_text())
    del manifest["run"]
    with pytest.raises(ValueError, match="missing field run.style"):
        regenerate(manifest)


@pytest.mark.parametrize(
    "command, field, value, message",
    [
        ("compare", "styles", [], "run.styles=.* must be a nonempty array"),
        ("compare", "styles", 5, "run.styles=5 must be a nonempty array"),
        ("compare", "styles", [3], "style 3 must be a string"),
        ("simulate", "style", 3, "style 3 must be a string"),
    ],
    ids=["styles-empty", "styles-number", "styles-of-numbers", "style-number"],
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
    # run.trials stays small: a valid but huge trial count (10**300) runs until stopped
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
    sequences = _read_outcome(_read_log, data)  # what analyze and frontier read
    assert sequences == _read_outcome(_read_whole, data)
    if isinstance(sequences, str):
        return
    for seq in sequences:
        assert sequence_from_obj(sequence_to_obj(seq)) == seq
        for step in seq.steps:
            net = step.network
            values = (net.s, net.tau, *(edge.p for edge in net.edges.values()))
            assert all(type(v) is float and math.isfinite(v) for v in values)


@pytest.mark.parametrize("style", ["1" + "0" * 308 + ":1", "1:1" + "0" * 308], ids=["x-1e308", "y-1e308"])
@pytest.mark.parametrize("command", ["decide", "simulate", "compare"])
def test_style_whose_score_overflows_is_validation_error(capsys, command, style):
    # 10**308 is inside float range, but x * 10.0 is inf and y * 10 is no float
    argv = {
        "decide": ["decide", "--style", style],
        "simulate": ["simulate", "--style", style, "--trials", "3"],
        "compare": ["compare", "--styles", f"3:1,{style}", "--trials", "3"],
    }[command]
    code, out, err = run(capsys, *argv, "--state", MIDFIELD)
    assert code == 1
    assert out == ""
    assert err == "error: style weights x and y give a score too large for a float\n"


# --- the log reader parses and checks each distinct sequence once -----------


def _read_each(obj):
    """The log reader without its memo: every sequence checked on its own."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("sequence log: expected a nonempty array")
    if isinstance(obj[0], dict):
        return [sequence_from_obj(obj)]
    return [sequence_from_obj(item) for item in obj]


def _read_whole(data: bytes, where: str = ""):
    """The log reader without its text path: one whole parse, then every sequence checked."""
    return _read_each(parse_json(data, where))


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
        policy=DecisionPolicy(style=LinearStyle(1, 3)), estimators=default_suite(), seed=3,
    )
    return _log_text(run_trials(load_match_state(MIDFIELD), cfg, 0, 100))


def test_log_reader_checks_each_distinct_sequence_once(monkeypatch):
    obj = json.loads(_log_text_of("midfield"))
    real = playnet.cli.sequence_from_obj
    checked = []
    monkeypatch.setattr(playnet.cli, "sequence_from_obj", lambda item: checked.append(item) or real(item))
    sequences = _read_log(_log_text_of("midfield").encode())
    distinct = {json.dumps(item) for item in obj}
    assert len(checked) == len(distinct) < len(obj)
    assert len({id(seq) for seq in sequences}) == len(distinct)  # a repeat is the same frozen sequence
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
    assert _read_outcome(_read_log, data) == _read_outcome(_read_whole, data)


def _one_step_sequence(holder=1, target=2, s=0.25, p=0.5, shoot=False) -> list:
    network = build_network(holder, s, 1.0, {j: (p, 1) for j in range(1, 12) if j != holder})
    if shoot:
        step = PossessionStep(network, Decision("shoot"), StepOutcome("shot_taken"))
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
    ],
    ids=[
        "r-1.0", "r-true", "s-true", "holder-2.0", "holder-true", "target-2.0", "target-true",
        "shoot-target-null", "pass-target-missing", "pass-target-null", "p-negative-zero",
        "s-unhashable", "outcome-unhashable",
    ],
)
def test_a_valid_copy_does_not_vouch_for_a_changed_one(valid, edit, rejected):
    first = _one_step_sequence(**valid)
    second = json.loads(json.dumps(first))
    edit(second)
    for log in ([first, second], [second, first]):
        for indent in (2, None):  # read by element texts, and parsed whole
            data = (json.dumps(log, indent=indent) + "\n").encode()
            assert (_log_items(data) is None) == (indent is None)
            got = _read_outcome(_read_log, data)
            assert got == _read_outcome(_read_whole, data)
            assert isinstance(got, str) == rejected


def test_log_reader_parses_each_distinct_element_once_and_never_the_whole(monkeypatch, tmp_path):
    path = tmp_path / "log.json"
    path.write_text(_log_text_of("midfield"))
    real = playnet.cli.parse_json
    parsed = []
    monkeypatch.setattr(playnet.cli, "parse_json", lambda data, *rest: parsed.append(data) or real(data, *rest))
    sequences = _load_log(str(path))
    elements = [json.dumps(item) for item in json.loads(path.read_text())]
    assert len(parsed) == len(set(elements)) < len(elements)
    assert sorted(json.dumps(json.loads(text)) for text in parsed) == sorted(set(elements))
    assert sequences == _read_whole(path.read_bytes())


@functools.cache
def _log_layout_cases() -> dict[str, tuple[bytes, bool]]:
    """Logs that _log_items must leave to a whole parse: name -> (bytes, whether they read)."""
    log = _log_text_of("midfield")
    lone = _log_text(run_trials(load_match_state(BOX), SimulationConfig(
        policy=DecisionPolicy(style=LinearStyle(3, 1)), estimators=default_suite()), 0, 1))
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
    assert _log_items(data) is None
    got = _read_outcome(_read_log, data)
    assert got == _read_outcome(_read_whole, data)
    assert isinstance(got, list) == reads
    path = tmp_path / "log.json"
    path.write_bytes(data)
    where = f"log {path}: "
    assert _read_outcome(_load_log, str(path)) == _read_outcome(_read_whole, data, where)


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
        maybe("--tie-break", st.sampled_from(["lowest_id", "highest_id", "random"]))
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
