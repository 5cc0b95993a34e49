"""Smoke tests for the public surface outside the library: scripts, exports, README and CLI.

The scripts under scripts/ import playnet by name, so a renamed or
deleted export breaks them without breaking any library test. The
README's commands are checked against the CLI parser, and the library
calls it names against the package, for the same reason; the CLI is
run as a process, through main(), as a shell runs it. The other way
round, every function, method and module-level name the library
defines, classes and exports included, must be read by the library,
the scripts, the benchmark or a call the README names, or be
allowlisted with its reason: code that only tests call, and a constant
that nothing reads, is kept out of the package.
"""

import ast
import collections
import functools
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys

import pytest

import playnet
from playnet.cli import build_parser

from conftest import DATA_DIR, REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"
README = (REPO_ROOT / "README.md").read_text()


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_every_export_resolves():
    missing = [name for name in playnet.__all__ if not hasattr(playnet, name)]
    assert missing == []


# definitions no code outside the tests reads, kept on purpose
UNREFERENCED_ALLOWLIST = {
    "is_s_efficient": "the paper's s-efficiency predicate, which compare --exact is to read",
    "is_p_secure": "the paper's p-security predicate, which compare --exact is to read",
    "LinearStyle.importance": "the importance split of a style, which acceptance criterion 2 checks",
    "LinearStyle.evaluate": "the checked scorer of one pass option, which the tests' oracles take",
}


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions_in(text):
    """(qualified name, name) of each module-level class, function and name and each method in text, dunders aside."""
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not is_dunder(name.id):
                        yield name.id, name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def library_definitions():
    """The definitions_in each module of src/playnet/."""
    for path in sorted((REPO_ROOT / "src" / "playnet").glob("*.py")):
        yield from definitions_in(path.read_text())


def names_read(sources):
    """(the names read bare, the attribute names read) in source texts; imports do not count."""
    names, attributes = set(), set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def unused_definitions(definitions, sources):
    """The qualified names of definitions that sources never read; an export is read like any other name.

    A method counts as read only as an attribute (x.edge), so a local or
    parameter of its name does not; a module-level class, function or
    name counts read by name or as an attribute (estimators.score_prob_at).
    """
    names, attributes = names_read(sources)
    return sorted(
        qualified for qualified, name in definitions
        if name not in attributes and ("." in qualified or name not in names)
    )


def sources_outside_the_tests():
    """The library, scripts and benchmark sources, and each call the README names as an expression."""
    for root in ("src/playnet", "scripts", "perfbench"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            yield path.read_text()
    yield from readme_calls()


def test_every_library_function_is_used_outside_the_tests():
    unused = unused_definitions(library_definitions(), sources_outside_the_tests())
    # an allowlisted method that comes into use leaves the allowlist too
    assert unused == sorted(UNREFERENCED_ALLOWLIST)


def test_a_local_named_as_a_method_does_not_use_it():
    definitions = [("DecisionNetwork.edge", "edge"), ("edge_text", "edge_text")]
    local = "def f(network, edge):\n    edge = network.edges[edge]\n    return edge\n"
    assert unused_definitions(definitions, [local]) == ["DecisionNetwork.edge", "edge_text"]
    assert unused_definitions(definitions, [local, "network.edge(1)\ndotexport.edge_text(2)\n"]) == []
    assert unused_definitions(definitions, [local, "edge_text(2)\n"]) == ["DecisionNetwork.edge"]


def test_an_export_only_tests_read_is_reported():
    definitions = [("state_to_obj", "state_to_obj"), ("derive_seed", "derive_seed")]
    package = '__all__ = ["derive_seed", "state_to_obj"]\nfrom .state import derive_seed, state_to_obj\n'
    # a test's call is no source of the scan; a call the README names is
    assert unused_definitions(definitions, [package]) == ["derive_seed", "state_to_obj"]
    assert unused_definitions(definitions, [package, *readme_calls()]) == ["state_to_obj"]


def test_a_class_nothing_reads_is_reported():
    source = "class Unread:\n    def method(self):\n        pass\n\nclass Read:\n    pass\n\nRead().method()\n"
    definitions = list(definitions_in(source))
    assert definitions == [("Unread", "Unread"), ("Unread.method", "method"), ("Read", "Read")]
    assert unused_definitions(definitions, [source]) == ["Unread"]


def test_library_definitions_share_no_name_but_trusted():
    # the scan above matches names, not the objects they name, so a definition
    # whose name another one shares passes when only the other is used; keep such names known
    counts = collections.Counter(name for _, name in library_definitions())
    assert {name for name, n in counts.items() if n > 1} == {"_trusted"}


def test_compare_styles_script():
    proc = run_script(
        "compare_styles.py", "--state", str(DATA_DIR / "midfield_state.json"),
        "--styles", "3:1,2:2,1:3", "--trials", "20", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line[:3] in ("3:1", "2:2", "1:3")]
    assert len(rows) == 3
    assert any(row.endswith("*") for row in rows)  # some style is always undominated


@pytest.mark.parametrize(
    "argv",
    [["--styles", "3:x"], ["--trials", "0"], ["--threshold", "2"], ["--state", str(DATA_DIR / "missing.json")]],
    ids=["bad-style", "no-trials", "threshold-above-1", "missing-state"],
)
def test_compare_styles_script_reports_a_bad_input_in_one_line(argv):
    proc = run_script("compare_styles.py", "--trials", "20", *argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert proc.stdout == ""


def test_behaviour_diff_records_this_checkout(tmp_path):
    proc = run_script("behaviour_diff.py", "--record", str(tmp_path / "record.json"), "--src", str(REPO_ROOT / "src"))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    runs = json.loads((tmp_path / "record.json").read_text())["runs"]
    assert len(runs) > 150 and all(re.fullmatch("[0-9a-f]{64}", digest) for digest in runs.values())
    assert {name.partition(" ")[0] for name in runs} == {
        "", "--config", "--help", "bogus", "decide", "simulate", "analyze", "compare", "frontier", "regenerate",
    }


def test_behaviour_diff_records_the_same_digests_in_a_shuffled_order(tmp_path):
    records = {}
    for name, extra in (("fixed", ()), ("shuffled", ("--shuffle", "5"))):
        records[name] = tmp_path / f"{name}.json"
        proc = run_script("behaviour_diff.py", "--record", str(records[name]), "--src", str(REPO_ROOT / "src"), *extra)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    proc = run_script("behaviour_diff.py", "--compare", str(records["fixed"]), str(records["shuffled"]))
    assert proc.returncode == 0 and re.fullmatch(r"0 of \d+ runs differ", proc.stdout.splitlines()[-1]), proc.stdout
    usage = run_script("behaviour_diff.py", "--compare", str(records["fixed"]), str(records["fixed"]), "--shuffle", "1")
    assert usage.returncode == 2 and "--shuffle needs --record" in usage.stderr


def test_behaviour_diff_compare_reports_a_run_that_differs(tmp_path):
    runs = {"decide --state <tmp>/box_state.json --style 3:1": "a" * 64, "analyze --log <tmp>/log.json": "b" * 64}
    records = {"a": {"python": "3.11.7", "runs": runs}, "b": {"python": "3.12.1", "runs": runs}}
    records["c"] = {"python": "3.11.7", "runs": {**runs, "analyze --log <tmp>/log.json": "c" * 64}}
    for name, record in records.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(record))
    same = run_script("behaviour_diff.py", "--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert (same.returncode, same.stdout) == (0, "0 of 2 runs differ\n")
    differ = run_script("behaviour_diff.py", "--compare", str(tmp_path / "a.json"), str(tmp_path / "c.json"))
    assert (differ.returncode, differ.stdout) == (1, "differs: analyze --log <tmp>/log.json\n1 of 2 runs differ\n")


def readme_playnet_commands():
    """The argv of each playnet command line in the README's bash blocks, continuations joined."""
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", README, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["playnet"]:
                commands.append(words[1:])
    return commands


def test_readme_names_some_commands():
    assert len(readme_playnet_commands()) >= 7


@pytest.mark.parametrize("argv", readme_playnet_commands(), ids=" ".join)
def test_readme_playnet_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:  # what argparse does on a usage error
        pytest.fail(f"usage error: playnet {shlex.join(argv)}")


def test_readme_scripts_exist():
    named = set(re.findall(r"scripts/[\w.-]+\.py", README))
    assert named
    assert sorted(name for name in named if not (REPO_ROOT / name).is_file()) == []


README_CALL_ALLOWLIST = ("json.",)  # calls the README names outside playnet


def readme_calls():
    """The dotted name of each backticked call in the README: `f(...)`, `a.b(x)`."""
    return sorted(set(re.findall(r"`([A-Za-z_][\w.]*)\([^`()\n]*\)`", README)))


def resolves_in_playnet(dotted: str) -> bool:
    """True if dotted names an attribute of playnet or of one of its modules.

    A name that starts with "playnet." is looked up from the package,
    whose modules are all imported here; any other from the package and
    from every playnet.* module.
    """
    modules = [playnet] + [
        importlib.import_module(info.name) for info in pkgutil.iter_modules(playnet.__path__, "playnet.")
    ]
    if dotted.startswith("playnet."):
        modules, dotted = [playnet], dotted[len("playnet."):]
    missing = object()
    return any(
        functools.reduce(lambda obj, name: getattr(obj, name, missing), dotted.split("."), module) is not missing
        for module in modules
    )


def test_readme_names_some_calls():
    assert {"DecisionNetwork", "estimate_network", "playnet.cli.regenerate"} <= set(readme_calls())


@pytest.mark.parametrize("dotted", [name for name in readme_calls() if not name.startswith(README_CALL_ALLOWLIST)])
def test_readme_call_resolves(dotted):
    assert resolves_in_playnet(dotted), f"README names {dotted}(...), which playnet does not define"


def run_playnet(*args):
    """python -m playnet.cli as a process, from the repository root, without PLAYNET_CONFIG."""
    env = {k: v for k, v in os.environ.items() if k != "PLAYNET_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "playnet.cli", *args],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT, env=env,
    )


def test_readme_decide_runs_as_a_process():
    argv = next(argv for argv in readme_playnet_commands() if argv[0] == "decide" and "--dot" not in argv)
    proc = run_playnet(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_cli_process_without_arguments_prints_usage_and_exits_2():
    proc = run_playnet("decide")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--state", "no/such/state.json", "--style", "3:1"],
        ["decide", "--state", "data/midfield_state.json", "--style", "3_0:1"],
    ],
    ids=["missing-state", "style-3_0:1"],
)
def test_cli_process_invalid_input_exits_1_with_one_error_line(argv):
    proc = run_playnet(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in proc.stderr


# a failed check in each kind of input file, and the message after its file's name
_FAILED_CHECKS = {
    "state": ('{"pitch": {"length": 105, "width": 68}}', "root: missing key 'team'"),
    "config": ('{"policy": {"threshold": 2}}', "threshold=2.0 outside [0, 1]"),
    "log": ("[]", "expected a nonempty array"),
}


@pytest.mark.parametrize("failure", ["invalid-json", "failed-check"])
@pytest.mark.parametrize("kind", ["state", "config", "log"])
def test_cli_process_names_the_input_file_of_an_error(tmp_path, kind, failure):
    path = tmp_path / f"{kind}.json"
    text, message = _FAILED_CHECKS[kind] if failure == "failed-check" else ("{", "invalid JSON: ")
    path.write_text(text)
    argv = {
        "state": ["decide", "--state", str(path), "--style", "3:1"],
        "config": ["--config", str(path), "decide", "--state", "data/midfield_state.json", "--style", "3:1"],
        "log": ["analyze", "--log", str(path)],
    }[kind]
    proc = run_playnet(*argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {kind} {path}: {message}")


def test_console_script_resolves_to_main():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (REPO_ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.S | re.M).group(1)
    target = re.search(r'^playnet\s*=\s*"([^"]+)"\s*$', section, re.M).group(1)
    assert target == "playnet.cli:main"
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))
