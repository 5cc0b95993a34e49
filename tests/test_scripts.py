"""Smoke tests for the public surface outside the library: scripts, exports and README.

The scripts under scripts/ import playnet by name, so a renamed or
deleted export breaks them without breaking any library test. The
README's commands are checked against the CLI parser for the same
reason.
"""

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


def test_compare_styles_script():
    proc = run_script(
        "compare_styles.py", "--state", str(DATA_DIR / "midfield_state.json"),
        "--styles", "3:1,2:2,1:3", "--trials", "20", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line[:3] in ("3:1", "2:2", "1:3")]
    assert len(rows) == 3
    assert any(row.endswith("*") for row in rows)  # some style is always undominated


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
