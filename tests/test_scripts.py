"""Smoke tests for the public surface outside the library: scripts and exports.

The scripts under scripts/ import playnet by name, so a renamed or
deleted export breaks them without breaking any library test.
"""

import subprocess
import sys

import playnet

from conftest import DATA_DIR, GOLDEN_DIR, REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"


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


def test_render_network_script():
    proc = run_script("render_network.py", "--state", str(DATA_DIR / "midfield_state.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "midfield_t8.dot").read_text()
