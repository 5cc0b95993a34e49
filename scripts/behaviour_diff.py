#!/usr/bin/env python3
"""Record what every playnet command does on a fixed matrix, and compare two records.

    python3 scripts/behaviour_diff.py --record OUT.json --src DIR [--shuffle SEED]
    python3 scripts/behaviour_diff.py --compare A.json B.json

--record imports playnet from DIR (a checkout's src/) into this
interpreter and runs a fixed matrix of command lines through
playnet.cli.run_cli, then regenerate() of every manifest written. Each
run's stdout, stderr, exit code and every file it wrote are hashed into
one SHA-256; the temporary directory's path and each manifest's
timestamp are masked first, and so is the random name of a temporary
file, so two records of the same behaviour are equal. The states and
the golden log come from DIR's checkout (DIR/../data,
DIR/../tests/golden), copied into the temporary directory.

--shuffle SEED runs the writing runs, and then the reading and
regenerate runs, each in an order drawn from SEED, and runs every read
a second time, warm, in the reverse order once all have run. A warm run
whose digest differs from its first is recorded as both digests, so it
differs from every record of the fixed order. The process keeps what
its reads and writes memoise (loaded states, their networks, log
texts), so comparing a shuffled record with a fixed-order one shows
whether any output depends on what ran before it.

--compare lists the runs whose digests differ, or that only one record
holds, and exits 1 if there are any. Record the parent and the change
of a PR, or one tree under two interpreters or two PYTHONHASHSEED
values, and compare.

The script calls nothing in playnet but run_cli and regenerate.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

TMP = "<tmp>"
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
_TEMP_FILE = re.compile(r"\.tmp-[0-9a-f]{16}\.part")  # write_artifact's temporary sibling, named at random

STATES = ("midfield", "box")
TRIALS = (1, 7, 100, 1000)
STYLE = {"midfield": "1:3", "box": "3:1"}
# the holder alone on the pitch: every teammate is outside, so every pass option scores zero
DEGENERATE_STATE = {
    "pitch": {"length": 105, "width": 68},
    "team": [
        {"id": j, "x": 50, "y": 34} if j == 8 else {"id": j, "x": -5, "y": -5, "outside": True}
        for j in range(1, 12)
    ],
    "opponents": [{"x": 80, "y": 6 * k + 2} for k in range(11)],
    "holder": 8,
}


def log_variants(text: str) -> dict:
    """Variants of a written log's text outside the layout simulate writes: a lone sequence and broken logs."""
    return {
        "empty": "",
        "empty-array": "[]",
        "truncated": text[: len(text) // 2],
        "unknown-key": text.replace('"holder": ', '"extra": 1, "holder": ', 1),
        "float-risk": re.sub(r'"r": (\d+)', r'"r": \1.5', text, count=1),
        "nan": re.sub(r'"p": [^,\n]+', '"p": NaN', text, count=1),
        "bad-outcome": text.replace('"outcome": "', '"outcome": "x', 1),
        "lone-sequence": json.dumps(json.loads(text)[0], indent=2) + "\n",
        "not-utf8": "\udcff" + text,
    }


def writing_runs(tmp: Path) -> list:
    """The argv of each decide, simulate and compare run and each usage or file error."""
    state = {name: tmp / f"{name}_state.json" for name in (*STATES, "degenerate")}
    out = tmp / "out"
    runs = []
    for name in state:
        for style in ("3:1", "1:3", "0:5"):
            runs.append(["decide", "--state", state[name], "--style", style])
            runs.append(["decide", "--state", state[name], "--style", style, "--json"])
        runs.append(["decide", "--state", state[name], "--style", "2:2", "--threshold", "0.05",
                     "--dot", out / f"{name}.dot"])
    for name in STATES:
        for trials in TRIALS:
            argv = ["simulate", "--state", state[name], "--style", STYLE[name], "--trials", trials, "--seed", 3]
            runs += [argv, [*argv, "--json"], [*argv, "--out", out / f"{name}-{trials}.json"]]
        compare = ["compare", "--state", state[name], "--styles"]
        runs.append([*compare, "3:1,2:2,1:3,0:5", "--trials", 200, "--seed", 7])
        runs.append([*compare, "3:1,1:3", "--trials", 100, "--seed", 7, "--json"])
        runs.append([*compare, "5:0,2:3", "--trials", 50, "--seed", 1, "--csv", out / f"{name}.csv"])
    box = ["decide", "--state", state["box"], "--style", "3:1"]
    midfield = ["--state", state["midfield"], "--style", "3:1"]
    runs += [
        ["--config", tmp / "config.json", "simulate", "--state", state["midfield"], "--style", "2:2",
         "--trials", 30, "--seed", 5, "--out", out / "configured.json"],
        ["--config", tmp / "config.json", *box, "--json"],
        ["--config", tmp / "bad_config.json", *box],
        ["--config", tmp / "missing.json", *box],
        [], ["--help"], ["decide"], ["bogus"], ["simulate", "--state", state["midfield"]],
        ["decide", "--state", tmp / "missing.json", "--style", "3:1"],
        ["decide", "--state", tmp / "bad_state.json", "--style", "3:1"],
        ["decide", "--state", state["midfield"], "--style", "3_0:1"],
        ["decide", *midfield, "--threshold", "nan"],
        ["simulate", *midfield, "--trials", "0"],
        ["simulate", *midfield, "--trials", "x"],
        ["simulate", *midfield, "--max-steps", "0"],
        ["simulate", *midfield, "--out", state["midfield"]],
        ["simulate", *midfield, "--out", tmp / "no" / "dir.json"],
        ["compare", "--state", state["box"], "--styles", "3:1,,1:3"],
    ]
    return runs


def reading_runs(tmp: Path) -> list:
    """The argv of analyze and frontier, text and --json, of each log in tmp/logs and of a missing one."""
    return [
        [command, "--log", log, *mode]
        for log in [*sorted((tmp / "logs").iterdir()), tmp / "missing.json"]
        for command in ("analyze", "frontier")
        for mode in ([], ["--json"])
    ]


def prepare(tmp: Path, checkout: Path) -> None:
    """The input files the writing runs read."""
    for name in STATES:
        shutil.copyfile(checkout / "data" / f"{name}_state.json", tmp / f"{name}_state.json")
    (tmp / "degenerate_state.json").write_text(json.dumps(DEGENERATE_STATE))
    (tmp / "bad_state.json").write_text('{"pitch": {"length": 105, "width": 68}}')
    (tmp / "config.json").write_text(json.dumps({"simulation": {"max_steps": 4}, "policy": {"threshold": 0.3}}))
    (tmp / "bad_config.json").write_text(json.dumps({"policy": {"threshold": 2}}))
    (tmp / "out").mkdir()


def prepare_logs(tmp: Path, checkout: Path) -> None:
    """The logs the reading runs read: each log written, a compact copy of each, the golden log and variants."""
    logs = tmp / "logs"
    logs.mkdir()
    shutil.copyfile(checkout / "tests" / "golden" / "simulate_seed42.json", logs / "golden-seed42.json")
    for name in STATES:
        for trials in TRIALS:
            text = (tmp / "out" / f"{name}-{trials}.json").read_text()
            (logs / f"written-{name}-{trials}.json").write_text(text)
            (logs / f"compact-{name}-{trials}.json").write_text(json.dumps(json.loads(text)))
    for kind, variant in log_variants((tmp / "out" / "midfield-7.json").read_text()).items():
        (logs / f"variant-{kind}.json").write_bytes(variant.encode("utf-8", "surrogateescape"))


def masked(text: str, tmp: Path) -> str:
    text = _TIMESTAMP.sub('"timestamp": "<masked>"', text.replace(str(tmp), TMP))
    return _TEMP_FILE.sub(".tmp-<masked>.part", text)


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def file_stamps(directory: Path) -> dict:
    """path -> (inode, mtime, size) of each file under directory: an artifact is renamed into place, so a new inode."""
    stamps = {}
    for path in directory.rglob("*"):
        if path.is_file():
            st = path.stat()
            stamps[path] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return stamps


def run(run_cli, argv: list, tmp: Path) -> tuple[str, str, list]:
    """(name, digest, files written) of one run_cli(argv).

    The digest covers the exit code, stdout, stderr and each file the run
    wrote, all masked.
    """
    argv = [str(arg) for arg in argv]
    before = file_stamps(tmp)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(argv)
    written = sorted(path for path, stamp in file_stamps(tmp).items() if before.get(path) != stamp)
    files = {
        masked(str(path), tmp): masked(path.read_bytes().decode("utf-8", "backslashreplace"), tmp) for path in written
    }
    outputs = {"exit": code, "stdout": masked(stdout.getvalue(), tmp), "stderr": masked(stderr.getvalue(), tmp)}
    return masked(" ".join(argv), tmp), digest({**outputs, "files": files}), written


def regenerate_run(regenerate, path: Path, tmp: Path) -> tuple[str, str]:
    """(name, digest) of regenerate() of the manifest at path: its text, or its error masked."""
    try:
        result = {"text": regenerate(json.loads(path.read_text()))}
    except (ValueError, OSError) as err:
        result = {"error": masked(f"{type(err).__name__}: {err}", tmp)}
    return masked(f"regenerate {path}", tmp), digest(result)


def record(src: Path, shuffle: int | None = None) -> dict:
    """{"python": version, "runs": {name: digest}} of the matrix run against the playnet under src.

    With shuffle, the runs go in an order drawn from that seed and every
    read runs again, warm (see the module docstring).
    """
    sys.path.insert(0, str(src))
    import playnet.cli

    if Path(playnet.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: playnet imports from {playnet.cli.__file__}, not from {src}")
    os.environ.pop("PLAYNET_CONFIG", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to the terminal's width
    checkout = src.resolve().parent
    order = random.Random(shuffle).shuffle if shuffle is not None else lambda runs: None
    digests, manifests = {}, []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name).resolve()
        prepare(tmp, checkout)
        writes = writing_runs(tmp)
        order(writes)
        for argv in writes:
            run_name, digests[run_name], written = run(playnet.cli.run_cli, argv, tmp)
            manifests += [path for path in written if path.name.endswith(".manifest.json")]
        prepare_logs(tmp, checkout)
        reads = [lambda argv=argv: run(playnet.cli.run_cli, argv, tmp)[:2] for argv in reading_runs(tmp)]
        reads += [lambda path=path: regenerate_run(playnet.cli.regenerate, path, tmp) for path in manifests]
        order(reads)
        for read in reads:
            run_name, digests[run_name] = read()
        if shuffle is not None:
            for read in reversed(reads):
                run_name, warm = read()
                if warm != digests[run_name]:
                    digests[run_name] += f" warm {warm}"
    return {"python": sys.version.split()[0], "runs": digests}


def compare(a: dict, b: dict) -> list[str]:
    """The names of the runs whose digests differ, or that only one record holds."""
    runs_a, runs_b = a["runs"], b["runs"]
    return sorted(name for name in runs_a.keys() | runs_b.keys() if runs_a.get(name) != runs_b.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="OUT", help="write the record of the matrix to this file")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list the runs two records differ in")
    parser.add_argument("--src", help="the src/ directory whose playnet --record runs")
    parser.add_argument("--shuffle", type=int, metavar="SEED",
                        help="--record the runs in an order drawn from SEED, each read run again warm")
    args = parser.parse_args(argv)
    if args.shuffle is not None and not args.record:
        parser.error("--shuffle needs --record")
    if args.record:
        if not args.src:
            parser.error("--record needs --src")
        result = record(Path(args.src), args.shuffle)
        Path(args.record).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"{len(result['runs'])} runs recorded under Python {result['python']}")
        return 0
    a, b = (json.loads(Path(path).read_text()) for path in args.compare)
    differing = compare(a, b)
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(differing)} of {len(a['runs'].keys() | b['runs'].keys())} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
