"""Command-line surface: decide, simulate, analyze, compare, frontier.

Exit codes are the only success/failure channel: 0 on success, 1 when an
input fails validation, 2 on usage errors. An error is one stderr line
that names the input file it is about ("error: log l.json: sequence 1:
step 0: ..."). Each command builds one report value, and _COMMANDS pairs
its builder with its text renderer: --json writes canonical_dumps of
that value, and text mode renders the same value. run_cli writes stdout
in one place, inside the try that turns a ValueError or OSError into the
error line, so a reader that goes away also exits 1 with one line.
File artifacts (logs, CSV reports, DOT dumps) are written atomically
with a sibling <artifact>.manifest.json recording the resolved config,
inputs, and the command's own arguments (its run record). An artifact
path that is empty, or that is (or whose manifest would be) a directory
or the state or config file in use, is refused before anything is written.

Each artifact has one recipe in _RECIPES: its flag, its results from
the state, config and run record, and the artifact text of those
results. The command and regenerate() both call it, so regenerate
rebuilds the text the command wrote by construction; it ignores run
fields the recipe does not read, so older manifests still regenerate.

simulate's log is sequence.log_text of its results. simulate's and
analyze's rows are built per distinct possession (sequence.per_distinct),
and frontier shares one row per equal (efficiency, security) point.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .config import AppConfig, config_path, load_config
from .decision import decide, ranked_options
from .dotexport import export_network_dot
from .estimators import estimate_network
from .jsonio import (
    Indexed,
    canonical_dumps,
    manifest_path,
    number_text,
    read_input,
    sha256_of_file,
    write_artifact,
)
from .sequence import efficiency, load_log, log_text, pareto_frontier, per_distinct, security
from .simulate import StyleReport, monte_carlo_compare, run_trials
from .state import match_state_of
from .style import LinearStyle


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="playnet",
        description="Decision networks and possession simulation for football tactics.",
    )
    parser.add_argument("--config", help="config file path (also PLAYNET_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="shoot-or-pass decision for a match state")
    p.add_argument("--state", required=True, help="match state JSON file")
    p.add_argument("--style", required=True, help="style weights as x:y, e.g. 3:1")
    p.add_argument("--threshold", type=float, help="shoot threshold (default from config: 0.5)")
    p.add_argument("--dot", help="also write the network as a DOT graph to this file")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("simulate", help="roll out seeded possessions")
    p.add_argument("--state", required=True)
    p.add_argument("--style", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--out", help="write the sequence log JSON to this file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="metrics of a recorded sequence log")
    p.add_argument("--log", required=True, help="sequence log JSON file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("compare", help="Monte Carlo comparison of styles")
    p.add_argument("--state", required=True)
    p.add_argument("--styles", required=True, help="comma-separated styles, e.g. 3:1,1:3,2:2")
    p.add_argument("--threshold", type=float)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write the per-style report as CSV to this file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("frontier", help="Pareto frontier of sequences in a log")
    p.add_argument("--log", required=True)
    p.add_argument("--json", action="store_true")

    return parser


def _resolve_config(args: argparse.Namespace) -> AppConfig:
    cfg = load_config(args.config)
    overrides = {}
    if getattr(args, "threshold", None) is not None:
        overrides["threshold"] = args.threshold
    if getattr(args, "max_steps", None) is not None:
        overrides["max_steps"] = args.max_steps
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _load_state(path: str) -> tuple:
    """(the state file's MatchState, the SHA-256 of the very bytes it was parsed from).

    The file is read once, so a manifest records the digest of the input
    that ran even if the file is rewritten during the run.
    """
    return read_input("state", path, lambda data: (match_state_of(data), sha256_of_file(data)))


def _check_artifact_path(args: argparse.Namespace) -> str | None:
    """The command's artifact path, or None when its flag is not given: no path means no artifact.

    Called before anything is written. Rejects an empty path (a script's
    unset variable would otherwise succeed and write nothing), a path whose
    directory is missing or not a directory (with the OSError the write
    would raise after the whole run), and a path
    whose file or manifest is a directory (its rename would fail after the
    manifest's) or the state or config file in use (an input replaced while
    its manifest records it by digest could never be regenerated).
    """
    flag = _RECIPES[args.command][0]
    path = getattr(args, flag[2:])
    if path is None:
        return None
    if not path:
        raise ValueError(f"{flag}: the path is empty")
    try:  # with a trailing separator, stat fails as the write would: ENOENT, or ENOTDIR for a file
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None
    inputs = [p for p in (args.state, config_path(args.config)) if p]
    for target in (path, manifest_path(path)):
        if os.path.isdir(target):
            raise ValueError(f"{target}: is a directory")
        for source in inputs:
            if os.path.exists(target) and os.path.samefile(target, source):
                raise ValueError(f"{target}: would overwrite the input file {source}")
    return path


def _csv_text(reports) -> str:
    lines = ["style,trials,mean_efficiency,mean_security,goal_rate,mean_length"]
    for rep in reports:
        lines.append(
            f"{rep.style},{rep.trials},{number_text(rep.mean_efficiency)},"
            f"{number_text(rep.mean_security)},{number_text(rep.goal_rate)},{number_text(rep.mean_length)}"
        )
    return _lines(lines)


def _manifest_field(manifest: dict, dotted: str):
    """The manifest's value at a dotted path such as inputs.state.path."""
    value = manifest
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"manifest: {dotted}: missing")
        value = value[key]
    return value


def _run_field(run, key: str):
    """A field of a run record; regenerate passes the manifest's, which may lack it."""
    return _manifest_field({"run": run}, f"run.{key}")


def _decide_results(state, cfg: AppConfig, run):
    return estimate_network(state, cfg.estimators)


def _simulate_results(state, cfg: AppConfig, run):
    sim = cfg.simulation(LinearStyle.parse(_run_field(run, "style")), _run_field(run, "seed"))
    return run_trials(state, sim, 0, _run_field(run, "trials"))


def _compare_results(state, cfg: AppConfig, run):
    styles = _run_field(run, "styles")
    if not isinstance(styles, list) or not styles:
        raise ValueError(f"manifest: run.styles={styles!r} must be a nonempty array")
    styles = [LinearStyle.parse(text) for text in styles]
    sim = cfg.simulation(styles[0], _run_field(run, "seed"))
    return monte_carlo_compare(state, styles, _run_field(run, "trials"), sim)


# command -> (its artifact's flag, results of (state, config, run record), artifact text of those results);
# the functions they call are looked up at call time, so a patched or traced one is used
_RECIPES = {
    "decide": ("--dot", _decide_results, lambda network: export_network_dot(network)),
    "simulate": ("--out", _simulate_results, lambda results: log_text([r.sequence for r in results])),
    "compare": ("--csv", _compare_results, _csv_text),
}


def _run_recipe(args: argparse.Namespace, cfg: AppConfig, run: dict):
    """The command's results; with its artifact flag given, also its artifact and manifest written there."""
    state, digest = _load_state(args.state)
    path = _check_artifact_path(args)
    _, results_of, text_of = _RECIPES[args.command]
    results = results_of(state, cfg, run)
    if path is not None:
        manifest = {
            "tool": "playnet",
            "version": __version__,
            "command": args.command,
            "config": cfg.to_dict(),
            "run": run,
            # the path is absolute so regenerate works from any cwd
            "inputs": {"state": {"path": os.path.abspath(args.state), "sha256": digest}},
            "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
        write_artifact(path, text_of(results), manifest)
    return results


def _decide_value(args: argparse.Namespace, cfg: AppConfig) -> dict:
    style = LinearStyle.parse(args.style)
    network = _run_recipe(args, cfg, {"style": str(style)})
    policy = cfg.simulation(style).policy
    decision = decide(network, policy)
    decision_obj: dict = {"type": decision.action}
    if decision.is_pass:
        decision_obj.update({"target": decision.target, "score": decision.score, "degenerate": decision.degenerate})
    return {
        "decision": decision_obj,
        "threshold": policy.threshold,
        "ranked": [{"id": j, "score": score} for j, score in ranked_options(network, policy)],
        "network": network.to_json_dict(),
    }


def _decide_text(value: dict) -> str:
    decision = value["decision"]
    if decision["type"] == "shoot":
        s, threshold = number_text(value["network"]["s"]), number_text(value["threshold"])
        lines = [f"decision: shoot (s={s} >= threshold {threshold})"]
    else:
        extra = ", degenerate: every option scored zero" if decision["degenerate"] else ""
        lines = [f"decision: pass -> t{decision['target']} (score {number_text(decision['score'])}{extra})"]
    lines.append("ranked options:")
    for rank, option in enumerate(value["ranked"], start=1):
        lines.append(f"  {rank:2d}. t{option['id']:<2d} score {number_text(option['score'])}")
    return _lines(lines)


def _simulate_value(args: argparse.Namespace, cfg: AppConfig) -> dict:
    style = LinearStyle.parse(args.style)
    run = {"style": str(style), "trials": args.trials, "seed": args.seed}
    results = _run_recipe(args, cfg, run)
    report = StyleReport.from_results(str(style), results)
    rows = per_distinct(lambda r: {
        "steps": len(r.sequence), "outcome": r.sequence.terminal_outcome.label(),
        "efficiency": r.efficiency, "security": r.security,
    }, results)
    return {
        "summary": {
            key: getattr(report, key)
            for key in ("trials", "goal_rate", "mean_efficiency", "mean_security", "mean_length")
        },
        "sequences": rows,
    }


def _simulate_text(value: dict) -> str:
    rows, summary = value["sequences"], value["summary"]
    lines = [
        f"trial {i}: {row['steps']} steps, {row['outcome']}, "
        f"efficiency {number_text(row['efficiency'])}, security {number_text(row['security'])}"
        for i, row in enumerate(rows[:20])
    ]
    if len(rows) > 20:
        lines.append(f"... ({len(rows) - 20} more trials)")
    lines.append(
        f"summary: goal rate {number_text(summary['goal_rate'])}, "
        f"mean efficiency {number_text(summary['mean_efficiency'])}, "
        f"mean security {number_text(summary['mean_security'])}, "
        f"mean length {number_text(summary['mean_length'])}"
    )
    return _lines(lines)


def _analyze_value(args: argparse.Namespace, cfg: AppConfig) -> dict:
    rows = per_distinct(lambda seq: {
        "steps": len(seq), "terminal": seq.terminal_outcome.label(),
        "efficiency": efficiency(seq), "security": security(seq),
    }, load_log(args.log))
    return {"sequences": Indexed(enumerate(rows))}


def _analyze_text(value: dict) -> str:
    return _lines(
        f"sequence {i}: steps {row['steps']}, terminal {row['terminal']}, "
        f"efficiency {number_text(row['efficiency'])}, security {number_text(row['security'])}"
        for i, row in value["sequences"]
    )


def _compare_value(args: argparse.Namespace, cfg: AppConfig) -> dict:
    styles = [LinearStyle.parse(text) for text in args.styles.split(",")]
    run = {"styles": [str(s) for s in styles], "trials": args.trials, "seed": args.seed}
    return {"reports": [dataclasses.asdict(r) for r in _run_recipe(args, cfg, run)]}


def _compare_text(value: dict) -> str:
    lines = [f"{'style':<8}{'trials':>8}{'mean_eff':>12}{'mean_sec':>12}{'goal_rate':>12}{'mean_len':>12}"]
    for rep in value["reports"]:
        lines.append(
            f"{rep['style']:<8}{rep['trials']:>8}{rep['mean_efficiency']:>12.4f}"
            f"{rep['mean_security']:>12.4f}{rep['goal_rate']:>12.4f}{rep['mean_length']:>12.4f}"
        )
    return _lines(lines)


def _frontier_value(args: argparse.Namespace, cfg: AppConfig) -> dict:
    sequences = load_log(args.log)
    rows: dict[tuple, dict] = {}  # an (efficiency, security) point -> its row
    frontier = [
        (idx, rows.setdefault((eff, sec), {"efficiency": eff, "security": sec}))
        for eff, sec, idx in pareto_frontier(sequences)
    ]
    return {"count": len(sequences), "frontier": Indexed(frontier)}


def _frontier_text(value: dict) -> str:
    rows = value["frontier"]
    lines = [f"pareto frontier ({len(rows)} of {value['count']} sequences):"]
    lines += [
        f"  sequence {i}: efficiency {number_text(point['efficiency'])}, security {number_text(point['security'])}"
        for i, point in rows
    ]
    return _lines(lines)


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


# command -> (its report value, the value --json writes, of (args, config); the text of that value)
_COMMANDS = {
    "decide": (_decide_value, _decide_text),
    "simulate": (_simulate_value, _simulate_text),
    "analyze": (_analyze_value, _analyze_text),
    "compare": (_compare_value, _compare_text),
    "frontier": (_frontier_value, _frontier_text),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves a parser as it found it."""
    return build_parser()


def run_cli(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    value_of, text_of = _COMMANDS[args.command]
    try:
        value = value_of(args, _resolve_config(args))
        sys.stdout.write(canonical_dumps(value) if args.json else text_of(value))
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def regenerate(manifest: dict) -> str:
    """Rebuild an artifact's exact text from its manifest.

    Reads the recorded input file once, verifies the digest of the
    bytes it parses, and runs the recorded command's recipe on them
    with the recorded config and run record.
    """
    command = _manifest_field(manifest, "command")
    if not isinstance(command, str) or command not in _RECIPES:
        raise ValueError(f"manifest: cannot regenerate command {command!r}")
    config = _manifest_field(manifest, "config")
    try:
        cfg = AppConfig.from_dict(config)
    except ValueError as err:  # as load_config names its file
        raise ValueError(f"manifest config: {err}") from None
    path = _manifest_field(manifest, "inputs.state.path")
    recorded = _manifest_field(manifest, "inputs.state.sha256")
    for key, value in (("path", path), ("sha256", recorded)):
        if not isinstance(value, str):  # open() would take an integer as a file descriptor
            raise ValueError(f"manifest: inputs.state.{key}={value!r} must be a string")
    state, digest = _load_state(path)
    if digest != recorded:
        raise ValueError(f"input {path}: digest {digest} does not match the manifest ({recorded})")
    _, results_of, text_of = _RECIPES[command]
    return text_of(results_of(state, cfg, manifest.get("run")))


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
