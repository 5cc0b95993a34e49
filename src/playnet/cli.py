"""Command-line surface: decide, simulate, analyze, compare, frontier.

Exit codes are the only success/failure channel: 0 on success, 1 when an
input fails validation, 2 on usage errors. Every subcommand takes --json
for machine-readable output on stdout; file artifacts (logs, CSV
reports, DOT dumps) are written atomically with a sibling
<artifact>.manifest.json recording the resolved config, inputs, and the
command's own arguments (its run record). An artifact path that is the
state or config file in use, or whose manifest would be, is refused
before anything is written.

Each artifact has one recipe in _RECIPES: its results from the state,
config and run record, and the artifact text of those results. The
command and regenerate() both call it, so regenerate rebuilds the text
the command wrote by construction; it ignores run fields the recipe
does not read, so older manifests still regenerate.

analyze and frontier read a log back with the same checks that built
it. A log of many trials repeats a few possessions, so a log in the
layout simulate writes is read by its element texts: each distinct text
is parsed and checked once and its repeats share the frozen sequence.
Any other log is parsed whole and each sequence checked. Either way the
sequences and the first error are those of a whole parse.
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
from .decision import DecisionPolicy, decide, ranked_options
from .dotexport import export_network_dot
from .estimators import default_suite, estimate_network
from .jsonio import (
    canonical_dumps,
    manifest_path,
    number_text,
    parse_json,
    sha256_of_file,
    write_artifact,
)
from .sequence import (
    PossessionSequence,
    efficiency,
    pareto_frontier,
    security,
    sequence_from_obj,
    sequence_to_obj,
)
from .simulate import SimulationConfig, StyleReport, monte_carlo_compare, run_trials
from .state import load_match_state
from .style import LinearStyle


def _fmt(value: float) -> str:
    return number_text(float(value))


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
    p.add_argument("--tie-break", dest="tie_break", help="argmax tie-break rule")
    p.add_argument("--dot", help="also write the network as a DOT graph to this file")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("simulate", help="roll out seeded possessions")
    p.add_argument("--state", required=True)
    p.add_argument("--style", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--tie-break", dest="tie_break")
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
    p.add_argument("--tie-break", dest="tie_break")
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
    if getattr(args, "tie_break", None) is not None:
        overrides["tie_break"] = args.tie_break
    if getattr(args, "max_steps", None) is not None:
        overrides["max_steps"] = args.max_steps
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _policy(cfg: AppConfig, style: LinearStyle) -> DecisionPolicy:
    return DecisionPolicy(style=style, threshold=cfg.threshold, tie_break=cfg.tie_break)


def _sim_config(cfg: AppConfig, style: LinearStyle, seed: int) -> SimulationConfig:
    return SimulationConfig(
        policy=_policy(cfg, style),
        estimators=default_suite(cfg.estimators),
        max_steps=cfg.max_steps,
        seed=seed,
        drift_m=cfg.drift_m,
    )


def _state_inputs(path: str) -> dict:
    """The input record of a manifest; the path is absolute so regenerate works from any cwd."""
    return {"state": {"path": os.path.abspath(path), "sha256": sha256_of_file(path)}}


def _check_artifact_path(path: str | None, args: argparse.Namespace) -> None:
    """Reject an artifact path whose file or manifest is the state or config file in use.

    Called before anything is written: writing there would replace an
    input that the manifest records by digest, so the artifact could
    never be regenerated. No path means no artifact.
    """
    if not path:
        return
    inputs = [p for p in (args.state, config_path(args.config)) if p]
    for target in (path, manifest_path(path)):
        for source in inputs:
            if os.path.exists(target) and os.path.samefile(target, source):
                raise ValueError(f"{target}: would overwrite the input file {source}")


def _log_text(results) -> str:
    """The sequence log of a run: the lone sequence for one trial, else the array of all.

    The bytes are canonical_dumps of that value. Trials that ended the
    same way share one sequence object (see run_trials), so each
    distinct sequence is converted and encoded once, then indented one
    level and joined as canonical_dumps would lay out the whole array.
    """
    if len(results) == 1:
        return canonical_dumps(sequence_to_obj(results[0].sequence))
    encoded: dict[int, str] = {}  # id of a sequence that results keeps alive -> its text
    parts = []
    for r in results:
        text = encoded.get(id(r.sequence))
        if text is None:
            text = canonical_dumps(sequence_to_obj(r.sequence))[:-1].replace("\n", "\n  ")
            encoded[id(r.sequence)] = text
        parts.append(text)
    return "[\n  " + ",\n  ".join(parts) + "\n]\n"


def _csv_text(reports) -> str:
    lines = ["style,trials,mean_efficiency,mean_security,goal_rate,mean_length"]
    for rep in reports:
        lines.append(
            f"{rep.style},{rep.trials},{_fmt(rep.mean_efficiency)},"
            f"{_fmt(rep.mean_security)},{_fmt(rep.goal_rate)},{_fmt(rep.mean_length)}"
        )
    return "\n".join(lines) + "\n"


def _log_items(data: bytes) -> list | None:
    """The elements of a log laid out as _log_text writes it, or None.

    Split at the element boundaries of "[\n  " + ",\n  ".join(texts) +
    "\n]\n"; every element starts with "[". Each distinct element text is
    parsed once and its repeats share the parsed value. If every element
    parses on its own, the whole text is exactly the array of them; if
    any fails, or the layout differs, None sends the caller to a whole
    parse. A slice of UTF-8 decodes as the whole would, as the split
    points are ASCII.
    """
    if not (data.startswith(b"[\n  [") and data.endswith(b"\n]\n")):
        return None
    parsed: dict[bytes, object] = {}  # element text after its "[" -> its value
    items = []
    for text in data[5:-3].split(b",\n  ["):
        item = parsed.get(text)
        if item is None:
            try:
                item = parsed[text] = parse_json("[" + text.decode("utf-8", "surrogatepass"))
            except ValueError:  # UnicodeDecodeError included
                return None
        items.append(item)
    return items


def _read_log(data: bytes, where: str = "") -> list[PossessionSequence]:
    """A log file holds one sequence (array of steps) or an array of sequences.

    In a log that _log_items reads, a repeated element text is one
    parsed object, checked once here, so repeats share the frozen
    sequence. Any other log is parsed whole and each sequence checked.
    Either way the sequences and the first error are those of a whole
    parse and checking each sequence.
    """
    items = _log_items(data)
    if items is None:
        items = parse_json(data, where)
        if not isinstance(items, list) or not items:
            raise ValueError("sequence log: expected a nonempty array")
        if isinstance(items[0], dict):
            return [sequence_from_obj(items)]
    read: dict[int, PossessionSequence] = {}  # id of an item that items keeps alive -> its sequence
    sequences = []
    for item in items:
        seq = read.get(id(item))
        if seq is None:
            seq = read[id(item)] = sequence_from_obj(item)
        sequences.append(seq)
    return sequences


def _load_log(path: str) -> list[PossessionSequence]:
    with open(path, "rb") as fh:
        return _read_log(fh.read(), f"log {path}: ")


def _manifest_field(manifest: dict, dotted: str):
    """The manifest's value at a dotted path such as inputs.state.path."""
    value = manifest
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"manifest: missing field {dotted}")
        value = value[key]
    return value


def _run_field(run, key: str):
    """A field of a run record; regenerate passes the manifest's, which may lack it."""
    return _manifest_field({"run": run}, f"run.{key}")


def _decide_results(state, cfg: AppConfig, run):
    return estimate_network(state, default_suite(cfg.estimators))


def _simulate_results(state, cfg: AppConfig, run):
    sim = _sim_config(cfg, LinearStyle.parse(_run_field(run, "style")), _run_field(run, "seed"))
    return run_trials(state, sim, 0, _run_field(run, "trials"))


def _compare_results(state, cfg: AppConfig, run):
    styles = _run_field(run, "styles")
    if not isinstance(styles, list) or not styles:
        raise ValueError(f"manifest: run.styles={styles!r} must be a nonempty array")
    styles = [LinearStyle.parse(text) for text in styles]
    sim = _sim_config(cfg, styles[0], _run_field(run, "seed"))
    return monte_carlo_compare(state, styles, _run_field(run, "trials"), sim)


# command -> (results of (state, config, run record), artifact text of those results);
# the functions they call are looked up at call time, so a patched or traced one is used
_RECIPES = {
    "decide": (_decide_results, lambda network: export_network_dot(network)),
    "simulate": (_simulate_results, _log_text),
    "compare": (_compare_results, _csv_text),
}


def _run_recipe(args: argparse.Namespace, cfg: AppConfig, run: dict, path: str | None):
    """The command's results; with a path, also its artifact and manifest written there."""
    state = load_match_state(args.state)
    _check_artifact_path(path, args)
    results_of, text_of = _RECIPES[args.command]
    results = results_of(state, cfg, run)
    if path:
        manifest = {
            "tool": "playnet",
            "version": __version__,
            "command": args.command,
            "config": cfg.to_dict(),
            "run": run,
            "inputs": _state_inputs(args.state),
            "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
        write_artifact(path, text_of(results), manifest)
    return results


def _cmd_decide(args: argparse.Namespace, cfg: AppConfig) -> int:
    style = LinearStyle.parse(args.style)
    network = _run_recipe(args, cfg, {"style": str(style)}, args.dot)
    policy = _policy(cfg, style)
    decision = decide(network, policy)
    ranked = ranked_options(network, policy)
    if args.json:
        decision_obj: dict = {"type": decision.action}
        if decision.is_pass:
            decision_obj.update(
                {"target": decision.target, "score": decision.score, "degenerate": decision.degenerate}
            )
        out = {
            "decision": decision_obj,
            "ranked": [{"id": j, "score": score} for j, score in ranked],
            "network": network.to_json_dict(),
        }
        sys.stdout.write(canonical_dumps(out))
        return 0
    if decision.is_shoot:
        print(f"decision: shoot (s={_fmt(network.s)} >= threshold {_fmt(policy.threshold)})")
    else:
        extra = ", degenerate: every option scored zero" if decision.degenerate else ""
        print(f"decision: pass -> t{decision.target} (score {_fmt(decision.score)}{extra})")
    print("ranked options:")
    for rank, (j, score) in enumerate(ranked, start=1):
        print(f"  {rank:2d}. t{j:<2d} score {_fmt(score)}")
    return 0


def _cmd_simulate(args: argparse.Namespace, cfg: AppConfig) -> int:
    style = LinearStyle.parse(args.style)
    run = {"style": str(style), "trials": args.trials, "seed": args.seed}
    results = _run_recipe(args, cfg, run, args.out)
    report = StyleReport.from_results(str(style), results)
    summary = {
        key: getattr(report, key)
        for key in ("trials", "goal_rate", "mean_efficiency", "mean_security", "mean_length")
    }
    if args.json:
        out = {
            "summary": summary,
            "sequences": [
                {
                    "steps": len(r.sequence),
                    "outcome": r.sequence.terminal_outcome.label(),
                    "efficiency": r.efficiency,
                    "security": r.security,
                }
                for r in results
            ],
        }
        sys.stdout.write(canonical_dumps(out))
        return 0
    for i, r in enumerate(results[:20]):
        print(
            f"trial {i}: {len(r.sequence)} steps, {r.sequence.terminal_outcome.label()}, "
            f"efficiency {_fmt(r.efficiency)}, security {_fmt(r.security)}"
        )
    if len(results) > 20:
        print(f"... ({len(results) - 20} more trials)")
    print(
        f"summary: goal rate {_fmt(summary['goal_rate'])}, "
        f"mean efficiency {_fmt(summary['mean_efficiency'])}, "
        f"mean security {_fmt(summary['mean_security'])}, "
        f"mean length {_fmt(summary['mean_length'])}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace, cfg: AppConfig) -> int:
    sequences = _load_log(args.log)
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
    if args.json:
        sys.stdout.write(canonical_dumps({"sequences": rows}))
        return 0
    for row in rows:
        print(
            f"sequence {row['index']}: steps {row['steps']}, terminal {row['terminal']}, "
            f"efficiency {_fmt(row['efficiency'])}, security {_fmt(row['security'])}"
        )
    return 0


def _cmd_compare(args: argparse.Namespace, cfg: AppConfig) -> int:
    styles = [LinearStyle.parse(text) for text in args.styles.split(",") if text != ""]
    if not styles:
        raise ValueError("--styles must name at least one style")
    run = {"styles": [str(s) for s in styles], "trials": args.trials, "seed": args.seed}
    reports = _run_recipe(args, cfg, run, args.csv)
    if args.json:
        sys.stdout.write(canonical_dumps({"reports": [dataclasses.asdict(r) for r in reports]}))
        return 0
    header = f"{'style':<8}{'trials':>8}{'mean_eff':>12}{'mean_sec':>12}{'goal_rate':>12}{'mean_len':>12}"
    print(header)
    for rep in reports:
        print(
            f"{rep.style:<8}{rep.trials:>8}{rep.mean_efficiency:>12.4f}"
            f"{rep.mean_security:>12.4f}{rep.goal_rate:>12.4f}{rep.mean_length:>12.4f}"
        )
    return 0


def _cmd_frontier(args: argparse.Namespace, cfg: AppConfig) -> int:
    sequences = _load_log(args.log)
    frontier = pareto_frontier(sequences)
    if args.json:
        out = {
            "count": len(sequences),
            "frontier": [
                {"index": idx, "efficiency": eff, "security": sec} for eff, sec, idx in frontier
            ],
        }
        sys.stdout.write(canonical_dumps(out))
        return 0
    print(f"pareto frontier ({len(frontier)} of {len(sequences)} sequences):")
    for eff, sec, idx in frontier:
        print(f"  sequence {idx}: efficiency {_fmt(eff)}, security {_fmt(sec)}")
    return 0


_COMMANDS = {
    "decide": _cmd_decide,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "frontier": _cmd_frontier,
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
    try:
        return _COMMANDS[args.command](args, _resolve_config(args))
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def regenerate(manifest: dict) -> str:
    """Rebuild an artifact's exact text from its manifest.

    Reads the recorded input files, verifies their digests, and runs the
    recorded command's recipe with the recorded config and run record.
    """
    if not isinstance(manifest, dict) or "command" not in manifest:
        raise ValueError("manifest: expected an object with a command")
    command = manifest["command"]
    if not isinstance(command, str) or command not in _RECIPES:
        raise ValueError(f"manifest: cannot regenerate command {command!r}")
    cfg = AppConfig.from_dict(_manifest_field(manifest, "config"))
    path = _manifest_field(manifest, "inputs.state.path")
    recorded = _manifest_field(manifest, "inputs.state.sha256")
    for key, value in (("path", path), ("sha256", recorded)):
        if not isinstance(value, str):  # open() would take an integer as a file descriptor
            raise ValueError(f"manifest: inputs.state.{key}={value!r} must be a string")
    digest = sha256_of_file(path)
    if digest != recorded:
        raise ValueError(f"input {path}: digest {digest} does not match the manifest ({recorded})")
    results_of, text_of = _RECIPES[command]
    return text_of(results_of(load_match_state(path), cfg, manifest.get("run")))


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
