"""The benchmark's three closed-loop workloads, their inputs and output checks.

Each workload turns (seed, request index) into one request's inputs,
runs the request against playnet (the timed part), checks its outputs,
and serializes them to bytes for the pinned digests. One client sends
the next request only after the previous one returned.

playnet is imported when a workload is built, not when this module is
imported, so that set-up can be timed from a fresh import.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"
STATES = ("midfield", "box")
STATE_PATHS = {s: str(INPUTS / f"{s}_state.json") for s in STATES}
STYLES = ("3:1", "2:2", "1:3")
# Two box requests to one midfield request, rather than a strict alternation:
# with a 50/50 mix of a fast and a slow kind of request the median falls in
# the gap between them and jumps with the slowest fast one. With 2:1 the
# median is a box latency and the 90th percentile a midfield one.
STATE_CYCLE = ("box", "box", "midfield")
MAX_STEPS = 30  # playnet's default config

COMPARE_TRIALS = 100
BATCH_STATES = 50
LOG_TRIALS = 100


def request_seed(seed: int, index: int) -> int:
    """The --seed a request passes to playnet, derived from the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


class Playnet:
    """The playnet modules, looked up by attribute at call time."""

    def __init__(self) -> None:
        for name in ("cli", "decision", "estimators", "sequence", "simulate", "state", "style"):
            setattr(self, name, importlib.import_module(f"playnet.{name}"))


def purge_playnet() -> None:
    """Forget every imported playnet module, so the next import starts fresh."""
    for name in [n for n in sys.modules if n == "playnet" or n.startswith("playnet.")]:
        del sys.modules[name]


def call_cli(pn: Playnet, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pn.cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_error(name: str, result: tuple[int, str, str]) -> str | None:
    code, _, err = result
    if code != 0 or err:
        return f"{name}: exit code {code}, stderr {err.strip()[:200]!r}"
    return None


def _in_unit(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0


class Request:
    """One request's inputs plus what the trace analysis needs to know about it."""

    def __init__(self, possessions: int, state=None, styles=(), payload=None):
        self.possessions = possessions
        self.state = state
        self.styles = list(styles)
        self.payload = payload
        self.steps = 0  # steps of all possessions, from the checked outputs
        self.log_bytes = 0

    def info(self) -> dict:
        return {"state": self.state, "styles": self.styles, "possessions": self.possessions,
                "steps": self.steps, "log_bytes": self.log_bytes}


class CompareFixed:
    """compare on one shipped snapshot per request, box and midfield in turn."""

    name = "compare-fixed"

    def __init__(self, pn: Playnet, tmp: str) -> None:
        self.pn = pn

    def prepare(self, seed: int, index: int) -> Request:
        state = STATE_CYCLE[index % 3]
        argv = ["compare", "--state", STATE_PATHS[state], "--styles", ",".join(STYLES),
                "--trials", str(COMPARE_TRIALS), "--seed", str(request_seed(seed, index)), "--json"]
        return Request(COMPARE_TRIALS * len(STYLES), state, STYLES, argv)

    def run(self, req: Request):
        return call_cli(self.pn, req.payload)

    def check(self, req: Request, out) -> str | None:
        error = _cli_error("compare", out)
        if error:
            return error
        reports = json.loads(out[1])["reports"]
        if [r["style"] for r in reports] != list(STYLES):
            return f"compare: styles {[r['style'] for r in reports]}"
        for r in reports:
            if r["trials"] != COMPARE_TRIALS:
                return f"compare: {r['trials']} trials, asked for {COMPARE_TRIALS}"
            for key in ("mean_efficiency", "mean_security", "goal_rate"):
                if not _in_unit(r[key]):
                    return f"compare: {key}={r[key]!r} outside [0, 1]"
            if not 1 <= r["mean_length"] <= MAX_STEPS:
                return f"compare: mean_length={r['mean_length']!r}"
        req.steps = sum(round(r["mean_length"] * r["trials"]) for r in reports)
        return None

    def output_bytes(self, req: Request, out) -> bytes:
        return out[1].encode("utf-8")


def _random_snapshot(rng: random.Random) -> dict:
    """A valid snapshot in the shape of the test suite's random_match_state."""
    length, width = 105.0, 68.0
    team, outside = [], set()
    for j in range(1, 12):
        if rng.random() < 0.03:
            outside.add(j)
            team.append({"id": j, "x": rng.uniform(-5.0, 110.0), "y": rng.uniform(-5.0, 73.0),
                         "outside": True})
        else:
            team.append({"id": j, "x": rng.uniform(0.0, length), "y": rng.uniform(0.0, width)})
    opponents = [{"x": rng.uniform(0.0, length), "y": rng.uniform(0.0, width)} for _ in range(11)]
    holder = rng.choice([j for j in range(1, 12) if j not in outside])
    return {"pitch": {"length": length, "width": width}, "team": team,
            "opponents": opponents, "holder": holder}


class RandomStates:
    """A library batch of distinct random snapshots, each decided and rolled out once."""

    name = "random-states"

    def __init__(self, pn: Playnet, tmp: str) -> None:
        self.pn = pn
        self.suite = pn.estimators.default_suite()

    def prepare(self, seed: int, index: int) -> Request:
        rng = random.Random(f"perfbench:{seed}:{index}")
        batch = []
        for _ in range(BATCH_STATES):
            snapshot = _random_snapshot(rng)
            x, y = rng.randint(0, 5), rng.randint(0, 5)
            if x == y == 0:
                x = 1
            batch.append((json.dumps(snapshot).encode("ascii"), (x, y),
                          rng.uniform(0.2, 0.8), rng.getrandbits(63), snapshot["holder"]))
        return Request(BATCH_STATES, payload=batch)

    def run(self, req: Request):
        pn, suite = self.pn, self.suite
        results = []
        for data, (x, y), threshold, seed, _ in req.payload:
            state = pn.state.parse_match_state(data)
            network = pn.estimators.estimate_network(state, suite)
            policy = pn.decision.DecisionPolicy(style=pn.style.LinearStyle(x, y), threshold=threshold)
            decision = pn.decision.decide(network, policy)
            ranked = pn.decision.ranked_options(network, policy)
            result = pn.simulate.rollout(
                state, pn.simulate.SimulationConfig(policy=policy, estimators=suite, seed=seed)
            )
            results.append((state, network, decision, ranked, result))
        return results

    def check(self, req: Request, out) -> str | None:
        seqmod = self.pn.sequence
        if len(out) != len(req.payload):
            return f"random-states: {len(out)} results for {len(req.payload)} snapshots"
        for k, ((_, _, threshold, _, holder), (state, net, decision, ranked, result)) in enumerate(
            zip(req.payload, out)
        ):
            where = f"random-states snapshot {k}"
            seq = result.sequence
            if state.holder != holder or net.holder != holder:
                return f"{where}: holder {state.holder}/{net.holder}, generated {holder}"
            if len(ranked) != 10 or any(a[1] < b[1] for a, b in zip(ranked, ranked[1:])):
                return f"{where}: ranked options not ten in descending order"
            if decision.is_shoot != (net.s >= threshold):
                return f"{where}: shoot={decision.is_shoot} with s={net.s}, threshold={threshold}"
            if decision.is_pass and (decision.target, decision.score) != ranked[0]:
                return f"{where}: pass to {decision.target}, ranked head {ranked[0]}"
            first = seq.steps[0]
            if first.network != net or first.decision.action != decision.action \
                    or first.decision.target != decision.target:
                return f"{where}: rollout's first step differs from the decision"
            if result.efficiency != seqmod.efficiency(seq) or result.security != seqmod.security(seq):
                return f"{where}: efficiency/security differ from efficiency(seq)/security(seq)"
            if not (_in_unit(result.efficiency) and _in_unit(result.security)):
                return f"{where}: efficiency/security outside [0, 1]"
            if result.scored != seq.scored or not 1 <= len(seq) <= MAX_STEPS:
                return f"{where}: scored={result.scored}, {len(seq)} steps"
            for step in seq.steps:
                n = step.network
                if not (_in_unit(n.s) and n.tau >= 0.0) or any(
                    not _in_unit(e.p) or not 0 <= e.r <= 10 for e in n.edges.values()
                ):
                    return f"{where}: network values out of range"
        req.steps = sum(len(result.sequence) for *_, result in out)
        return None

    def output_bytes(self, req: Request, out) -> bytes:
        rows = []
        for _, net, decision, ranked, result in out:
            steps = [
                [s.network.holder, s.network.s, s.network.tau,
                 [[j, e.p, e.r] for j, e in sorted(s.network.edges.items())],
                 s.decision.action, s.decision.target, s.outcome.label()]
                for s in result.sequence.steps
            ]
            rows.append([decision.action, decision.target, decision.score, ranked, steps,
                         result.efficiency, result.security, result.scored])
        return json.dumps(rows).encode("ascii")


def _frontier_indices(points: list[tuple[float, float]]) -> list[int]:
    """Indices of the points no other point dominates (pairwise reference)."""
    return [
        i for i, (e, s) in enumerate(points)
        if not any(e2 >= e and s2 >= s and (e2 > e or s2 > s) for e2, s2 in points)
    ]


class LogRoundtrip:
    """simulate writes a log, then analyze and frontier read it back."""

    name = "log-roundtrip"

    def __init__(self, pn: Playnet, tmp: str) -> None:
        self.pn = pn
        self.log = os.path.join(tmp, "log.json")

    def prepare(self, seed: int, index: int) -> Request:
        # every (state, style) pair recurs every nine requests
        state, style = STATE_CYCLE[index % 3], STYLES[index // 3 % 3]
        argv = ["simulate", "--state", STATE_PATHS[state], "--style", style,
                "--trials", str(LOG_TRIALS), "--seed", str(request_seed(seed, index)),
                "--out", self.log]
        return Request(LOG_TRIALS, state, [style], argv)

    def run(self, req: Request):
        sim = call_cli(self.pn, req.payload)
        analyze = call_cli(self.pn, ["analyze", "--log", self.log, "--json"])
        frontier = call_cli(self.pn, ["frontier", "--log", self.log, "--json"])
        return {"simulate": sim, "analyze": analyze, "frontier": frontier}

    def check(self, req: Request, out) -> str | None:
        for name in ("simulate", "analyze", "frontier"):
            error = _cli_error(name, out[name])
            if error:
                return error
        with open(self.log, "rb") as fh:
            out["log"] = fh.read()
        req.log_bytes = len(out["log"])
        log = json.loads(out["log"])
        if len(log) != LOG_TRIALS:
            return f"log-roundtrip: log holds {len(log)} sequences, asked for {LOG_TRIALS}"
        expected = []
        for i, steps in enumerate(log):
            passes = [
                e["p"] for st in steps if st["decision"]["type"] == "pass"
                for e in st["network"]["edges"] if e["to"] == st["decision"]["target"]
            ]
            expected.append({"index": i, "steps": len(steps), "terminal": steps[-1]["outcome"],
                             "efficiency": max(st["network"]["s"] for st in steps),
                             "security": min(passes, default=1)})
        rows = json.loads(out["analyze"][1])["sequences"]
        if rows != expected:
            return "log-roundtrip: analyze disagrees with the simulate log"
        if not all(_in_unit(r["efficiency"]) and _in_unit(r["security"]) for r in rows):
            return "log-roundtrip: efficiency/security outside [0, 1]"
        frontier = json.loads(out["frontier"][1])
        points = [(r["efficiency"], r["security"]) for r in rows]
        got = frontier["frontier"]
        if frontier["count"] != LOG_TRIALS or sorted(f["index"] for f in got) != _frontier_indices(points):
            return "log-roundtrip: frontier is not the non-dominated set of the log"
        if any((f["efficiency"], f["security"]) != points[f["index"]] for f in got):
            return "log-roundtrip: frontier values differ from analyze"
        if "summary:" not in out["simulate"][1]:
            return "log-roundtrip: simulate printed no summary"
        req.steps = sum(r["steps"] for r in rows)
        return None

    def output_bytes(self, req: Request, out) -> bytes:
        return b"".join([out["simulate"][1].encode("utf-8"), out["log"],
                         out["analyze"][1].encode("utf-8"), out["frontier"][1].encode("utf-8")])


WORKLOADS = {w.name: w for w in (CompareFixed, RandomStates, LogRoundtrip)}


def regenerate_check(pn: Playnet, tmp: str) -> str | None:
    """simulate writes an artifact; regenerate(manifest) must rebuild it byte for byte.

    Absolute paths keep the check independent of the working directory.
    """
    out = os.path.abspath(os.path.join(tmp, "regenerate.json"))
    result = call_cli(pn, ["simulate", "--state", STATE_PATHS["midfield"], "--style",
                           "3:1", "--trials", "20", "--seed", "7", "--out", out])
    error = _cli_error("regenerate: simulate", result)
    if error:
        return error
    with open(out + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(out, encoding="utf-8") as fh:
        written = fh.read()
    if pn.cli.regenerate(manifest) != written:
        return "regenerate: rebuilt artifact differs from the simulate output"
    return None
