"""Span tracer for the benchmark's traced run, kept in the benchmark's own files.

While a Tracer is active it replaces each function in TARGETS with a
wrapper that records one span per call: name, start, end, parent span
and request id. A function is replaced in every playnet module namespace
that holds it (``playnet.simulate.estimate_network`` as well as
``playnet.estimators.estimate_network``), because callers look names up
in their own module at call time. Class methods are replaced on their
class. Leaving the with-block puts every original back.

Spans live in flat arrays in memory and are written out once, at the
end of the run. A target that no longer exists is skipped, so the
metrics it feeds read 0 instead of failing the run.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute): the public functions the per-layer metrics need.
TARGETS = (
    ("cli.run_cli", "playnet.cli", "run_cli"),
    ("config.load_config", "playnet.config", "load_config"),
    ("state.parse_match_state", "playnet.state", "parse_match_state"),
    ("state.load_match_state", "playnet.state", "load_match_state"),
    ("style.parse", "playnet.style", "LinearStyle.parse"),
    ("estimators.estimate_network", "playnet.estimators", "estimate_network"),
    ("estimators.score_prob", "playnet.estimators", "default_score_prob"),
    ("estimators.decision_time", "playnet.estimators", "default_decision_time"),
    ("estimators.pass_prob", "playnet.estimators", "default_pass_prob"),
    ("estimators.risk", "playnet.estimators", "default_risk"),
    ("estimators.unavailable_teammates", "playnet.estimators", "unavailable_teammates"),
    ("network.build_network", "playnet.network", "build_network"),
    ("network.mark_unavailable", "playnet.network", "DecisionNetwork.mark_unavailable"),
    ("network.from_json_dict", "playnet.network", "DecisionNetwork.from_json_dict"),
    ("decision.decide", "playnet.decision", "decide"),
    ("decision.ranked_options", "playnet.decision", "ranked_options"),
    ("simulate.monte_carlo_compare", "playnet.simulate", "monte_carlo_compare"),
    ("simulate.run_trials", "playnet.simulate", "run_trials"),
    ("simulate.rollout", "playnet.simulate", "rollout"),
    ("simulate.derive_seed", "playnet.simulate", "derive_seed"),
    ("simulate.advance_state", "playnet.simulate", "advance_state"),
    ("sequence.sequence_to_obj", "playnet.sequence", "sequence_to_obj"),
    ("sequence.sequence_from_obj", "playnet.sequence", "sequence_from_obj"),
    ("sequence.pareto_frontier", "playnet.sequence", "pareto_frontier"),
    ("jsonio.canonical_dumps", "playnet.jsonio", "canonical_dumps"),
    ("jsonio.write_artifact", "playnet.jsonio", "write_artifact"),
    ("jsonio.sha256_of_file", "playnet.jsonio", "sha256_of_file"),
    ("dotexport.export_network_dot", "playnet.dotexport", "export_network_dot"),
)
REQUEST_SPAN = "bench.request"

# A span's value: the number of teammates found unavailable (zeroed edges).
_OBSERVERS = {"estimators.unavailable_teammates": len}


class Tracer:
    """Context manager that patches TARGETS and records spans in memory."""

    def __init__(self) -> None:
        self.names = [t[0] for t in TARGETS] + [REQUEST_SPAN]
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.value = array.array("q")
        self.request_id = -1
        self.patched = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._root = self._wrap(len(TARGETS), lambda fn, arg: fn(arg), None)

    def __len__(self) -> int:
        return len(self.name)

    def __enter__(self) -> Tracer:
        try:
            self._patch()
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def call_request(self, request_id: int, fn, arg):
        """Run fn(arg) as the root span of one request."""
        self.request_id = request_id
        try:
            return self._root(fn, arg)
        finally:
            self.request_id = -1

    def _wrap(self, name_id: int, fn, observe):
        name, start, end = self.name, self.start, self.end
        parent, request, value = self.parent, self.request, self.value
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            start.append(0)
            end.append(0)
            parent.append(stack[-1] if stack else -1)
            request.append(tracer.request_id)
            value.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                value[idx] = observe(result)
            return result

        return traced

    def _patch(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "playnet" or n.startswith("playnet."))
        ]
        for name_id, (span, modname, attr) in enumerate(TARGETS):
            module = sys.modules.get(modname)
            if module is None:
                continue
            observe = _OBSERVERS.get(span)
            owner, _, member = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                raw = vars(cls).get(member) if isinstance(cls, type) else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name_id, raw.__func__, observe))
                else:
                    new = self._wrap(name_id, raw, observe)
                self._restore.append((cls, member, raw))
                setattr(cls, member, new)
                self.patched += 1
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(name_id, fn, observe)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapped)
                        self.patched += 1

    def _unpatch(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write(self, header_path, spans_path, requests: dict) -> None:
        """Spans as raw arrays, one after another, described by a JSON header."""
        fields = ("name", "start", "end", "parent", "request", "value")
        with open(spans_path, "wb") as fh:
            for field in fields:
                getattr(self, field).tofile(fh)
        header = {
            "count": len(self),
            "byteorder": sys.byteorder,
            "fields": [{"name": f, "typecode": getattr(self, f).typecode} for f in fields],
            "names": self.names,
            "clock": "time.perf_counter_ns",
            "requests": {str(k): v for k, v in requests.items()},
        }
        with open(header_path, "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


def _style_key(style: str) -> str:
    return style.replace(":", "-")


def per_layer_metrics(tr: Tracer, requests: dict, speeds: list, fixed: int, states, styles) -> dict:
    """Per-layer metrics of a traced run.

    speeds[r] scales the span durations of request r to the reference
    host speed, as the end-to-end timings are scaled.

    requests maps the id of each request that passed its checks to
    {"state": label or None, "styles": [...], "possessions": int,
    "steps": int, "log_bytes": int}. Timings average over every span.
    Counts and ratios use only requests with id < fixed, so for one seed
    they repeat exactly from run to run. Possessions and steps come from
    the checked outputs, not from spans, so they stay right however
    playnet goes on to produce them.
    """
    n = len(tr)
    names, nid = tr.names, {s: i for i, s in enumerate(tr.names)}
    name, parent, req, value = tr.name, tr.parent, tr.request, tr.value
    dur = array.array("d", ((e - s) * speeds[r] for s, e, r in zip(tr.start, tr.end, tr.request)))
    # children of one span run one after another in this thread, so their
    # durations add up to the time they cover
    covered = array.array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i]
    calls = [0] * len(names)
    total = [0] * len(names)
    self_total = [0] * len(names)
    for i in range(n):
        k = name[i]
        calls[k] += 1
        total[k] += dur[i]
        self_total[k] += dur[i] - covered[i]

    def per_call(span: str) -> float:
        k = nid[span]
        return total[k] / calls[k] / 1000.0 if calls[k] else 0.0

    def self_per_call(span: str) -> float:
        k = nid[span]
        return self_total[k] / calls[k] / 1000.0 if calls[k] else 0.0

    root, estimate = nid[REQUEST_SPAN], nid["estimators.estimate_network"]
    run_trials = nid["simulate.run_trials"]
    unavailable, mark = nid["estimators.unavailable_teammates"], nid["network.mark_unavailable"]
    counted = {r: v for r, v in requests.items() if r < fixed}
    possessions = sum(v["possessions"] for v in counted.values())
    steps = sum(v["steps"] for v in counted.values())
    logged = sum(v["possessions"] for v in counted.values() if v["log_bytes"])
    log_bytes = sum(v["log_bytes"] for v in counted.values())
    combo_possessions: dict = defaultdict(int)
    for v in counted.values():
        for style in v["styles"] if v["state"] is not None else ():
            combo_possessions[(v["state"], style)] += v["possessions"] // len(v["styles"])
    networks = simulated = zeroed = marks = 0
    combo_estimates: dict = defaultdict(int)
    combo_of_span: dict = {}
    trials_seen: dict = defaultdict(int)
    for i in range(n):
        r = req[i]
        if r not in counted:
            continue
        k = name[i]
        if k == run_trials:
            info = counted[r]
            order = trials_seen[r]
            trials_seen[r] += 1
            if info["state"] is not None and order < len(info["styles"]):
                combo_of_span[i] = (info["state"], info["styles"][order])
        elif k == estimate:
            networks += 1
            p = parent[i]
            if name[p] != root:  # called inside playnet, not by the benchmark itself
                simulated += 1
                while p >= 0 and name[p] != run_trials:
                    p = parent[p]
                combo = combo_of_span.get(p)
                if combo is not None:
                    combo_estimates[combo] += 1
        elif k == unavailable:
            zeroed += value[i]
        elif k == mark:
            marks += 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "simulate.estimate_calls_per_possession": ratio(simulated, possessions),
    }
    for state in states:
        for style in styles:
            key = (state, style)
            m[f"simulate.estimate_calls_per_possession.{state}.{_style_key(style)}"] = ratio(
                combo_estimates[key], combo_possessions[key]
            )
    m.update({
        "simulate.steps_per_possession": ratio(steps, possessions),
        "simulate.rollout.self_us": self_per_call("simulate.rollout"),
        "simulate.advance_state.us_per_call": per_call("simulate.advance_state"),
        "simulate.derive_seed.us_per_call": per_call("simulate.derive_seed"),
        "estimators.estimate_network.self_us": self_per_call("estimators.estimate_network"),
        "estimators.score_prob.us_per_call": per_call("estimators.score_prob"),
        "estimators.decision_time.us_per_call": per_call("estimators.decision_time"),
        "estimators.pass_prob.us_per_call": per_call("estimators.pass_prob"),
        "estimators.risk.us_per_call": per_call("estimators.risk"),
        "estimators.unavailable_teammates.us_per_call": per_call("estimators.unavailable_teammates"),
        "estimators.zeroed_edge_frac": ratio(zeroed, 10 * networks),
        "network.build_network.us_per_call": per_call("network.build_network"),
        "network.mark_unavailable.calls_per_network": ratio(marks, networks),
        "network.from_json_dict.us_per_call": per_call("network.from_json_dict"),
        "state.parse_match_state.us_per_call": per_call("state.parse_match_state"),
        "decision.decide.us_per_call": per_call("decision.decide"),
        "decision.ranked_options.us_per_call": per_call("decision.ranked_options"),
        "sequence.sequence_to_obj.us_per_seq": per_call("sequence.sequence_to_obj"),
        "sequence.sequence_from_obj.us_per_seq": per_call("sequence.sequence_from_obj"),
        "sequence.pareto_frontier.us_per_call": per_call("sequence.pareto_frontier"),
        "jsonio.canonical_dumps.us_per_call": per_call("jsonio.canonical_dumps"),
        "jsonio.write_artifact.us_per_call": per_call("jsonio.write_artifact"),
        "jsonio.sha256_of_file.us_per_call": per_call("jsonio.sha256_of_file"),
        "jsonio.log_bytes_per_possession": ratio(log_bytes, logged),
        "cli.run_cli.self_us": self_per_call("cli.run_cli"),
        "config.load_config.us_per_call": per_call("config.load_config"),
    })
    return m
