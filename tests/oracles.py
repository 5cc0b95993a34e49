"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way
(exhaustive scans, pairwise dominance, straight-line transcriptions of
the default estimator formulas) and shares no code with the library
paths it verifies. Golden files under tests/golden/ were produced by
these functions and frozen.
"""

import json
import math

from playnet.estimators import EstimatorParams
from playnet.jsonio import canonical_number
from playnet.state import MatchState


def best_pass_exhaustive(network, style):
    """(target, score) by scanning all ten teammates one by one, in id order."""
    best_j = None
    best_score = None
    for j in sorted(network.edges):
        e = network.edges[j]
        score = style(e.p, e.r)
        if best_score is None or score > best_score:
            best_j, best_score = j, score
    return best_j, best_score


def ranked_exhaustive(network, style):
    """Full ranking by repeated extraction of the exhaustive best."""
    remaining = dict(network.edges)
    out = []
    while remaining:
        best_j = None
        best_score = None
        for j in sorted(remaining):
            e = remaining[j]
            score = style(e.p, e.r)
            if best_score is None or score > best_score:
                best_j, best_score = j, score
        out.append((best_j, best_score))
        del remaining[best_j]
    return out


def scan_efficiency(seq):
    best = None
    for step in seq.steps:
        s = step.network.s
        if best is None or s > best:
            best = s
    return best


def scan_security(seq):
    worst = None
    for step in seq.steps:
        if step.decision.action == "pass":
            p = step.network.edges[step.decision.target].p
            if worst is None or p < worst:
                worst = p
    return 1.0 if worst is None else worst


def pareto_pairwise(points):
    """Indices of non-dominated (a, b) pairs by checking every other point."""
    keep = []
    for i, (a_i, b_i) in enumerate(points):
        dominated = False
        for k, (a_k, b_k) in enumerate(points):
            if k == i:
                continue
            if a_k >= a_i and b_k >= b_i and (a_k > a_i or b_k > b_i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


# --- straight-line transcriptions of the default estimator formulas ---

# The shipped constants, written out here rather than read from the
# library's defaults, so a change to those defaults shows up as a mismatch.
ORACLE_PARAMS = EstimatorParams(
    score_decay_m=20.0,
    pressure_speed_mps=5.0,
    time_cap_s=4.0,
    pass_decay_m=30.0,
    lane_half_width_m=2.0,
    pass_time_scale_s=1.0,
    openness_radius_m=10.0,
    risk_score_weight=0.7,
    risk_openness_weight=0.3,
    goal_width_m=7.32,
)


def oracle_score_prob(state, x, y, params=ORACLE_PARAMS):
    length = state.pitch.length
    goal_y = state.pitch.width / 2.0
    dist = math.hypot(length - x, goal_y - y)
    if dist == 0.0:
        return 1.0
    low_y = goal_y - params.goal_width_m / 2.0
    high_y = goal_y + params.goal_width_m / 2.0
    if x < length and low_y <= y <= high_y:
        angle_factor = 1.0
    else:
        angle_a = abs(math.atan2(low_y - y, length - x))
        angle_b = abs(math.atan2(high_y - y, length - x))
        angle = angle_a if angle_a < angle_b else angle_b
        angle_factor = max(0.0, math.cos(angle))
    value = math.exp(-dist / params.score_decay_m) * angle_factor
    return min(1.0, max(0.0, value))


def oracle_decision_time(state, params=ORACLE_PARAMS):
    hx, hy = state.team[state.holder]
    nearest = min(math.hypot(ox - hx, oy - hy) for ox, oy in state.opponents)
    return min(nearest / params.pressure_speed_mps, params.time_cap_s)


def _point_segment_distance(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    denom = vx * vx + vy * vy
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / denom))
    cx, cy = ax + t * vx, ay + t * vy
    return math.hypot(px - cx, py - cy)


def oracle_pass_prob(state, target, tau, params=ORACLE_PARAMS):
    hx, hy = state.team[state.holder]
    tx, ty = state.team[target]
    dist = math.hypot(tx - hx, ty - hy)
    clearance = min(
        _point_segment_distance(ox, oy, hx, hy, tx, ty) for ox, oy in state.opponents
    )
    lane = 1.0 / (1.0 + math.exp(-clearance / params.lane_half_width_m))
    value = (
        math.exp(-dist / params.pass_decay_m)
        * lane
        * (1.0 - math.exp(-tau / params.pass_time_scale_s))
    )
    return min(1.0, max(0.0, value))


def oracle_risk(state, target, params=ORACLE_PARAMS):
    tx, ty = state.team[target]
    s_there = oracle_score_prob(state, tx, ty, params)
    nearest = min(math.hypot(ox - tx, oy - ty) for ox, oy in state.opponents)
    openness = min(1.0, nearest / params.openness_radius_m)
    raw = min(1.0, max(0.0, params.risk_score_weight * s_there + params.risk_openness_weight * openness))
    return min(10, int(math.floor(raw * 10.0 + 0.5)))


def oracle_offside_or_outside(state):
    ball_x = state.team[state.holder][0]
    opp_xs = sorted((ox for ox, _ in state.opponents), reverse=True)
    fence = opp_xs[1]
    flagged = []
    for j in sorted(state.team):
        if j == state.holder:
            continue
        if j in state.outside:
            flagged.append(j)
        elif state.team[j][0] > ball_x and state.team[j][0] > fence:
            flagged.append(j)
    return flagged


def oracle_network_dict(state, params=ORACLE_PARAMS):
    """The holder's network as a JSON dict, straight from the formulas above."""
    hx, hy = state.team[state.holder]
    s = oracle_score_prob(state, hx, hy, params)
    tau = oracle_decision_time(state, params)
    blocked = set(oracle_offside_or_outside(state))
    edges = []
    for j in sorted(state.team):
        if j == state.holder:
            continue
        if j in blocked:
            edges.append({"to": j, "p": 0.0, "r": 0})
        else:
            edges.append({
                "to": j, "p": oracle_pass_prob(state, j, tau, params), "r": oracle_risk(state, j, params),
            })
    return {"holder": state.holder, "s": s, "tau": tau, "edges": edges}


# --- exact expectations of a possession, as an absorbing Markov chain ---


def _drift_toward(x, y, tx, ty, dist):
    d = math.hypot(tx - x, ty - y)
    if d <= dist:
        return (tx, ty)
    return (x + dist / d * (tx - x), y + dist / d * (ty - y))


def oracle_advance(state, receiver, drift_m):
    """The snapshot after a completed pass, transcribed from the rollout's drift rule."""
    length, width = state.pitch.length, state.pitch.width
    gx, gy = length, width / 2.0
    bx, by = state.team[receiver]
    team = {}
    for j, (x, y) in state.team.items():
        if j == receiver or j in state.outside:
            team[j] = (x, y)
        else:
            nx, ny = _drift_toward(x, y, gx, gy, drift_m)
            team[j] = (min(length, max(0.0, nx)), min(width, max(0.0, ny)))
    opponents = []
    for x, y in state.opponents:
        nx, ny = _drift_toward(x, y, bx, by, drift_m)
        opponents.append((min(length, max(0.0, nx)), min(width, max(0.0, ny))))
    return MatchState(state.pitch, team, tuple(opponents), receiver, state.outside)


def exact_possession_moments(state, style, threshold=0.5, max_steps=30, drift_m=2.0):
    """Exact per-possession (mean, variance) of efficiency, security, goal and length.

    Keys are the StyleReport field names the means are compared with.

    Default estimators and lowest-id tie-break. The policy is
    deterministic and the next snapshot depends only on the receiver, so
    a possession follows one fixed path; chance decides only where it
    stops. Walking that path once, with the probability of reaching each
    step, gives every outcome's probability: a shot scores with
    probability s, a pass completes with probability p, and degenerate
    passes and the step cap end the possession. O(max_steps) networks.
    """
    first = {"mean_efficiency": 0.0, "mean_security": 0.0, "goal_rate": 0.0, "mean_length": 0.0}
    second = dict(first)

    def absorb(prob, eff, sec, goal, length):
        for key, value in (("mean_efficiency", eff), ("mean_security", sec),
                           ("goal_rate", goal), ("mean_length", length)):
            first[key] += prob * value
            second[key] += prob * value * value

    reach = 1.0
    eff = 0.0
    sec = 1.0
    for k in range(max_steps):
        net = oracle_network_dict(state)
        s = net["s"]
        eff = max(eff, s)
        if s >= threshold:
            absorb(reach * s, eff, sec, 1.0, k + 1)
            absorb(reach * (1.0 - s), eff, sec, 0.0, k + 1)
            break
        best = None
        for edge in net["edges"]:  # ascending id: strict > keeps the lowest id on ties
            score = style(edge["p"], edge["r"])
            if best is None or score > best[0]:
                best = (score, edge["to"], edge["p"])
        score, target, p = best
        sec = min(sec, p)
        if score == 0.0 or k == max_steps - 1:
            absorb(reach, eff, sec, 0.0, k + 1)
            break
        absorb(reach * (1.0 - p), eff, sec, 0.0, k + 1)
        reach *= p
        if reach == 0.0:
            break
        state = oracle_advance(state, target, drift_m)
    return {key: (first[key], max(0.0, second[key] - first[key] ** 2)) for key in first}


def canonicalize(obj):
    """Recursively apply canonical number formatting; dict order is preserved."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, float)):
        return canonical_number(obj)
    if isinstance(obj, dict):
        return {k: canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def reference_canonical_dumps(obj) -> str:
    """The canonical artifact text the obvious way: trim every number, then json.dumps.

    It shares only canonical_number, the trimming rule, with the library;
    the one-pass writer it checks is jsonio.canonical_dumps.
    """
    return json.dumps(canonicalize(obj), indent=2) + "\n"


def sequence_to_obj(seq):
    """The sequence-log JSON shape of a sequence: one object per step, each network converted anew."""
    out = []
    for step in seq.steps:
        if step.decision.is_shoot:
            decision_obj = {"type": "shoot"}
        else:
            decision_obj = {"type": "pass", "target": step.decision.target}
        out.append(
            {
                "network": step.network.to_json_dict(),
                "decision": decision_obj,
                "outcome": step.outcome.label(),
            }
        )
    return out


def reference_log_text(sequences):
    """The sequence log written the obvious way: every sequence converted, encoded as one value.

    What it checks is sequence.log_text, whose value shares one object
    per distinct sequence and step for canonical_dumps to encode once,
    and writes each network's kept text.
    """
    logs = [sequence_to_obj(seq) for seq in sequences]
    return reference_canonical_dumps(logs[0] if len(logs) == 1 else logs)


def reference_analyze_text(sequences):
    """analyze --json written the obvious way: one row per sequence, each measured by a scan."""
    rows = [
        {
            "index": i,
            "steps": len(seq.steps),
            "terminal": seq.steps[-1].outcome.value,
            "efficiency": scan_efficiency(seq),
            "security": scan_security(seq),
        }
        for i, seq in enumerate(sequences)
    ]
    return reference_canonical_dumps({"sequences": rows})


def reference_frontier_text(sequences):
    """frontier --json written the obvious way: the pairwise non-dominated rows, best efficiency first.

    Survivors of equal efficiency have equal security, so they are
    ordered by index alone.
    """
    points = [(scan_efficiency(seq), scan_security(seq)) for seq in sequences]
    keep = sorted(pareto_pairwise(points), key=lambda i: (-points[i][0], i))
    rows = [{"index": i, "efficiency": points[i][0], "security": points[i][1]} for i in keep]
    return reference_canonical_dumps({"count": len(sequences), "frontier": rows})


def reference_simulate_text(results):
    """simulate --json written the obvious way: the summary, then one row per trial."""
    n = float(len(results))
    summary = {
        "trials": len(results),
        "goal_rate": sum(1 for r in results if r.sequence.steps[-1].outcome.value == "shot_scored") / n,
        "mean_efficiency": sum(scan_efficiency(r.sequence) for r in results) / n,
        "mean_security": sum(scan_security(r.sequence) for r in results) / n,
        "mean_length": sum(len(r.sequence.steps) for r in results) / n,
    }
    rows = [
        {
            "steps": len(r.sequence.steps),
            "outcome": r.sequence.steps[-1].outcome.value,
            "efficiency": scan_efficiency(r.sequence),
            "security": scan_security(r.sequence),
        }
        for r in results
    ]
    return reference_canonical_dumps({"summary": summary, "sequences": rows})
