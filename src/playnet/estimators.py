"""Estimation of the four decision parameters from a match snapshot.

How s, tau, p and r should be measured is an open modeling question with
a literature of its own (shot models, pass-ability models, tracking
metrics). This module ships one answer, closed-form geometric formulas
that are bounded, smooth, cheap, and monotone in the directions a coach
would expect:

* s    the holder's scoring chance (score_prob_at) falls with distance
       to goal and with how far the attack direction points away from
       the goal mouth;
* tau  the holder's decision time grows with the nearest opponent's
       distance (pressure forces fast decisions), capped;
* p    a pass's completion probability falls with pass length, falls as
       opponents close on the passing lane, grows with the time available;
* r    the receiver's risk blends the receiver's own scoring chance with
       how unmarked the receiver is, rounded to 0..10.

Every constant lives in EstimatorParams and can be overridden from the
config file without touching code. Teammates who are offside or outside
the pitch are not estimated at all: their edge is (p, r) = (0, 0).

estimate_network is the one estimator: it builds the holder's network
in one pass, with each opponent distance computed once. Every value is
in range by construction (see estimate_network), so the network is
built without DecisionNetwork's checks. EstimatorParams checks its
constants with network.py's checkers. The snapshot read here was
checked where it entered (see state.py).

estimate_network memoizes its result on the snapshot: a MatchState
keeps the (params, network) of its last estimate, and a call with the
same or equal params returns that network without estimating again.
So a caller who decides on a snapshot and then rolls it out estimates
it once. Neither MatchState.team nor a returned network's edges may be
mutated, since the memo would then describe another snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import atan2, cos, exp, floor, hypot, inf

from .network import DecisionNetwork, PassEdge, RISK_MAX, check_real
from .state import MatchState


@dataclass(frozen=True)
class EstimatorParams:
    """Constants of the default estimators (distances in meters, times in seconds)."""

    score_decay_m: float = 20.0        # e-folding distance of the scoring chance
    pressure_speed_mps: float = 5.0    # closing speed assumed for the nearest opponent
    time_cap_s: float = 4.0            # decision time is never above this
    pass_decay_m: float = 30.0         # e-folding distance of pass completion
    lane_half_width_m: float = 2.0     # logistic scale of lane contention
    pass_time_scale_s: float = 1.0     # time constant of the (1 - exp(-tau/scale)) factor
    openness_radius_m: float = 10.0    # distance at which a receiver counts as unmarked
    risk_score_weight: float = 0.7     # weight of the receiver's scoring chance in r
    risk_openness_weight: float = 0.3  # weight of the receiver's openness in r
    goal_width_m: float = 7.32         # goal mouth span, centered on y = width/2

    def __post_init__(self) -> None:
        for f in fields(self):  # the risk weights may be 0, every other constant must be > 0
            strict = f.name not in ("risk_score_weight", "risk_openness_weight")
            value = check_real(getattr(self, f.name), f"estimator constant {f.name}", 0.0, strict=strict)
            object.__setattr__(self, f.name, value)
        if self.risk_score_weight + self.risk_openness_weight > 1.0 + 1e-9:
            raise ValueError("risk weights must sum to at most 1 so r stays in 0..10")


DEFAULT_PARAMS = EstimatorParams()


def score_prob_at(pitch, x: float, y: float, params: EstimatorParams = DEFAULT_PARAMS) -> float:
    """Scoring chance from position (x, y): exp(-d_goal/decay) * max(0, cos theta).

    theta is the turn from the attack direction (+x) to the nearest ray
    into the goal mouth: zero whenever shooting straight ahead reaches
    the mouth, otherwise the angle to the closer goalpost. Along any
    fixed bearing the angle term is constant or shrinking with distance,
    which makes s decrease in d_goal by construction.

    On the goal line (x == length) theta is atan2(., 0.0) = 90 degrees,
    and cos of that is 6.1e-17 in floats, not zero: a holder on the line
    1 m off centre inside the mouth gets s = 5.8e-17. One nanometre in
    front of the line the mouth is straight ahead, so s jumps to about
    0.951 there, and at the exact goal centre d_goal = 0 gives s = 1.
    Only behind the line is theta above 90 degrees: the cosine is
    negative there, and so is the product, which s clips to +0.0.
    """
    length = pitch.length
    gy = pitch.width / 2.0
    half = params.goal_width_m / 2.0
    d_goal = hypot(length - x, gy - y)
    if d_goal == 0.0:
        return 1.0
    if x < length and gy - half <= y <= gy + half:
        cos_theta = 1.0
    else:
        theta_low = abs(atan2(gy - half - y, length - x))
        theta_high = abs(atan2(gy + half - y, length - x))
        cos_theta = cos(theta_high if theta_high < theta_low else theta_low)
    s = exp(-d_goal / params.score_decay_m) * cos_theta
    s = s if s > 0.0 else 0.0
    return s if s < 1.0 else 1.0


def default_suite(params: EstimatorParams = DEFAULT_PARAMS) -> EstimatorParams:
    """params itself, for callers written when estimators came as a suite of four functions."""
    return params


def second_last_opponent_x(state: MatchState) -> float:
    xs = sorted((pos[0] for pos in state.opponents), reverse=True)
    return xs[1]


def unavailable_teammates(state: MatchState) -> list[int]:
    """Teammates whose edge must be zeroed: flagged outside, or offside.

    Offside: strictly ahead of the ball and strictly ahead of the
    second-last opponent, measured along the attack direction at the
    moment the pass would be decided.
    """
    holder = state.holder
    outside = state.outside
    team = state.team
    ball_x = team[holder][0]
    fence_x = second_last_opponent_x(state)
    return [
        j for j, (x, _) in team.items()
        if j != holder and (j in outside or (x > ball_x and x > fence_x))
    ]


_NO_PASS = PassEdge(0.0, 0)  # the edge of a teammate who cannot receive


def estimate_network(state: MatchState, params: EstimatorParams = DEFAULT_PARAMS) -> DecisionNetwork:
    """The holder's decision network under params, in one pass.

    Each value comes out bit for bit as evaluating its formula on its
    own would give it; the tests hold it to such a reference. The
    holder's offset and distance to each opponent are computed once: the
    nearest gives tau, and also the clearance of a lane that is a point.
    One loop over the opponents per teammate gives both the lane's
    clearance and the receiver's nearest opponent. Where an opponent's projection clamps to the holder
    (t <= 0) its lane distance is its holder distance, since
    hx + 0.0 * dx == hx for the finite dx of any snapshot; a NaN t, from
    a pitch so large that norm2 overflows, fails both clamp tests and
    takes the general formula. Unavailable teammates (offside or
    outside) are not estimated; their edge is (p, r) = (0, 0).

    No value is checked, since each is in range by construction:
    * s is clamped into [0, 1]; a NaN fails s > 0.0 and becomes 0.
    * tau is the nearest opponent's distance, a hypot of finite offsets
      and so never NaN or negative, over a positive speed; it is capped
      at time_cap_s, which EstimatorParams holds finite.
    * p is clamped into [0, 1] as s is, a NaN to 0.
    * r rounds a raw score clamped into [0, 1] as s is, so it is an int
      in 0..10.

    The network is stored on the state with params (see state.py); a
    later call with params that are the stored ones, or equal to them,
    returns that same network object.
    """
    memo = state._estimate
    if memo is not None and (memo[0] is params or memo[0] == params):
        return memo[1]
    pitch = state.pitch
    team = state.team
    holder = state.holder
    hx, hy = team[holder]
    s = score_prob_at(pitch, hx, hy, params)
    # per opponent: position, offset from the holder and distance to the holder
    rel = [(ox, oy, ox - hx, oy - hy, hypot(ox - hx, oy - hy)) for ox, oy in state.opponents]
    near = min([o[4] for o in rel])
    tau = near / params.pressure_speed_mps
    cap = params.time_cap_s
    tau = cap if cap < tau else tau
    blocked = unavailable_teammates(state)
    pass_decay = params.pass_decay_m
    lane_half_width = params.lane_half_width_m
    time_factor = 1.0 - exp(-tau / params.pass_time_scale_s)
    openness_radius = params.openness_radius_m
    score_weight = params.risk_score_weight
    openness_weight = params.risk_openness_weight
    edges: dict[int, PassEdge] = {}
    for j, (tx, ty) in team.items():
        if j == holder:
            continue
        if j in blocked:
            edges[j] = _NO_PASS
            continue
        dx = tx - hx
        dy = ty - hy
        norm2 = dx * dx + dy * dy
        marker = inf  # the receiver's nearest opponent
        if norm2 == 0.0:  # the lane is a point: the holder's spot
            clearance = near
            for ox, oy, _, _, _ in rel:
                c = hypot(ox - tx, oy - ty)
                if c < marker:
                    marker = c
        else:
            clearance = inf
            ex = hx + dx  # the lane's end, as hx + 1.0 * dx
            ey = hy + dy
            for ox, oy, ax, ay, hd in rel:
                t = (ax * dx + ay * dy) / norm2
                if t <= 0.0:
                    c = hd
                elif t > 1.0:
                    c = hypot(ox - ex, oy - ey)
                else:
                    c = hypot(ox - (hx + t * dx), oy - (hy + t * dy))
                if c < clearance:
                    clearance = c
                c = hypot(ox - tx, oy - ty)
                if c < marker:
                    marker = c
        lane_openness = 1.0 / (1.0 + exp(-clearance / lane_half_width))
        p = exp(-hypot(dx, dy) / pass_decay) * lane_openness * time_factor
        p = p if p > 0.0 else 0.0
        p = p if p < 1.0 else 1.0
        openness = marker / openness_radius
        openness = openness if openness < 1.0 else 1.0
        raw = score_weight * score_prob_at(pitch, tx, ty, params) + openness_weight * openness
        raw = raw if raw > 0.0 else 0.0
        raw = raw if raw < 1.0 else 1.0
        r = floor(raw * RISK_MAX + 0.5)
        r = r if r < RISK_MAX else RISK_MAX
        edges[j] = PassEdge(p, r)
    network = DecisionNetwork._trusted(holder, s, tau, edges)
    object.__setattr__(state, "_estimate", (params, network))
    return network

