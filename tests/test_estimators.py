import dataclasses
import json
import math
import random

import pytest

import playnet.estimators
from playnet import (
    DecisionNetwork,
    EstimatorParams,
    MatchState,
    Pitch,
    estimate_network,
)
from playnet.estimators import DEFAULT_PARAMS, score_prob_at, unavailable_teammates
from playnet.network import RISK_MAX, PassEdge
from playnet.simulate import advance_state
from playnet.state import parse_match_state

from conftest import (
    GOLDEN_DIR, random_match_state, random_relabelling, relabelled, shuffled_opponents, state_to_obj,
)


def spread_state(holder=8, holder_pos=(55.0, 30.0), opponents=None, overrides=None):
    """A tidy snapshot whose pieces tests can move one at a time."""
    team = {
        1: (8.0, 34.0), 2: (25.0, 10.0), 3: (22.0, 26.0), 4: (22.0, 42.0), 5: (25.0, 58.0),
        6: (42.0, 30.0), 7: (66.0, 12.0), 8: (55.0, 30.0), 9: (80.0, 36.0),
        10: (60.0, 44.0), 11: (68.0, 56.0),
    }
    team[holder] = holder_pos
    if overrides:
        team.update(overrides)
    if opponents is None:
        opponents = tuple((70.0 + (k % 4), 10.0 + 5.0 * k) for k in range(11))
    return MatchState(Pitch(), team, tuple(opponents), holder)


def test_score_prob_goal_center_is_one():
    state = spread_state(holder_pos=(105.0, 34.0))
    assert estimate_network(state).s == 1.0


def test_score_prob_own_half_below_tenth():
    state = spread_state(holder_pos=(52.0, 34.0))
    assert estimate_network(state).s < 0.1


def test_score_prob_decreasing_along_bearing():
    # states differing only by a larger goal distance on the same bearing
    pitch = Pitch()
    gx, gy = pitch.goal_center
    for bearing in (0.0, 0.35, -0.6, 1.1):
        values = []
        for dist in (5.0, 12.0, 25.0, 45.0, 70.0):
            x = gx - dist * math.cos(bearing)
            y = gy - dist * math.sin(bearing)
            if not (0 <= x <= 105 and 0 <= y <= 68):
                continue
            values.append(score_prob_at(pitch, x, y))
        assert values == sorted(values, reverse=True)


def test_score_prob_vanishes_at_goal_line():
    pitch = Pitch()
    assert score_prob_at(pitch, 105.0, 10.0) < 1e-12  # on the line, outside the mouth
    assert score_prob_at(pitch, 104.9, 5.0) < 0.05    # near the corner, tight angle


def test_score_prob_on_the_goal_line_inside_the_mouth():
    # cos(pi/2) is 6.1e-17 in floats, so the line itself gives a tiny positive s
    pitch = Pitch()
    assert 0.0 < score_prob_at(pitch, 105.0, 33.0) < 1e-15
    assert score_prob_at(pitch, 105.0 - 1e-9, 33.0) > 0.95  # 1 nm in front: the mouth is straight ahead
    assert score_prob_at(pitch, 105.0, 34.0) == 1.0  # the exact goal centre


def test_score_prob_behind_the_goal_line_is_positive_zero():
    # behind the line theta is above 90 degrees: s is clipped to +0.0, never -0.0
    pitch = Pitch()
    for x in (105.0 + 1e-9, 105.5, 110.0, 140.0):
        for y in (-20.0, 0.0, 30.0, 33.0, 34.0, 37.0, 68.0, 90.0):
            s = score_prob_at(pitch, x, y)
            assert s == 0.0 and math.copysign(1.0, s) == 1.0, (x, y, s)


def test_score_prob_corridor_has_no_angle_penalty():
    pitch = Pitch()
    s = score_prob_at(pitch, 85.0, 34.0)
    assert s == math.exp(-20.0 / 20.0)


def test_decision_time_boundaries():
    opponents = [(55.0, 30.0)] + [(5.0 + k, 5.0) for k in range(10)]
    assert estimate_network(spread_state(opponents=tuple(opponents))).tau == 0.0
    opponents = [(90.0, 60.0)] + [(80.0 + k, 60.0) for k in range(10)]
    state = spread_state(opponents=tuple(opponents))
    assert estimate_network(state).tau == 4.0
    opponents = [(65.0, 30.0)] + [(80.0 + k, 60.0) for k in range(10)]
    state = spread_state(opponents=tuple(opponents))
    assert estimate_network(state).tau == 2.0


def test_pass_prob_zero_without_time():
    # an opponent on the holder's spot leaves no time at all
    opponents = [(55.0, 30.0)] + [(70.0 + (k % 4), 10.0 + 5.0 * k) for k in range(1, 11)]
    state = spread_state(opponents=tuple(opponents))
    net = estimate_network(state)
    assert net.tau == 0.0
    assert len(unavailable_teammates(state)) < 10  # some pass is estimated, not zeroed
    for j in [j for j in state.team if j != state.holder]:
        assert net.edges[j].p == 0.0


def test_pass_prob_short_open_pass_near_time_cap():
    # receiver 0.5 m away, every opponent far from the lane, tau at cap
    state = spread_state(holder_pos=(55.0, 30.0), overrides={6: (55.5, 30.0)},
                         opponents=tuple((20.0, 5.0 + 5.0 * k) for k in range(11)))
    assert_one_pass_equals_the_kernels(state, DEFAULT_PARAMS)
    assert estimate_network(state).tau == 4.0
    p = reference_pass_prob(state, 6, 4.0)  # 6 is offside, so estimate_network zeroes its edge
    cap = 1.0 - math.exp(-4.0)
    assert p == pytest.approx(cap, rel=0.05)
    assert p < cap  # distance and lane factors stay below 1


def test_pass_prob_opponent_on_lane_midpoint_halves_lane_factor():
    holder_pos = (50.0, 30.0)
    target_pos = (60.0, 30.0)
    far = [(20.0, 5.0 + 5.0 * k) for k in range(10)]
    open_state = spread_state(holder_pos=holder_pos, overrides={6: target_pos},
                              opponents=tuple(far + [(20.0, 60.0)]))
    blocked_state = spread_state(holder_pos=holder_pos, overrides={6: target_pos},
                                 opponents=tuple(far + [(55.0, 30.0)]))
    tau = 2.0
    d = 10.0
    expected_blocked = math.exp(-d / 30.0) * 0.5 * (1.0 - math.exp(-tau))
    # a chosen tau, and 6 is offside: the reference gives p, held to estimate_network on both states
    assert_one_pass_equals_the_kernels(open_state, DEFAULT_PARAMS)
    assert_one_pass_equals_the_kernels(blocked_state, DEFAULT_PARAMS)
    assert reference_pass_prob(blocked_state, 6, tau) == expected_blocked
    assert reference_pass_prob(open_state, 6, tau) > 1.9 * expected_blocked


def test_pass_prob_monotone_in_distance_and_tau():
    # chosen taus and any target: the reference gives p, held to estimate_network on each state
    rng = random.Random(31)
    for _ in range(100):
        state = random_match_state(rng, allow_outside=False)
        assert_one_pass_equals_the_kernels(state, DEFAULT_PARAMS)
        target = rng.choice([j for j in state.team if j != state.holder])
        tau1, tau2 = sorted((rng.uniform(0, 4), rng.uniform(0, 4)))
        assert reference_pass_prob(state, target, tau1) <= reference_pass_prob(state, target, tau2)
        # push the target further out along the holder->target ray
        hx, hy = state.team[state.holder]
        tx, ty = state.team[target]
        if (tx, ty) == (hx, hy):
            continue
        stretched = (hx + 1.5 * (tx - hx), hy + 1.5 * (ty - hy))
        if not (0 <= stretched[0] <= 105 and 0 <= stretched[1] <= 68):
            continue
        team = dict(state.team)
        team[target] = stretched
        far_state = MatchState(state.pitch, team, state.opponents, state.holder)
        assert_one_pass_equals_the_kernels(far_state, DEFAULT_PARAMS)
        tau = rng.uniform(0.5, 4.0)
        assert reference_pass_prob(far_state, target, tau) <= reference_pass_prob(state, target, tau)


def test_risk_saturates_at_goal_mouth():
    state = spread_state(overrides={9: (105.0, 34.0)},
                         opponents=tuple((40.0, 5.0 + 5.0 * k) for k in range(11)))
    assert_one_pass_equals_the_kernels(state, DEFAULT_PARAMS)
    assert reference_risk(state, 9) == 10  # 9 is offside, so estimate_network zeroes its edge


def test_risk_low_when_marked_deep():
    state = spread_state(overrides={9: (6.0, 34.0)},
                         opponents=tuple([(6.5, 34.0)] + [(70.0, 5.0 + 5.0 * k) for k in range(10)]))
    assert estimate_network(state).edges[9].r <= 1


def test_risk_never_grows_with_goal_distance():
    # central corridor, receiver unmarked at every probe: only s_target moves;
    # the probes ahead of the ball are offside, so the reference gives their r
    opponents = tuple((10.0, 60.0 + 0.5 * k) for k in range(11))
    last = None
    for x in (100.0, 90.0, 75.0, 60.0, 45.0, 30.0):
        state = spread_state(overrides={9: (x, 34.0)}, opponents=opponents)
        assert_one_pass_equals_the_kernels(state, DEFAULT_PARAMS)
        r = reference_risk(state, 9)
        if last is not None:
            assert r <= last
        last = r


def test_offside_detection():
    # defenders' second-last x is 88; ball at 55
    opponents = tuple([(100.0, 34.0), (88.0, 30.0)] + [(60.0, 5.0 + 5.0 * k) for k in range(9)])
    state = spread_state(overrides={9: (90.0, 36.0), 7: (88.0, 12.0)}, opponents=opponents)
    flagged = unavailable_teammates(state)
    assert 9 in flagged      # ahead of ball and of the second-last opponent
    assert 7 not in flagged  # level with the second-last opponent is onside
    net = estimate_network(state)
    assert net.edge(9).p == 0.0 and net.edge(9).r == 0
    assert net.edge(7).p > 0.0


def test_level_with_the_ball_is_onside():
    # second-last opponent at x = 60, ball at x = 70
    opponents = tuple([(100.0, 34.0), (60.0, 20.0)] + [(50.0, 5.0 + 5.0 * k) for k in range(9)])
    state = spread_state(holder_pos=(70.0, 30.0), overrides={9: (70.0, 50.0), 11: (70.5, 56.0)},
                         opponents=opponents)
    flagged = unavailable_teammates(state)
    assert 9 not in flagged  # level with the ball, ahead of the second-last opponent
    assert 11 in flagged     # strictly ahead of both
    assert estimate_network(state).edges[9].p > 0.0


def test_behind_ball_never_offside():
    opponents = tuple([(60.0, 34.0)] + [(58.0, 5.0 + 5.0 * k) for k in range(10)])
    state = spread_state(holder_pos=(90.0, 30.0), overrides={6: (80.0, 30.0)}, opponents=opponents)
    assert 6 not in unavailable_teammates(state)


def test_outside_player_zeroed():
    team_fix = {10: (110.0, 70.0)}
    state = MatchState(
        Pitch(),
        {**spread_state().team, **team_fix},
        spread_state().opponents,
        8,
        frozenset({10}),
    )
    net = estimate_network(state)
    assert net.edge(10).p == 0.0 and net.edge(10).r == 0


def test_offside_matches_oracle():
    from oracles import oracle_offside_or_outside

    rng = random.Random(77)
    for _ in range(300):
        state = random_match_state(rng)
        assert unavailable_teammates(state) == oracle_offside_or_outside(state)


def test_estimate_network_matches_frozen_golden():
    from playnet.state import load_match_state

    state = load_match_state(GOLDEN_DIR.parent.parent / "data" / "midfield_state.json")
    golden = json.loads((GOLDEN_DIR / "midfield_network.json").read_text())
    assert estimate_network(state).to_json_dict() == golden


# every constant differs from its default, so an estimate that reads DEFAULT_PARAMS
# (or a hard-coded constant) instead of its params argument disagrees with the oracle
OTHER_PARAMS = EstimatorParams(
    score_decay_m=33.0,
    pressure_speed_mps=3.5,
    time_cap_s=6.5,
    pass_decay_m=21.0,
    lane_half_width_m=3.25,
    pass_time_scale_s=0.6,
    openness_radius_m=14.0,
    risk_score_weight=0.45,
    risk_openness_weight=0.5,
    goal_width_m=11.0,
)


def test_estimate_network_matches_oracle_on_random_states():
    from oracles import ORACLE_PARAMS, oracle_network_dict

    assert OTHER_PARAMS != ORACLE_PARAMS
    for params in (ORACLE_PARAMS, OTHER_PARAMS):
        rng = random.Random(55)
        for _ in range(200):
            state = random_match_state(rng)
            assert estimate_network(state, params).to_json_dict() == oracle_network_dict(state, params)


def test_default_outputs_stay_in_bounds():
    rng = random.Random(2026)
    for _ in range(500):
        state = random_match_state(rng)
        net = estimate_network(state)
        assert 0.0 <= net.s <= 1.0
        assert net.tau >= 0.0
        for j in net.edges:
            e = net.edge(j)
            assert 0.0 <= e.p <= 1.0
            assert 0 <= e.r <= 10 and isinstance(e.r, int)


def test_estimated_network_equals_validated_construction():
    rng = random.Random(606)
    for _ in range(200):
        state = random_match_state(rng)
        net = estimate_network(state)
        checked = DecisionNetwork(net.holder, net.s, net.tau, dict(net.edges))
        assert net == checked
        assert list(net.edges) == list(checked.edges) == sorted(net.edges)
        assert type(net.s) is float and type(net.tau) is float
        for e in net.edges.values():
            assert type(e) is PassEdge and type(e.p) is float and type(e.r) is int


def far_opponents(*near):
    """The given opponents plus enough far ones, deep on the goal line, to make eleven."""
    far = [(104.0, 2.0 + 6.0 * k) for k in range(11 - len(near))]
    return tuple(list(near) + far)


# (holder position, teammate overrides, nearby opponents): each case makes the
# clearest opponent of one lane fall in one branch of the lane-distance code
DEGENERATE_LANES = {
    # teammate 6 on the holder's spot: the lane is a point (norm2 == 0)
    "teammate-on-holder": ((50.0, 34.0), {6: (50.0, 34.0)}, [(53.0, 38.0)]),
    # an opponent exactly on the lane 8 -> 6, between its ends
    "opponent-on-lane": ((50.0, 34.0), {6: (30.0, 34.0)}, [(40.0, 34.0)]),
    # an opponent behind the holder, beyond the lane's start (t clamped to 0)
    "beyond-start": ((50.0, 34.0), {6: (30.0, 34.0)}, [(56.0, 37.0)]),
    # an opponent behind the receiver, beyond the lane's end (t clamped to 1)
    "beyond-end": ((50.0, 34.0), {6: (30.0, 34.0)}, [(25.0, 31.0)]),
}


@pytest.mark.parametrize("case", list(DEGENERATE_LANES))
def test_degenerate_lane_geometry_matches_oracle(case):
    from oracles import _point_segment_distance, oracle_network_dict, oracle_pass_prob

    holder_pos, overrides, near = DEGENERATE_LANES[case]
    state = spread_state(holder_pos=holder_pos, overrides=overrides, opponents=far_opponents(*near))
    net = estimate_network(state)
    assert net.to_json_dict() == oracle_network_dict(state)
    assert_one_pass_equals_the_kernels(state, DEFAULT_PARAMS)
    assert net.edges[6].p == oracle_pass_prob(state, 6, net.tau) > 0.0
    # the case's opponent is the lane's clearest, at the distance its branch gives
    (hx, hy), (tx, ty) = holder_pos, state.team[6]
    clearances = [_point_segment_distance(ox, oy, hx, hy, tx, ty) for ox, oy in state.opponents]
    ox, oy = near[0]
    assert min(clearances) == clearances[0]
    expected = {
        "teammate-on-holder": math.hypot(ox - hx, oy - hy),
        "opponent-on-lane": 0.0,
        "beyond-start": math.hypot(ox - hx, oy - hy),
        "beyond-end": math.hypot(ox - tx, oy - ty),
    }[case]
    assert clearances[0] == expected


def test_suite_calls_the_module_estimators_at_call_time(monkeypatch):
    # The benchmark's tracer wraps playnet.estimators functions after the
    # module is imported; estimate_network looks unavailable_teammates up
    # when called, so the tracer sees it.
    calls = []
    original = playnet.estimators.unavailable_teammates

    def patched(state):
        calls.append("unavailable_teammates")
        return original(state)

    monkeypatch.setattr(playnet.estimators, "unavailable_teammates", patched)
    estimate_network(spread_state())
    assert calls == ["unavailable_teammates"]


# --- a snapshot is estimated once per EstimatorParams ------------------------


def reparsed(state):
    """An equal snapshot, parsed afresh, that no estimate has touched."""
    return parse_match_state(json.dumps(state_to_obj(state)))


def test_a_repeat_estimate_returns_the_same_network():
    state = spread_state()
    net = estimate_network(state)
    assert estimate_network(state) is net
    assert estimate_network(state, DEFAULT_PARAMS) is net


def test_equal_but_distinct_params_hit_the_memo():
    state = spread_state()
    first, second = EstimatorParams(pass_decay_m=25.0), EstimatorParams(pass_decay_m=25.0)
    assert first is not second and first == second
    net = estimate_network(state, first)
    assert estimate_network(state, second) is net


def test_other_params_estimate_afresh():
    state = random_match_state(random.Random(5))
    other = EstimatorParams(score_decay_m=10.0, pass_decay_m=12.0)
    default_net = estimate_network(state)
    other_net = estimate_network(state, other)
    assert other_net == estimate_network(reparsed(state), other)
    assert other_net != default_net
    again = estimate_network(state)  # the memo now holds the other params' network
    assert again == default_net and again is not default_net


def test_the_memo_is_not_part_of_the_snapshot():
    state = random_match_state(random.Random(6))
    twin = reparsed(state)
    before = repr(state)
    estimate_network(state)
    assert state._estimate is not None and twin._estimate is None
    assert state == twin and twin == state
    assert repr(state) == before == repr(twin)
    receiver = next(j for j in state.team if j != state.holder and j not in state.outside)
    successor = advance_state(state, receiver, 2.0)
    assert successor._estimate is None and successor._next is None
    assert state._next == {(receiver, 2.0): successor} and twin._next is None
    assert state == twin and twin == state
    assert repr(state) == before == repr(twin)
    assert {"_estimate", "_next"}.isdisjoint(f.name for f in dataclasses.fields(MatchState))
    copy = dataclasses.replace(state)
    assert copy == state and copy._estimate is None and copy._next is None


# --- the reference: each parameter on its own -----------------------------
#
# estimate_network computes every opponent distance once and shares it
# between tau, the lanes and the markers. The reference below evaluates
# each parameter separately, with the float operations of its formula in
# the order estimate_network must reproduce, so the two agree bit for bit.
# It is never handed a bad target, so it checks none.


def reference_nearest_opponent(state, x, y):
    best = math.inf
    for ox, oy in state.opponents:
        d = math.hypot(ox - x, oy - y)
        if d < best:
            best = d
    return best


def reference_tau(state, params):
    """Nearest-opponent distance over the pressure speed, capped."""
    x, y = state.team[state.holder]
    t = reference_nearest_opponent(state, x, y) / params.pressure_speed_mps
    cap = params.time_cap_s
    return cap if cap < t else t


def reference_pass_prob(state, target, tau, params=DEFAULT_PARAMS):
    """exp(-d/decay) * lane_openness * (1 - exp(-tau/scale)), clamped into [0, 1]."""
    hx, hy = state.team[state.holder]
    tx, ty = state.team[target]
    dx = tx - hx
    dy = ty - hy
    d = math.hypot(dx, dy)
    norm2 = dx * dx + dy * dy
    if norm2 == 0.0:  # the lane is a point: the holder's spot
        lane_clearance = reference_nearest_opponent(state, hx, hy)
    else:
        lane_clearance = math.inf
        for ox, oy in state.opponents:
            t = ((ox - hx) * dx + (oy - hy) * dy) / norm2
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            c = math.hypot(ox - (hx + t * dx), oy - (hy + t * dy))
            if c < lane_clearance:
                lane_clearance = c
    lane_openness = 1.0 / (1.0 + math.exp(-lane_clearance / params.lane_half_width_m))
    p = math.exp(-d / params.pass_decay_m) * lane_openness * (1.0 - math.exp(-tau / params.pass_time_scale_s))
    p = p if p > 0.0 else 0.0
    return p if p < 1.0 else 1.0


def reference_risk_score(state, target, params=DEFAULT_PARAMS):
    """The target's scoring chance and openness, blended and clamped into [0, 1]."""
    tx, ty = state.team[target]
    s_target = score_prob_at(state.pitch, tx, ty, params)
    openness = reference_nearest_opponent(state, tx, ty) / params.openness_radius_m
    openness = openness if openness < 1.0 else 1.0
    raw = params.risk_score_weight * s_target + params.risk_openness_weight * openness
    raw = raw if raw > 0.0 else 0.0
    return raw if raw < 1.0 else 1.0


def reference_risk(state, target, params=DEFAULT_PARAMS):
    """reference_risk_score rounded half-up to 0..10."""
    r = math.floor(reference_risk_score(state, target, params) * RISK_MAX + 0.5)
    return r if r < RISK_MAX else RISK_MAX


def reference_network(state, params):
    """The holder's network from the reference above, built by the checked DecisionNetwork(...).

    s is score_prob_at at the holder, tau is reference_tau, and each
    teammate that unavailable_teammates leaves gets reference_pass_prob
    and reference_risk; the others get (0, 0).
    """
    hx, hy = state.team[state.holder]
    s = score_prob_at(state.pitch, hx, hy, params)
    tau = reference_tau(state, params)
    blocked = unavailable_teammates(state)
    edges = {
        j: (0.0, 0) if j in blocked else (reference_pass_prob(state, j, tau, params), reference_risk(state, j, params))
        for j in state.team if j != state.holder
    }
    return DecisionNetwork(state.holder, s, tau, edges)


def network_bits(net: DecisionNetwork):
    """Every value of a network, to the bit and with its type, in id order."""
    edges = [(j, type(e.p), e.p.hex(), type(e.r), e.r) for j, e in net.edges.items()]
    return net.holder, type(net.s), net.s.hex(), type(net.tau), net.tau.hex(), edges


def test_opponent_order_does_not_change_the_network():
    rng = random.Random(455)
    for _ in range(300):
        state = random_match_state(rng)
        shuffled = shuffled_opponents(state, rng)
        assert network_bits(estimate_network(shuffled)) == network_bits(estimate_network(state))


def test_shirt_numbers_do_not_change_the_network():
    # renumbering the team, the holder and the outside set with it, renumbers the network
    rng = random.Random(456)
    for _ in range(1000):
        state = random_match_state(rng)
        sigma = random_relabelling(rng)
        holder, *values, edges = network_bits(estimate_network(state))
        renumbered = sorted((sigma[j], *rest) for j, *rest in edges)
        assert network_bits(estimate_network(relabelled(state, sigma))) == (sigma[holder], *values, renumbered)


def mirrored(state: MatchState) -> MatchState:
    """state reflected across the pitch's long axis: every y to width - y."""
    width = state.pitch.width
    return dataclasses.replace(
        state,
        team={j: (x, width - y) for j, (x, y) in state.team.items()},
        opponents=tuple((x, width - y) for x, y in state.opponents),
    )


def test_mirroring_the_pitch_does_not_change_the_network():
    # width - y is itself rounded, so the relation holds within 1e-12, not to the
    # bit; an r may move by 1 only where its raw score is that close to a boundary
    rng = random.Random(457)
    for _ in range(3000):
        state = random_match_state(rng)
        net, mirror = estimate_network(state), estimate_network(mirrored(state))
        assert mirror.holder == net.holder and list(mirror.edges) == list(net.edges)
        assert abs(mirror.s - net.s) <= 1e-12 and abs(mirror.tau - net.tau) <= 1e-12
        for j, edge in net.edges.items():
            assert abs(mirror.edges[j].p - edge.p) <= 1e-12
            if mirror.edges[j].r != edge.r:
                low = min(mirror.edges[j].r, edge.r)
                assert abs(mirror.edges[j].r - edge.r) == 1
                assert abs(reference_risk_score(state, j) - (low + 0.5) / RISK_MAX) <= 1e-12


def assert_one_pass_equals_the_kernels(state, params):
    # the reference passes every value through DecisionNetwork's checks,
    # which estimate_network does not run
    assert network_bits(estimate_network(state, params)) == network_bits(reference_network(state, params))


def test_one_pass_network_equals_the_four_estimators_bit_for_bit():
    from oracles import ORACLE_PARAMS

    for params in (ORACLE_PARAMS, OTHER_PARAMS):
        rng = random.Random(909)
        passes = 0
        for _ in range(500):
            state = random_match_state(rng)
            assert_one_pass_equals_the_kernels(state, params)
            # and one completed pass later, where players have drifted
            net = estimate_network(state, params)
            live = [j for j, e in net.edges.items() if e.p > 0.0]
            if live:
                assert_one_pass_equals_the_kernels(advance_state(state, rng.choice(live), 2.0), params)
                passes += 1
        assert passes > 400


def test_one_pass_network_on_absurd_pitches():
    # A pitch near 1e300 meters is accepted. On it a lane's norm2 overflows,
    # so its projection t can be NaN, and near the float maximum distances
    # overflow to inf. Length constants on the same scale keep p and r from
    # flattening to 0 there, so the lane geometry shows in their bits.
    vast = EstimatorParams(score_decay_m=1e300, pass_decay_m=1e300, lane_half_width_m=1e300,
                           openness_radius_m=1e300)
    rng = random.Random(300)
    nan_lanes = 0
    for size in (1e300, 3e300, 1e308, 1.7e308):
        def spot():
            return tuple(rng.choice((0.0, rng.uniform(0.0, size), rng.uniform(0.0, 100.0))) for _ in "xy")

        for _ in range(40):
            team = {j: spot() for j in range(1, 12)}
            state = MatchState(Pitch(size, size), team, tuple(spot() for _ in range(11)), rng.randint(1, 11))
            for params in (DEFAULT_PARAMS, OTHER_PARAMS, vast):
                assert_one_pass_equals_the_kernels(state, params)
            hx, hy = team[state.holder]
            blocked = unavailable_teammates(state)
            for j in [j for j in state.team if j != state.holder]:
                dx, dy = team[j][0] - hx, team[j][1] - hy
                norm2 = dx * dx + dy * dy
                nan_lanes += j not in blocked and norm2 != 0.0 and any(
                    math.isnan(((ox - hx) * dx + (oy - hy) * dy) / norm2) for ox, oy in state.opponents
                )
    assert nan_lanes > 500


def test_params_validated():
    with pytest.raises(ValueError, match="score_decay_m"):
        EstimatorParams(score_decay_m=0.0)
    with pytest.raises(ValueError, match="risk weights"):
        EstimatorParams(risk_score_weight=0.9, risk_openness_weight=0.4)
    with pytest.raises(ValueError, match="pass_decay_m"):
        EstimatorParams(pass_decay_m=math.inf)
    with pytest.raises(ValueError, match="goal_width_m"):
        EstimatorParams(goal_width_m=math.nan)
    with pytest.raises(ValueError, match="risk_openness_weight"):
        EstimatorParams(risk_openness_weight=math.nan)


def test_params_flow_through_suite():
    state = spread_state(holder_pos=(85.0, 34.0))
    slow_decay = EstimatorParams(score_decay_m=40.0)
    assert estimate_network(state, slow_decay).s > estimate_network(state, DEFAULT_PARAMS).s
    # callers of the former suite API get the params back
    assert playnet.estimators.default_suite(slow_decay) is slow_decay
    assert playnet.estimators.default_suite() is DEFAULT_PARAMS
