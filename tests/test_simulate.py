import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import playnet.sequence
import playnet.simulate

from playnet import (
    DecisionPolicy,
    LinearStyle,
    MatchState,
    Pitch,
    SimulationConfig,
    default_suite,
    derive_seed,
    efficiency,
    monte_carlo_compare,
    rollout,
    run_trials,
    security,
    simulate_possession,
)
from playnet.sequence import sequence_to_obj
from playnet.simulate import StyleReport, advance_state

from conftest import random_match_state
from oracles import exact_possession_moments


def base_config(style=LinearStyle(3, 1), threshold=0.5, seed=0, **kwargs):
    return SimulationConfig(
        policy=DecisionPolicy(style=style, threshold=threshold),
        estimators=default_suite(),
        seed=seed,
        **kwargs,
    )


def corner_kick_state(holder_pos):
    team = {j: (30.0 + 2.0 * j, 20.0 + 2.0 * j) for j in range(1, 12)}
    team[9] = holder_pos
    opponents = tuple((15.0 + k, 60.0) for k in range(11))
    return MatchState(Pitch(), team, opponents, 9)


def test_certain_shot_scores_on_any_seed():
    state = corner_kick_state((105.0, 34.0))  # s
    for seed in (0, 1, 42, 987654321):
        seq = simulate_possession(state, base_config(seed=seed))
        assert len(seq) == 1
        assert seq.steps[0].decision.is_shoot
        assert seq.terminal_outcome.label() == "shot_scored"


def test_zero_threshold_forces_shot_that_never_scores_at_s_zero():
    # corner flag: scoring chance clips to ~0 but the policy still forces the shot
    state = corner_kick_state((105.0, 0.0))
    seq = simulate_possession(state, base_config(threshold=0.0, seed=3))
    assert len(seq) == 1
    assert seq.terminal_outcome.label() == "shot_missed"


def test_max_steps_one_forces_loss_on_pass():
    state = corner_kick_state((50.0, 34.0))  # deep position, decision will be a pass
    seq = simulate_possession(state, base_config(max_steps=1, seed=5))
    assert len(seq) == 1
    assert seq.steps[0].decision.is_pass
    assert seq.terminal_outcome.label() == "forced_loss"


def test_all_teammates_outside_is_degenerate_forced_loss():
    team = {j: (-5.0, -5.0) for j in range(1, 12)}
    team[8] = (50.0, 34.0)
    state = MatchState(
        Pitch(), team, tuple((80.0, 6.0 * k + 2.0) for k in range(11)), 8,
        frozenset(j for j in range(1, 12) if j != 8),
    )
    seq = simulate_possession(state, base_config(seed=9))
    assert len(seq) == 1
    assert seq.steps[0].decision.degenerate
    assert seq.terminal_outcome.label() == "forced_loss"


def test_same_seed_same_sequence(midfield_state):
    cfg = base_config(seed=42)
    assert simulate_possession(midfield_state, cfg) == simulate_possession(midfield_state, cfg)


def test_different_seeds_eventually_differ(midfield_state):
    seqs = {tuple(s.outcome.label() for s in simulate_possession(midfield_state, base_config(seed=k)).steps)
            for k in range(40)}
    assert len(seqs) > 1


def test_rollout_metrics_match_recompute():
    rng = random.Random(606)
    for k in range(200):
        state = random_match_state(rng)
        cfg = base_config(style=LinearStyle(rng.randint(0, 4), rng.randint(0, 4) or 1), seed=k)
        result = rollout(state, cfg)
        assert result.efficiency == efficiency(result.sequence)
        assert result.security == security(result.sequence)
        assert result.scored == result.sequence.scored


def test_rollout_sequences_always_valid():
    rng = random.Random(607)
    for k in range(200):
        state = random_match_state(rng)
        seq = simulate_possession(state, base_config(seed=k, max_steps=12))
        # construction enforces chaining/terminality; spot-check the chain anyway
        for a, b in zip(seq.steps, seq.steps[1:]):
            assert a.outcome.kind == "pass_completed"
            assert b.network.holder == a.decision.target
        assert seq.terminal_outcome.is_terminal
        assert len(seq) <= 12


def test_derive_seed_is_stable():
    assert derive_seed(42, 0, 0) == derive_seed(42, 0, 0)
    assert derive_seed(42, 0, 0) != derive_seed(42, 0, 1)
    assert derive_seed(42, 0, 0) != derive_seed(42, 1, 0)
    # frozen value: must never drift across platforms or releases
    assert derive_seed(42, 0, 0) == 14343004183857124121


def test_trial_prefix_independent_of_total(midfield_state):
    cfg = base_config(seed=11)
    five = run_trials(midfield_state, cfg, 0, 5)
    two = run_trials(midfield_state, cfg, 0, 2)
    assert [r.sequence for r in five[:2]] == [r.sequence for r in two]


def test_compare_single_trial_equals_sequence_metrics(midfield_state):
    cfg = base_config(seed=17)
    report = monte_carlo_compare(midfield_state, [LinearStyle(3, 1)], 1, cfg)[0]
    result = rollout(
        midfield_state, dataclasses.replace(cfg, seed=derive_seed(17, 0, 0))
    )
    assert report.mean_efficiency == result.efficiency
    assert report.mean_security == result.security
    assert report.goal_rate == (1.0 if result.scored else 0.0)
    assert report.mean_length == float(len(result.sequence))


def test_compare_first_entry_independent_of_list(midfield_state):
    cfg = base_config(seed=23)
    alone = monte_carlo_compare(midfield_state, [LinearStyle(3, 1)], 20, cfg)
    doubled = monte_carlo_compare(midfield_state, [LinearStyle(3, 1), LinearStyle(3, 1)], 20, cfg)
    assert alone[0] == doubled[0]


def test_compare_rejects_empty_styles(midfield_state):
    with pytest.raises(ValueError):
        monte_carlo_compare(midfield_state, [], 5, base_config())


def test_advance_state_moves_players(midfield_state):
    receiver = 6
    before = midfield_state
    after = advance_state(before, receiver, 2.0)
    assert after.holder == receiver
    assert after.team[receiver] == before.team[receiver]
    gx, gy = before.pitch.goal_center
    for j, (x0, y0) in before.team.items():
        x1, y1 = after.team[j]
        step = math.hypot(x1 - x0, y1 - y0)
        assert step <= 2.0 + 1e-9
        if j != receiver:
            d0 = math.hypot(gx - x0, gy - y0)
            d1 = math.hypot(gx - x1, gy - y1)
            assert d1 <= d0
    bx, by = before.team[receiver]
    for (x0, y0), (x1, y1) in zip(before.opponents, after.opponents):
        assert math.hypot(x1 - x0, y1 - y0) <= 2.0 + 1e-9
        assert math.hypot(bx - x1, by - y1) <= math.hypot(bx - x0, by - y0)


def test_advance_state_keeps_outside_players_fixed():
    team = {j: (40.0 + j, 30.0) for j in range(1, 12)}
    team[11] = (-3.0, 80.0)
    state = MatchState(Pitch(), team, tuple((60.0, 6.0 * k + 1.0) for k in range(11)), 8,
                       frozenset({11}))
    after = advance_state(state, 9, 2.0)
    assert after.team[11] == (-3.0, 80.0)
    assert after.outside == frozenset({11})


def test_advanced_state_equals_validated_construction():
    rng = random.Random(505)
    suite = default_suite()
    checked_receivers = outside_states = 0
    for _ in range(150):
        state = random_match_state(rng)
        outside_states += bool(state.outside)
        drift = rng.choice([0.0, 0.5, 2.0, 7.0, 200.0])
        network = playnet.simulate.estimate_network(state, suite)
        for receiver, edge in network.edges.items():
            if edge.p == 0.0:
                continue
            after = advance_state(state, receiver, drift)
            checked = MatchState(after.pitch, dict(after.team), after.opponents, after.holder, after.outside)
            assert after == checked
            assert list(after.team) == list(checked.team) == sorted(after.team)
            assert all(type(v) is float for xy in after.team.values() for v in xy)
            assert after.outside == state.outside
            checked_receivers += 1
    assert checked_receivers > 500 and outside_states > 10


def test_advance_state_rejects_an_outside_receiver():
    team = {j: (40.0 + j, 30.0) for j in range(1, 12)}
    team[11] = (-3.0, 80.0)
    state = MatchState(Pitch(), team, tuple((60.0, 6.0 * k + 1.0) for k in range(11)), 8,
                       frozenset({11}))
    with pytest.raises(ValueError, match="holder 11 cannot be flagged outside"):
        advance_state(state, 11, 2.0)


def test_config_validation():
    with pytest.raises(ValueError, match="max_steps"):
        base_config(max_steps=0)
    with pytest.raises(ValueError, match="trials"):
        run_trials(corner_kick_state((50.0, 34.0)), base_config(), 0, 0)


@settings(max_examples=80, deadline=None)
@given(
    state_seed=st.integers(0, 2**32 - 1),
    weights=st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda w: w != (0, 0)),
    threshold=st.floats(0.0, 1.0),
    max_steps=st.integers(1, 30),
    base_seed=st.integers(0, 2**63),
    style_index=st.integers(0, 3),
    trials=st.integers(1, 40),
)
def test_run_trials_equals_independent_rollouts_on_one_lazy_path(
    state_seed, weights, threshold, max_steps, base_seed, style_index, trials
):
    state = random_match_state(random.Random(state_seed))
    cfg = base_config(style=LinearStyle(*weights), threshold=threshold, seed=base_seed,
                      max_steps=max_steps)
    real = playnet.simulate.estimate_network
    calls = []

    def counting(current, suite):
        calls.append(current.holder)
        return real(current, suite)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(playnet.simulate, "estimate_network", counting)
        results = run_trials(state, cfg, style_index, trials)
    reference = [
        rollout(state, dataclasses.replace(cfg, seed=derive_seed(base_seed, style_index, i)))
        for i in range(trials)
    ]
    assert json.dumps([sequence_to_obj(r.sequence) for r in results]) == json.dumps(
        [sequence_to_obj(r.sequence) for r in reference]
    )
    assert [(r.efficiency, r.security, r.scored) for r in results] == [
        (r.efficiency, r.security, r.scored) for r in reference
    ]
    # one network per step of the deepest trial, shared by every shallower one
    assert len(calls) == max(len(r.sequence) for r in results)


@pytest.mark.parametrize("state_name", ["midfield_state", "box_state"])
def test_run_trials_draws_as_lone_rollouts_seeded_by_derive_seed(state_name, request):
    # run_trials reseeds one generator from a shared hash prefix; each trial must draw as
    # a fresh generator seeded with derive_seed would
    state = request.getfixturevalue(state_name)
    cfg = base_config(style=LinearStyle(1, 3), seed=2024)
    results = run_trials(state, cfg, 2, 2000)
    assert results == [
        rollout(state, dataclasses.replace(cfg, seed=derive_seed(2024, 2, i))) for i in range(2000)
    ]
    assert len({(len(r.sequence), r.scored) for r in results}) > 1  # the draws cut the path apart


def test_run_trials_builds_each_end_of_the_path_once(midfield_state, monkeypatch):
    built = []
    real = playnet.sequence.PossessionSequence.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(playnet.sequence.PossessionSequence, "__post_init__", counting)
    results = run_trials(midfield_state, base_config(seed=31), 0, 500)
    ends = {(len(r.sequence), r.sequence.terminal_outcome.label()) for r in results}
    assert len(built) == len(ends)
    assert len({id(r) for r in results}) == len(ends)  # equal trials share one result


def test_compare_estimates_a_shared_network_once(box_state, monkeypatch):
    real = playnet.simulate.estimate_network
    calls = []

    def counting(current, suite):
        calls.append(current.holder)
        return real(current, suite)

    monkeypatch.setattr(playnet.simulate, "estimate_network", counting)
    styles = [LinearStyle(3, 1), LinearStyle(2, 2), LinearStyle(1, 3)]
    reports = monte_carlo_compare(box_state, styles, 200, base_config(seed=5))
    assert len(calls) == 1  # box shoots at once under every style
    assert [r.mean_length for r in reports] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("state_name", ["midfield_state", "box_state"])
def test_compare_reports_equal_lone_run_trials(state_name, request):
    state = request.getfixturevalue(state_name)
    styles = [LinearStyle(3, 1), LinearStyle(2, 2), LinearStyle(1, 3)]
    cfg = base_config(seed=77)
    reports = monte_carlo_compare(state, styles, 300, cfg)
    for style_index, (style, report) in enumerate(zip(styles, reports)):
        alone = run_trials(
            state, dataclasses.replace(cfg, policy=dataclasses.replace(cfg.policy, style=style)),
            style_index, 300,
        )
        assert report == StyleReport.from_results(str(style), alone)


EXACT_TRIALS = 5000


@pytest.mark.parametrize("state_name", ["midfield_state", "box_state"])
def test_monte_carlo_means_within_clt_bound_of_exact_chain(state_name, request):
    """Monte Carlo means vs the absorbing-chain oracle, within 4 sigma of the exact variance."""
    state = request.getfixturevalue(state_name)
    styles = [LinearStyle(3, 1), LinearStyle(2, 2), LinearStyle(1, 3)]
    reports = monte_carlo_compare(state, styles, EXACT_TRIALS, base_config(seed=2019))
    for style, report in zip(styles, reports):
        exact = exact_possession_moments(state, style)
        for key, (mean, var) in exact.items():
            bound = 4.0 * math.sqrt(var / EXACT_TRIALS) + 1e-12
            got = getattr(report, key)
            assert abs(got - mean) <= bound, (str(style), key, got, mean, bound)
