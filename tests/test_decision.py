import random

import pytest
from hypothesis import given, settings, strategies as st

from playnet import Decision, DecisionNetwork, DecisionPolicy, LinearStyle, decide, ranked_options
from playnet.network import PassEdge

from conftest import random_network
from oracles import best_pass_exhaustive, ranked_exhaustive


def uniform_network(holder=8, s=0.1, tau=1.0, p=0.4, r=3):
    per = {j: (p, r) for j in range(1, 12) if j != holder}
    return DecisionNetwork(holder, s, tau, per)


def test_shoot_above_threshold():
    net = uniform_network(s=0.8)
    for threshold in (0.5, 0.8, 0.2, 0.0):
        decision = decide(net, DecisionPolicy(style=LinearStyle(1, 1), threshold=threshold))
        assert decision.is_shoot


def test_threshold_boundary_is_shoot():
    net = uniform_network(s=0.5)
    assert decide(net, DecisionPolicy(style=LinearStyle(1, 1), threshold=0.5)).is_shoot


def test_pass_below_threshold_lowest_id_tie():
    net = uniform_network(holder=8, s=0.1, p=0.4, r=3)
    decision = decide(net, DecisionPolicy(style=LinearStyle(1, 1), threshold=0.5))
    assert decision.is_pass
    assert decision.target == 1
    assert not decision.degenerate


def test_degenerate_iff_all_zero():
    zero = uniform_network(s=0.1, p=0.0, r=0)
    decision = decide(zero, DecisionPolicy(style=LinearStyle(1, 1), threshold=0.5))
    assert decision.is_pass and decision.degenerate and decision.target == 1
    nonzero = uniform_network(s=0.1, p=0.0, r=1)
    assert not decide(nonzero, DecisionPolicy(style=LinearStyle(1, 1), threshold=0.5)).degenerate


def test_ranked_all_zero_sorted_by_id():
    net = uniform_network(holder=8, s=0.1, p=0.0, r=0)
    ranked = ranked_options(net, DecisionPolicy(style=LinearStyle(1, 1)))
    assert [j for j, _ in ranked] == [j for j in range(1, 12) if j != 8]
    assert all(score == 0.0 for _, score in ranked)


def test_ranked_unique_maximum_first():
    per = {j: (0.0, 0) for j in range(1, 12) if j != 8}
    per[9] = (1.0, 10)
    net = DecisionNetwork(8, 0.1, 1.0, per)
    style = LinearStyle(2, 3)
    ranked = ranked_options(net, DecisionPolicy(style=style))
    assert ranked[0] == (9, 10 * 2 + 10 * 3)


def test_pass_target_matches_exhaustive_scan():
    rng = random.Random(20260809)
    style = LinearStyle(2, 3)
    policy = DecisionPolicy(style=style, threshold=1.0)
    for _ in range(300):
        net = random_network(rng, s=rng.uniform(0.0, 0.99))
        decision = decide(net, policy)
        assert decision.is_pass
        target, score = best_pass_exhaustive(net, style.evaluate)
        assert decision.target == target
        assert decision.score == score


def test_ranked_matches_exhaustive_ranking():
    rng = random.Random(99)
    policy = DecisionPolicy(style=LinearStyle(1, 2))
    for _ in range(100):
        net = random_network(rng)
        assert ranked_options(net, policy) == ranked_exhaustive(net, LinearStyle(1, 2).evaluate)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3, 10]))
def test_scale_invariance(seed, c):
    rng = random.Random(seed)
    net = random_network(rng)
    x, y = rng.randint(0, 9), rng.randint(0, 9)
    if x == 0 and y == 0:
        x = 1
    threshold = rng.random()
    base = decide(net, DecisionPolicy(style=LinearStyle(x, y), threshold=threshold))
    scaled = decide(net, DecisionPolicy(style=LinearStyle(c * x, c * y), threshold=threshold))
    assert base.action == scaled.action
    assert base.target == scaled.target
    assert base.degenerate == scaled.degenerate


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_threshold_monotonicity(seed):
    rng = random.Random(seed)
    net = random_network(rng)
    style = LinearStyle(1, 1)
    s = net.s
    if decide(net, DecisionPolicy(style=style, threshold=rng.random())).is_shoot:
        lower = rng.uniform(0.0, s)
        assert decide(net, DecisionPolicy(style=style, threshold=lower)).is_shoot
    if s < 1.0:
        above = rng.uniform(s, 1.0)
        if above > s:
            assert decide(net, DecisionPolicy(style=style, threshold=above)).is_pass


def test_offside_exclusion():
    rng = random.Random(4242)
    policy = DecisionPolicy(style=LinearStyle(2, 1), threshold=1.0)
    for _ in range(300):
        net = random_network(rng, s=0.3)
        blocked = rng.choice(list(net.edges))
        net = DecisionNetwork(net.holder, net.s, net.tau, {**net.edges, blocked: PassEdge(0.0, 0)})
        others_positive = any(
            net.edge(j).p > 0 or net.edge(j).r > 0 for j in net.edges if j != blocked
        )
        decision = decide(net, policy)
        if others_positive:
            assert decision.target != blocked
        else:
            assert decision.degenerate


def test_decide_is_pure():
    rng = random.Random(7)
    net = random_network(rng)
    policy = DecisionPolicy(style=LinearStyle(3, 1), threshold=0.5)
    assert decide(net, policy) == decide(net, policy)
    assert ranked_options(net, policy) == ranked_options(net, policy)


def test_ranked_head_consistent_with_decide():
    rng = random.Random(11)
    policy = DecisionPolicy(style=LinearStyle(1, 4), threshold=0.6)
    for _ in range(200):
        net = random_network(rng)
        if net.s < policy.threshold:
            decision = decide(net, policy)
            assert ranked_options(net, policy)[0][0] == decision.target


_TIED_STYLES = {
    "linear": LinearStyle(2, 1),
    "linear-p-only": LinearStyle(1, 0),
    "linear-r-only": LinearStyle(0, 1),
}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    style=st.sampled_from(sorted(_TIED_STYLES)),
)
def test_decide_takes_the_head_of_ranked_options_under_ties(seed, style):
    rng = random.Random(seed)
    holder = rng.randint(1, 11)
    # few distinct (p, r) values, so that several teammates share the top score
    per = {j: (rng.choice([0.0, 0.25, 0.5]), rng.choice([0, 1, 2])) for j in range(1, 12) if j != holder}
    net = DecisionNetwork(holder, 0.1, 1.0, per)
    policy = DecisionPolicy(style=_TIED_STYLES[style], threshold=0.5)
    decision = decide(net, policy)
    target, score = ranked_options(net, policy)[0]
    assert (decision.target, decision.score) == (target, score)
    assert type(decision.score) is type(score)
    assert decision.degenerate == (score == 0.0)


def tied_network(rng: random.Random) -> DecisionNetwork:
    """A network below any threshold whose edges repeat a few (p, r) values, zeros included."""
    holder = rng.randint(1, 11)
    if rng.random() < 0.1:
        per = {j: (0.0, 0) for j in range(1, 12) if j != holder}
    else:
        values = [(0.0, 0), (0.0, 0), (0.5, 0), (0.0, 5), (0.25, 2), (1.0, 10)]
        values.append((rng.random(), rng.randint(0, 10)))
        per = {j: rng.choice(values) for j in range(1, 12) if j != holder}
    return DecisionNetwork(holder, 0.0, 1.0, per)


def test_linear_style_scores_equal_its_checked_evaluate():
    # decide and ranked_options score a LinearStyle without its checks;
    # the scores must be the very floats the checked evaluate gives
    rng = random.Random(4711)
    zero_networks = 0
    for _ in range(400):
        x, y = rng.randint(0, 7), rng.randint(0, 7)
        style = LinearStyle(x, y or 1)
        net = tied_network(rng)
        zero_networks += all(e == (0.0, 0) for e in net.edges.values())
        policy = DecisionPolicy(style=style, threshold=0.5)
        decision = decide(net, policy)
        target, score = best_pass_exhaustive(net, style.evaluate)
        assert (decision.target, decision.score) == (target, score)
        assert type(decision.score) is float and decision.degenerate == (score == 0.0)
        ranked = ranked_options(net, policy)
        assert ranked == ranked_exhaustive(net, style.evaluate)
        assert all(type(v) is float for _, v in ranked)
    assert zero_networks > 10


def test_decide_returns_the_decision_the_checked_constructor_builds():
    # decide builds its Decision without Decision's checks; it must equal
    # the checked Decision(...) of an exhaustive scan, field types included
    rng = random.Random(1313)
    styles = [
        lambda: LinearStyle(rng.randint(0, 7), rng.randint(1, 7)),
        lambda: _TIED_STYLES[rng.choice(sorted(_TIED_STYLES))],
    ]
    seen = set()
    for _ in range(600):
        net = tied_network(rng) if rng.random() < 0.5 else random_network(rng)
        policy = DecisionPolicy(style=rng.choice(styles)(), threshold=rng.choice((0.0, rng.random())))
        decision = decide(net, policy)
        if net.s >= policy.threshold:
            expected = Decision(action="shoot")
        else:
            target, score = best_pass_exhaustive(net, policy.style.evaluate)
            expected = Decision(action="pass", target=target, score=score, degenerate=score == 0.0)
        assert decision == expected == Decision(**vars(decision))
        assert [(k, type(v)) for k, v in vars(decision).items()] == [
            (k, type(v)) for k, v in vars(expected).items()
        ]
        seen.add((decision.action, decision.degenerate))
    assert seen == {("shoot", False), ("pass", False), ("pass", True)}


def test_policy_validation():
    with pytest.raises(ValueError, match="threshold"):
        DecisionPolicy(style=LinearStyle(1, 1), threshold=1.5)
    for style in ("3:1", lambda p, r: p, (3, 1), None):
        with pytest.raises(ValueError, match="must be a LinearStyle"):
            DecisionPolicy(style=style)

