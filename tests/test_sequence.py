import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from playnet import (
    Decision,
    DecisionNetwork,
    PossessionSequence,
    PossessionStep,
    StepOutcome,
    efficiency,
    is_p_secure,
    is_s_efficient,
    pareto_frontier,
    security,
)
from playnet.sequence import pareto_points, per_distinct, sequence_from_obj

from conftest import random_sequence
from oracles import sequence_to_obj


def uniform_network(holder, s, p=0.5, r=3, tau=1.0):
    per = {j: (p, r) for j in range(1, 12) if j != holder}
    return DecisionNetwork(holder, s, tau, per)


def shot_step(holder, s, scored=False):
    return PossessionStep(
        uniform_network(holder, s),
        Decision(action="shoot"),
        StepOutcome.SHOT_SCORED if scored else StepOutcome.SHOT_MISSED,
    )


def pass_step(holder, target, s=0.1, p=0.5, outcome="pass_completed"):
    return PossessionStep(
        uniform_network(holder, s, p=p),
        Decision(action="pass", target=target, score=1.0),
        StepOutcome(outcome),
    )


def unchecked_reversal(seq):
    """The reversed step list wrapped without re-validation (chain breaks)."""
    rev = object.__new__(PossessionSequence)
    object.__setattr__(rev, "steps", tuple(reversed(seq.steps)))
    return rev


def test_efficiency_single_shot():
    seq = PossessionSequence((shot_step(8, 0.8),))
    assert efficiency(seq) == 0.8


def test_efficiency_all_zero():
    seq = PossessionSequence((pass_step(8, 9, s=0.0), pass_step(9, 10, s=0.0, outcome="pass_intercepted")))
    assert efficiency(seq) == 0.0


def test_efficiency_matches_scan():
    from oracles import scan_efficiency

    rng = random.Random(3)
    for _ in range(100):
        seq = random_sequence(rng, max_len=12)
        assert efficiency(seq) == scan_efficiency(seq)


def test_s_efficiency_boundaries():
    seq = PossessionSequence((shot_step(8, 0.8),))
    assert not is_s_efficient(seq, 1.0)  # only an s=1 network is perfectly efficient
    assert is_s_efficient(seq, 0.0)
    assert is_s_efficient(seq, 0.8)  # boundary inclusive


def test_security_vacuous_for_lone_shot():
    seq = PossessionSequence((shot_step(8, 0.9),))
    assert security(seq) == 1.0


def test_security_perfect_passes():
    seq = PossessionSequence((pass_step(8, 9, p=1.0), pass_step(9, 10, p=1.0, outcome="pass_intercepted")))
    assert security(seq) == 1.0


def test_security_matches_scan():
    from oracles import scan_security

    rng = random.Random(4)
    for _ in range(100):
        seq = random_sequence(rng, max_len=12)
        assert security(seq) == scan_security(seq)


def test_failed_pass_still_counts_into_security():
    seq = PossessionSequence((pass_step(8, 9, p=0.9), pass_step(9, 10, p=0.2, outcome="pass_intercepted")))
    assert security(seq) == 0.2


@pytest.mark.parametrize(
    "sec, p, expected", [(0.85, 0.8, True), (0.85, 0.6, True), (0.5, 0.8, False)]
)
def test_p_security_examples(sec, p, expected):
    seq = PossessionSequence((pass_step(8, 9, p=sec, outcome="pass_intercepted"),))
    assert is_p_secure(seq, p) is expected


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_index_bounds_rejected(bad):
    seq = PossessionSequence((shot_step(8, 0.5),))
    with pytest.raises(ValueError):
        is_s_efficient(seq, bad)
    with pytest.raises(ValueError):
        is_p_secure(seq, bad)


def test_threshold_monotonicity():
    rng = random.Random(12)
    for _ in range(50):
        seq = random_sequence(rng, max_len=8)
        s = rng.random()
        p = rng.random()
        if is_s_efficient(seq, s):
            assert is_s_efficient(seq, s * rng.random())
        if is_p_secure(seq, p):
            assert is_p_secure(seq, p * rng.random())


def test_metrics_are_order_free():
    rng = random.Random(5)
    for _ in range(50):
        seq = random_sequence(rng, max_len=10)
        rev = unchecked_reversal(seq)
        assert efficiency(rev) == efficiency(seq)
        assert security(rev) == security(seq)


def test_largest_indices():
    rng = random.Random(6)
    for _ in range(50):
        seq = random_sequence(rng, max_len=10)
        eff, sec = efficiency(seq), security(seq)
        assert is_s_efficient(seq, eff)
        assert is_p_secure(seq, sec)
        if eff < 1.0:
            assert not is_s_efficient(seq, min(1.0, eff + 1e-9))
        if sec < 1.0:
            assert not is_p_secure(seq, min(1.0, sec + 1e-9))


def test_incremental_append_equals_recompute():
    rng = random.Random(7)
    for _ in range(50):
        seq = random_sequence(rng, max_len=10)
        if len(seq) < 2:
            continue
        *prefix, last = seq.steps
        # terminate the prefix in place of its completed pass; metrics ignore outcomes
        closed = prefix[:-1] + [dataclasses.replace(prefix[-1], outcome=StepOutcome.FORCED_LOSS)]
        prefix_seq = PossessionSequence(tuple(closed))
        assert efficiency(seq) == max(efficiency(prefix_seq), last.network.s)
        last_p = last.attempted_pass_p
        expected_sec = security(prefix_seq) if last_p is None else min(security(prefix_seq), last_p)
        assert security(seq) == expected_sec


def make_sequence_with_metrics(eff, sec):
    """One pass (p=sec) then a terminal shot on a network with s=eff."""
    first = PossessionStep(
        uniform_network(8, 0.0, p=sec),
        Decision(action="pass", target=9, score=1.0),
        StepOutcome("pass_completed"),
    )
    second = shot_step(9, eff)
    return PossessionSequence((first, second))


def test_pareto_singleton():
    seq = make_sequence_with_metrics(0.5, 0.5)
    assert pareto_frontier([seq]) == [(0.5, 0.5, 0)]


def test_pareto_dominance_example():
    seqs = [
        make_sequence_with_metrics(0.9, 0.2),
        make_sequence_with_metrics(0.4, 0.9),
        make_sequence_with_metrics(0.3, 0.3),
    ]
    assert pareto_frontier(seqs) == [(0.9, 0.2, 0), (0.4, 0.9, 1)]


def test_pareto_keeps_duplicates_of_survivors():
    seqs = [
        make_sequence_with_metrics(0.9, 0.2),
        make_sequence_with_metrics(0.9, 0.2),
        make_sequence_with_metrics(0.2, 0.1),
    ]
    assert pareto_frontier(seqs) == [(0.9, 0.2, 0), (0.9, 0.2, 1)]


def test_pareto_matches_pairwise_oracle():
    from oracles import pareto_pairwise

    rng = random.Random(8)
    for _ in range(30):
        seqs = [random_sequence(rng, max_len=6) for _ in range(40)]
        points = [(efficiency(q), security(q)) for q in seqs]
        got = {idx for _, _, idx in pareto_frontier(seqs)}
        assert got == set(pareto_pairwise(points))


def test_pareto_output_covers_inputs():
    rng = random.Random(9)
    seqs = [random_sequence(rng, max_len=6) for _ in range(60)]
    frontier = pareto_frontier(seqs)
    points = [(efficiency(q), security(q)) for q in seqs]
    for a, b in points:
        assert any(fa >= a and fb >= b for fa, fb, _ in frontier)
    # and the frontier is sorted by efficiency descending
    effs = [fa for fa, _, _ in frontier]
    assert effs == sorted(effs, reverse=True)


def test_pareto_of_sequences_made_on_the_fly_measures_each():
    # a generator's sequence may be freed once measured and its id reused by the next
    points = [((60 - k) / 60, k / 60) for k in range(61)]  # none dominates another: each is on the frontier
    random.Random(11).shuffle(points)
    made = (make_sequence_with_metrics(eff, sec) for eff, sec in points)
    assert pareto_frontier(made) == pareto_points(points)


@settings(max_examples=200, deadline=None)
@given(picks=st.lists(st.integers(0, 7), max_size=40))
def test_per_distinct_calls_f_once_per_distinct_object(picks):
    pool = [[k % 3] for k in range(8)]  # some objects are equal but not the same
    items = [pool[k] for k in picks]
    calls = []
    out = per_distinct(lambda x: calls.append(x) or {"of": x}, items)
    firsts = {}  # id of an item -> the index of its first occurrence
    for i, x in enumerate(items):
        firsts.setdefault(id(x), i)
    assert [id(x) for x in calls] == [id(items[i]) for i in firsts.values()]
    assert len(out) == len(items)
    assert all(row["of"] is x and row is out[firsts[id(x)]] for row, x in zip(out, items))
    assert len({id(row) for row in out}) == len(firsts)


@settings(max_examples=200, deadline=None)
@example(picks=[None] * 6)
@given(picks=st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=1, max_size=40))
def test_per_distinct_of_a_generator_gives_each_fresh_object_its_own_result(picks):
    # None makes a fresh object that only per_distinct keeps alive, so its id could go to the next one
    held = [[-1 - k] for k in range(4)]
    made = ([n] if pick is None else held[pick] for n, pick in enumerate(picks))
    assert per_distinct(lambda x: x[0], made) == [n if pick is None else -1 - pick for n, pick in enumerate(picks)]


def test_pareto_rejects_empty():
    with pytest.raises(ValueError):
        pareto_frontier([])


def test_sequence_invariants_enforced():
    with pytest.raises(ValueError, match="at least one step"):
        PossessionSequence(())
    with pytest.raises(ValueError, match="terminal"):
        PossessionSequence((pass_step(8, 9, outcome="pass_completed"),))
    with pytest.raises(ValueError, match="does not match"):
        PossessionSequence((pass_step(8, 9), shot_step(10, 0.5)))
    with pytest.raises(ValueError, match="non-final"):
        PossessionSequence((pass_step(8, 9, outcome="pass_intercepted"), shot_step(9, 0.5)))


def test_step_invariants_enforced():
    net = uniform_network(8, 0.5)
    for decision, outcome, message in (
        (Decision(action="shoot"), StepOutcome.PASS_COMPLETED, "shoot decision"),
        (Decision(action="pass", target=9), StepOutcome.SHOT_MISSED, "cannot end in a shot"),
        (Decision(action="pass", target=8), StepOutcome.PASS_INTERCEPTED, "self-edge"),
    ):
        step = PossessionStep(net, decision, outcome)  # a plain record: the sequence checks it
        with pytest.raises(ValueError, match=f"^step 0: .*{message}"):
            PossessionSequence((step,))


@pytest.mark.parametrize(
    "decision, outcome, message",
    [
        (Decision(action="shoot", target=9), StepOutcome.SHOT_MISSED, "shoot decision cannot carry a target"),
        (Decision(action="pass"), StepOutcome.PASS_INTERCEPTED, "pass decision needs a target"),
        (Decision(action="dribble", target=9), StepOutcome.PASS_INTERCEPTED, "unknown decision action 'dribble'"),
        (Decision(action="pass", target=9), "pass_intercepted", "outcome 'pass_intercepted' is not a StepOutcome"),
        (Decision(action="pass", target=2), StepOutcome.PASS_INTERCEPTED, "holder 2 has no self-edge"),
        (Decision(action="pass", target=3), StepOutcome.SHOT_SCORED, "pass decision cannot end in a shot"),
    ],
    ids=["shoot-with-target", "pass-without-target", "unknown-action", "str-outcome", "pass-to-holder",
         "pass-ending-in-shot"],
)
def test_sequence_rejects_a_bad_step_and_names_it(decision, outcome, message):
    opening = pass_step(8, 2)  # a completed pass to 2, so the bad step is step 1, held by 2
    bad = PossessionStep(uniform_network(2, 0.3), decision, outcome)
    with pytest.raises(ValueError, match=f"^step 1: .*{message}"):
        PossessionSequence((opening, bad))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda net: net.update(s=2.0), "s=2.0 outside [0, 1]"),
        (lambda net: net["edges"][0].update(r=11), "teammate 1: r=11 outside 0..10"),
        (lambda net: net.pop("tau"), "network: missing key 'tau'"),
    ],
    ids=["bad-s", "bad-r", "missing-tau"],
)
def test_sequence_from_obj_names_the_step_of_a_bad_network(edit, message):
    obj = sequence_to_obj(PossessionSequence((pass_step(8, 2), shot_step(2, 0.3))))
    edit(obj[1]["network"])
    with pytest.raises(ValueError) as info:
        sequence_from_obj(obj)
    assert str(info.value) == f"step 1: {message}"


@pytest.mark.parametrize(
    "where, path",
    [((), "step 1"), (("network",), "step 1: network"), (("network", "edges", 2), "step 1: network.edges[2]"),
     (("decision",), "step 1: decision")],
    ids=["step", "network", "edge", "decision"],
)
def test_sequence_from_obj_rejects_an_unknown_key_in_each_object(where, path):
    obj = sequence_to_obj(PossessionSequence((pass_step(8, 2), shot_step(2, 0.3))))
    target = obj[1]
    for part in where:
        target = target[part]
    target["extra"] = 1
    with pytest.raises(ValueError) as info:
        sequence_from_obj(obj)
    assert str(info.value) == f"{path}: unexpected key 'extra'"


def test_outcome_labels_round_trip():
    labels = ["pass_completed", "pass_intercepted", "shot_scored", "shot_missed", "forced_loss"]
    assert [outcome.label() for outcome in StepOutcome] == labels
    for label in labels:
        assert StepOutcome(label).label() == label
    assert [StepOutcome(label).is_terminal for label in labels] == [False, True, True, True, True]
    with pytest.raises(ValueError):
        StepOutcome("own_goal")
    with pytest.raises(ValueError):
        StepOutcome([1])  # unhashable: must not escape as TypeError


def test_log_round_trip():
    rng = random.Random(10)
    for _ in range(30):
        seq = random_sequence(rng, max_len=8)
        obj = sequence_to_obj(seq)
        again = sequence_from_obj(obj)
        assert sequence_to_obj(again) == obj
        assert efficiency(again) == efficiency(seq)
        assert security(again) == security(seq)
