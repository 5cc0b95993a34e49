"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print. Tolerances are pinned here and nowhere else; criteria that demand
exactness compare with == and count violations.
"""

import contextlib
import io
import random
import time

import pytest

from playnet import (
    DecisionNetwork,
    DecisionPolicy,
    LinearStyle,
    SimulationConfig,
    StyleClass,
    decide,
    efficiency,
    monte_carlo_compare,
    pareto_frontier,
    rollout,
    security,
)
from playnet.cli import run_cli
from playnet.estimators import DEFAULT_PARAMS
from playnet.network import PassEdge

from conftest import DATA_DIR, random_match_state, random_network, random_sequence
from oracles import best_pass_exhaustive, pareto_pairwise, scan_efficiency, scan_security

MIDFIELD = str(DATA_DIR / "midfield_state.json")


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def random_style(rng: random.Random) -> LinearStyle:
    x, y = rng.randint(0, 9), rng.randint(0, 9)
    if x == 0 and y == 0:
        x = 1
    return LinearStyle(x, y)


@pytest.fixture(scope="module")
def possession_corpus():
    """10 000 seeded possessions over random valid states, shared by criteria 6 and 9."""
    rng = random.Random(20260806)
    results = []
    start = time.perf_counter()
    for k in range(10_000):
        state = random_match_state(rng)
        cfg = SimulationConfig(
            policy=DecisionPolicy(style=random_style(rng), threshold=rng.choice((0.3, 0.5, 0.7))),
            estimators=DEFAULT_PARAMS,
            seed=k,
        )
        results.append(rollout(state, cfg))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_decision_reproduction():
    start = time.perf_counter()
    policy = DecisionPolicy(style=LinearStyle(1, 1), threshold=0.5)
    per = {j: (0.4, 3) for j in range(1, 12) if j != 8}
    confident = DecisionNetwork(8, 0.8, 1.0, per)
    hesitant = DecisionNetwork(8, 0.1, 1.0, per)
    shoot = decide(confident, policy)
    passes = decide(hesitant, policy)
    elapsed = time.perf_counter() - start
    ok = shoot.is_shoot and passes.is_pass and elapsed < 1.0
    check(1, "s=0.8 shoots / s=0.1 passes at threshold 0.5", ok, f"{elapsed:.3f}s")


def test_criterion_2_style_algebra():
    rng = random.Random(2)
    bad = 0
    for _ in range(1000):
        style = random_style(rng)
        imp_p, imp_r = style.importance()
        if abs(imp_p + imp_r - 1.0) > 1e-12:
            bad += 1
            continue
        sign = (style.x > style.y) - (style.x < style.y)
        expected = {1: StyleClass.POSSESSION, -1: StyleClass.DIRECT, 0: StyleClass.BALANCED}[sign]
        if style.classify() is not expected:
            bad += 1
    check(2, "importance sums to 1 within 1e-12, classify matches sign(x - y)", bad == 0,
          f"{bad} failures of 1000")


def test_criterion_3_argmax_scale_invariance():
    rng = random.Random(3)
    bad = 0
    for _ in range(1000):
        net = random_network(rng)
        style = random_style(rng)
        threshold = rng.random()
        base = decide(net, DecisionPolicy(style=style, threshold=threshold))
        for c in (2, 3, 10):
            scaled = decide(
                net, DecisionPolicy(style=LinearStyle(c * style.x, c * style.y), threshold=threshold)
            )
            if (base.action, base.target) != (scaled.action, scaled.target):
                bad += 1
    check(3, "decide invariant under style scaling by 2, 3, 10", bad == 0,
          f"{bad} failures of 3000")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(4)
    bad = 0
    for _ in range(1000):
        net = random_network(rng, s=rng.uniform(0.0, 0.99))
        style = random_style(rng)
        decision = decide(net, DecisionPolicy(style=style, threshold=1.0))
        target, _ = best_pass_exhaustive(net, style.evaluate)
        if decision.target != target:
            bad += 1
    for _ in range(1000):
        seq = random_sequence(rng, max_len=30)
        if efficiency(seq) != scan_efficiency(seq) or security(seq) != scan_security(seq):
            bad += 1
    seqs = [random_sequence(rng, max_len=8) for _ in range(100)]
    points = [(efficiency(q), security(q)) for q in seqs]
    if {idx for _, _, idx in pareto_frontier(seqs)} != set(pareto_pairwise(points)):
        bad += 1
    check(4, "decide, metrics, and frontier equal their brute-force oracles", bad == 0,
          f"{bad} failures")


def test_criterion_5_offside_rule():
    rng = random.Random(5)
    bad = 0
    trials = 0
    while trials < 1000:
        net = random_network(rng, s=0.2)
        blocked = rng.choice(list(net.edges))
        net = DecisionNetwork(net.holder, net.s, net.tau, {**net.edges, blocked: PassEdge(0.0, 0)})
        style = random_style(rng)
        if not any(
            style.evaluate(net.edge(j).p, net.edge(j).r) > 0.0 for j in net.edges if j != blocked
        ):
            continue
        trials += 1
        decision = decide(net, DecisionPolicy(style=style, threshold=1.0))
        if decision.target == blocked:
            bad += 1
    check(5, "an unavailable teammate is never the pass target", bad == 0,
          f"{bad} failures of 1000")


def test_criterion_6_sequence_invariant_fuzz(possession_corpus):
    results, elapsed = possession_corpus
    violations = 0
    for result in results:
        seq = result.sequence
        for a, b in zip(seq.steps, seq.steps[1:]):
            if a.outcome.label() != "pass_completed" or b.network.holder != a.decision.target:
                violations += 1
        if not seq.terminal_outcome.is_terminal:
            violations += 1
        for step in seq.steps:
            net = step.network
            if not (0.0 <= net.s <= 1.0 and net.tau >= 0.0):
                violations += 1
            for j in net.edges:
                e = net.edge(j)
                if not (0.0 <= e.p <= 1.0 and 0 <= e.r <= 10 and isinstance(e.r, int)):
                    violations += 1
    ok = violations == 0 and elapsed < 60.0
    check(6, "10 000 possessions well-formed, estimators in bounds", ok,
          f"{violations} violations, {elapsed:.1f}s")


def test_criterion_7_determinism(tmp_path):
    logs = []
    for name in ("run1.json", "run2.json", "run3.json"):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_cli([
                "simulate", "--state", MIDFIELD, "--style", "3:1", "--trials", "8",
                "--seed", "42", "--out", str(out),
            ])
        assert code == 0
        logs.append(out.read_bytes())
    ok = logs[0] == logs[1] == logs[2]
    check(7, "seed-42 logs byte-identical across runs", ok,
          f"{len(logs[0])} bytes")


def test_criterion_8_directional_style_experiment(midfield_state):
    trials = 10_000
    start = time.perf_counter()
    cfg = SimulationConfig(
        policy=DecisionPolicy(style=LinearStyle(3, 1), threshold=0.5),
        estimators=DEFAULT_PARAMS,
        seed=8080,
    )
    possession, direct = monte_carlo_compare(
        midfield_state, [LinearStyle(3, 1), LinearStyle(1, 3)], trials, cfg
    )
    elapsed = time.perf_counter() - start
    security_ordered = possession.mean_security > direct.mean_security
    efficiency_note = (
        "efficiency ordering holds"
        if direct.mean_efficiency > possession.mean_efficiency
        else "efficiency ordering DID NOT hold"
    )
    detail = (
        f"security {possession.mean_security:.4f} vs {direct.mean_security:.4f}; "
        f"efficiency {possession.mean_efficiency:.4f} vs {direct.mean_efficiency:.4f}; "
        f"{efficiency_note}; {elapsed:.1f}s"
    )
    check(8, "possession style strictly more secure than direct over 10 000 trials",
          security_ordered and elapsed < 60.0, detail)


def test_criterion_9_incremental_vs_batch_metrics(possession_corpus):
    results, _ = possession_corpus
    mismatches = sum(
        1
        for r in results
        if r.efficiency != efficiency(r.sequence) or r.security != security(r.sequence)
    )
    check(9, "running rollout metrics equal batch recomputation exactly", mismatches == 0,
          f"{mismatches} mismatches of {len(results)}")
