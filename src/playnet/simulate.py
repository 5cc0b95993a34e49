"""Stochastic possession rollout and seeded Monte Carlo style comparison.

A rollout repeatedly estimates the holder's network, applies the policy,
and samples the chancy part: a shot scores with probability s, a pass
completes with probability p. A completed pass moves the ball to the
receiver and nudges everyone else (attackers two meters toward the
goal, defenders two meters toward the ball) so consecutive networks
differ without any physics engine. Interceptions end the possession;
degenerate passes (nothing worth passing to) and the step cap end it as
a forced loss.

Path compilation: the policy is deterministic and the snapshot after a
completed pass depends only on the receiver, so every possession from
one (state, config) follows the same path of (network, decision) steps;
trials differ only in where their draws cut it short. run_trials builds
that path once per call and walks it once per trial. The path is
extended lazily, one step when a trial first reaches it, so a single
rollout costs what it always did. A path has at most two ends per
step: a shot scored or missed, or, after a pass, an interception or a
forced loss (degenerate pass or step cap). Each end's RolloutResult is
built the first time a trial stops there, its PossessionSequence
checking every step as any sequence does; trials that stop at the same
end share that one frozen result, and a walk only makes the draws.
Each snapshot keeps its network and its successors (see state.py):
estimate_network memoizes the network once per EstimatorParams, and
advance_state each successor once per (receiver, drift_m). So the
styles of monte_carlo_compare, later runs on the same MatchState, and a
state file loaded again (load_match_state keeps its MatchState) share
every snapshot a receiver chain leads to and estimate it once, since a
style changes the decisions but not the snapshots. This is sound
because both are pure functions of the snapshot and the constants.
Neither MatchState.team nor a network's edges may be mutated.
estimate_network, decide and advance_state are looked up in this
module at call time.

Reproducibility contract: every random draw comes from one generator
seeded per trial, at most one draw per step (the shot or the pass), and
per-trial seeds are derived with SHA-256 from (base seed, style index,
trial index), so any single trial can be replayed in isolation with
rollout and results never depend on execution order. run_trials hashes
the (base seed, style index) prefix once and reseeds one generator per
trial, into the state random.Random(derive_seed(...)) would start in.
Trials run in the calling thread: a thread pool only slowed the
pure-Python rollouts down under the interpreter lock.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from math import hypot

from .decision import DecisionPolicy, decide
from .estimators import EstimatorParams, estimate_network
from .network import check_int, check_real
from .sequence import PossessionSequence, PossessionStep, StepOutcome, efficiency, security
from .state import MatchState, check_holder


# the largest trial count and step cap accepted: beyond them a run's time and memory are absurd
TRIALS_LIMIT = 1_000_000
MAX_STEPS_LIMIT = 1_000


def check_count(value: object, name: str, limit: int) -> int:
    """value as an int in 1..limit; a value below 1 gets check_int's message, one above the limit names it."""
    check_int(value, name, 1)
    if value > limit:
        raise ValueError(f"{name}={value} above the limit of {limit}")
    return value


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a rollout needs besides the match state."""

    policy: DecisionPolicy
    estimators: EstimatorParams
    max_steps: int = 30
    seed: int = 0
    drift_m: float = 2.0  # per-pass movement of non-receiving players

    def __post_init__(self) -> None:
        if not isinstance(self.policy, DecisionPolicy):
            raise ValueError(f"policy must be a DecisionPolicy, not {type(self.policy).__name__}")
        if not isinstance(self.estimators, EstimatorParams):
            raise ValueError(f"estimators must be an EstimatorParams, not {type(self.estimators).__name__}")
        check_count(self.max_steps, "max_steps", MAX_STEPS_LIMIT)
        check_int(self.seed, "seed", None)
        check_real(self.drift_m, "drift_m", 0.0)


@dataclass(frozen=True)
class RolloutResult:
    """A finished possession plus its efficiency and security."""

    sequence: PossessionSequence
    efficiency: float
    security: float
    scored: bool


def _seed_hash(base_seed: int, style_index: int):
    """SHA-256 of a trial seed's message up to the trial index: "base:style:"."""
    return hashlib.sha256(f"{base_seed}:{style_index}:".encode("ascii"))


def _trial_seed(prefix, trial_index: int) -> int:
    """The first 8 bytes, big-endian, of SHA-256 of "base:style:trial"; prefix is _seed_hash's."""
    h = prefix.copy()
    h.update(f"{trial_index}".encode("ascii"))
    return int.from_bytes(h.digest()[:8], "big")


def derive_seed(base_seed: int, style_index: int, trial_index: int) -> int:
    """Stable 64-bit per-trial seed; identical on every platform and run.

    base_seed is any int and both indices are ints >= 0: a float or a
    bool that equals an index would hash to another seed.
    """
    check_int(base_seed, "base_seed", None)
    check_int(style_index, "style_index", 0)
    check_int(trial_index, "trial_index", 0)
    return _trial_seed(_seed_hash(base_seed, style_index), trial_index)


def _drift(points, tx, ty, drift_m: float, length: float, width: float) -> list[tuple[float, float]]:
    """Each point moved drift_m toward (tx, ty), or onto it if nearer, then clipped to the pitch."""
    moved = []
    for x, y in points:
        dx = tx - x
        dy = ty - y
        d = hypot(dx, dy)
        if d <= drift_m:
            nx, ny = tx, ty
        else:
            f = drift_m / d
            nx = x + f * dx
            ny = y + f * dy
        nx = nx if nx > 0.0 else 0.0
        ny = ny if ny > 0.0 else 0.0
        moved.append((nx if nx < length else length, ny if ny < width else width))
    return moved


def advance_state(state: MatchState, receiver: int, drift_m: float) -> MatchState:
    """The snapshot after a completed pass to the receiver.

    The receiver keeps their position and the ball. Other teammates
    drift toward the goal center, opponents toward the ball, all capped
    at drift_m and clipped to the pitch. Outside players stay outside.

    The new snapshot keeps the ids, the id order and the outside set of
    a checked one, its moved players are on the pitch, and its holder
    passes check_holder (a completed pass has p > 0, so its receiver is
    never outside), so it is built without MatchState's other checks.
    It is kept on state (its _next slot, see state.py), so the same
    receiver and drift_m return the same object.
    """
    team = state.team
    outside = state.outside
    check_holder(receiver, outside, "receiver")  # before the lookup: True and 1.0 would find receiver 1
    successors = state._next
    if successors is None:
        successors = {}
        object.__setattr__(state, "_next", successors)
    key = (receiver, drift_m)
    successor = successors.get(key)
    if successor is not None:
        return successor
    bx, by = team[receiver]
    pitch = state.pitch
    length = pitch.length
    width = pitch.width
    gx, gy = pitch.goal_center
    movers = [j for j in team if j != receiver and j not in outside]
    moved = dict(team)  # in id order; the receiver and outside players stay put
    moved.update(zip(movers, _drift([team[j] for j in movers], gx, gy, drift_m, length, width)))
    opponents = _drift(state.opponents, bx, by, drift_m, length, width)
    successor = successors[key] = MatchState._trusted(pitch, moved, tuple(opponents), receiver, outside)
    return successor


class _PathStep:
    """Step k of every possession from one snapshot under one config.

    A step is estimated and decided when it is built. Only a completed
    pass leads on, and only to its target, so a step has at most one
    next step: next() builds it the first time a trial completes this
    step's pass, and keeps it. A path thus costs as many estimate_network
    calls as its deepest trial has steps. The next step's snapshot is
    advance_state of this one's, which each snapshot keeps with its
    network (see state.py), so paths that differ only in their policy
    share every snapshot they both reach, and it is estimated once.
    """

    __slots__ = ("snapshot", "prefix", "cfg", "network", "decision", "p", "final", "_ends", "_next")

    def __init__(self, snapshot: MatchState, prefix: tuple, cfg: SimulationConfig) -> None:
        self.snapshot = snapshot
        self.prefix = prefix  # the completed passes before this step, as PossessionSteps
        self.cfg = cfg
        self.network = network = estimate_network(snapshot, cfg.estimators)
        self.decision = decision = decide(network, cfg.policy)
        if decision.is_shoot:
            self.p = None
            self.final = True
        else:
            self.p = network.edges[decision.target].p
            self.final = decision.degenerate or len(prefix) == cfg.max_steps - 1
        self._ends: list[RolloutResult | None] = [None, None]  # by scored
        self._next = None

    def next(self) -> _PathStep:
        """The step after this one's pass completes; built the first time a trial gets there."""
        step = self._next
        if step is None:
            cfg = self.cfg
            completed = PossessionStep(self.network, self.decision, StepOutcome.PASS_COMPLETED)
            snapshot = advance_state(self.snapshot, self.decision.target, cfg.drift_m)
            step = self._next = _PathStep(snapshot, self.prefix + (completed,), cfg)
        return step

    def end(self, scored: bool) -> RolloutResult:
        """The possession that stops here; built the first time a trial stops here."""
        result = self._ends[scored]
        if result is None:
            if self.decision.is_shoot:
                outcome = StepOutcome.SHOT_SCORED if scored else StepOutcome.SHOT_MISSED
            else:
                outcome = StepOutcome.FORCED_LOSS if self.final else StepOutcome.PASS_INTERCEPTED
            sequence = PossessionSequence(
                self.prefix + (PossessionStep(self.network, self.decision, outcome),)
            )
            result = RolloutResult(sequence, efficiency(sequence), security(sequence), sequence.scored)
            self._ends[scored] = result
        return result


def _walk(step: _PathStep, rng: random.Random) -> RolloutResult:
    """One trial along the path from step: its draws decide where the possession stops."""
    while True:
        if step.p is None:  # a shot
            return step.end(rng.random() < step.network.s)
        if step.final or rng.random() >= step.p:
            return step.end(False)
        step = step.next()


def rollout(state: MatchState, cfg: SimulationConfig) -> RolloutResult:
    """Play out one possession; deterministic given (state, cfg)."""
    return _walk(_PathStep(state, (), cfg), random.Random(cfg.seed))


def run_trials(state: MatchState, cfg: SimulationConfig, style_index: int, trials: int) -> list[RolloutResult]:
    """Independent seeded rollouts, in trial order, sharing one possession path.

    Each end of the path (a shot scored or missed, an interception or a
    forced loss at step k) is built once, the first time a trial reaches
    it, so trials that end the same way share one frozen RolloutResult.
    Trials run in this thread. trials is an int in 1..TRIALS_LIMIT, and
    style_index an int >= 0, checked once, as derive_seed checks it.
    """
    check_int(style_index, "style_index", 0)
    check_count(trials, "trials", TRIALS_LIMIT)
    first = _PathStep(state, (), cfg)
    prefix = _seed_hash(cfg.seed, style_index)
    rng = random.Random(0)  # reseeded before every trial; a seed given here spares drawing OS entropy
    results = []
    for i in range(trials):
        rng.seed(_trial_seed(prefix, i))  # the state random.Random(derive_seed(...)) starts in
        results.append(_walk(first, rng))
    return results


@dataclass(frozen=True)
class StyleReport:
    """Aggregates of one style's trials; sums taken in fixed trial order."""

    style: str
    trials: int
    mean_efficiency: float
    mean_security: float
    goal_rate: float
    mean_length: float

    @classmethod
    def from_results(cls, style: str, results: list[RolloutResult]) -> StyleReport:
        trials = len(results)
        n = float(trials)
        return cls(
            style=style,
            trials=trials,
            mean_efficiency=sum(r.efficiency for r in results) / n,
            mean_security=sum(r.security for r in results) / n,
            goal_rate=sum(1 for r in results if r.scored) / n,
            mean_length=sum(len(r.sequence) for r in results) / n,
        )


def monte_carlo_compare(
    state: MatchState,
    styles,
    trials: int,
    cfg: SimulationConfig,
) -> list[StyleReport]:
    """Trial the same snapshot under each style and aggregate the outcomes.

    Seeds depend on the style's position in the list, never on its
    value, so the report for styles[0] is identical no matter what
    follows it. A style changes only the policy, so the styles share
    every snapshot they reach (see the module docstring).
    """
    styles = list(styles)
    if not styles:
        raise ValueError("monte_carlo_compare requires at least one style")
    reports = []
    for style_index, style in enumerate(styles):
        style_cfg = replace(cfg, policy=replace(cfg.policy, style=style))
        results = run_trials(state, style_cfg, style_index, trials)
        reports.append(StyleReport.from_results(str(style), results))
    return reports
