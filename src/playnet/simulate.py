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
built, with the usual sequence validation, the first time a trial
stops there; trials that stop at the same end share that one frozen
result, and a walk only makes the draws. monte_carlo_compare also
shares the estimated networks between its styles, since a style
changes the decisions but not the snapshot a receiver chain leads to.
Sharing rests on the estimator suite's contract that its four
functions are pure: equal snapshots give equal networks.
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
import math
import random
from dataclasses import dataclass, replace

from .decision import DecisionPolicy, decide
from .estimators import EstimatorSuite, estimate_network
from .network import DecisionNetwork, check_int, check_real
from .sequence import PossessionSequence, PossessionStep, StepOutcome, efficiency, security
from .state import MatchState


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a rollout needs besides the match state."""

    policy: DecisionPolicy
    estimators: EstimatorSuite
    max_steps: int = 30
    seed: int = 0
    drift_m: float = 2.0  # per-pass movement of non-receiving players

    def __post_init__(self) -> None:
        check_int(self.max_steps, "max_steps", 1)
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
    """Stable 64-bit per-trial seed; identical on every platform and run."""
    return _trial_seed(_seed_hash(base_seed, style_index), trial_index)


def _step_toward(x: float, y: float, tx: float, ty: float, dist: float) -> tuple[float, float]:
    dx = tx - x
    dy = ty - y
    d = math.hypot(dx, dy)
    if d <= dist:
        return (tx, ty)
    f = dist / d
    return (x + f * dx, y + f * dy)


def advance_state(state: MatchState, receiver: int, drift_m: float) -> MatchState:
    """The snapshot after a completed pass to the receiver.

    The receiver keeps their position and the ball. Other teammates
    drift toward the goal center, opponents toward the ball, all capped
    at drift_m and clipped to the pitch. Outside players stay outside.

    The new snapshot keeps the ids, the id order and the outside set of
    a checked one, its moved players are on the pitch, and its holder is
    not outside (a completed pass has p > 0, so its receiver never is),
    so it is built without MatchState's checks.
    """
    outside = state.outside
    if receiver in outside:
        raise ValueError(f"holder {receiver} cannot be flagged outside")
    length = state.pitch.length
    width = state.pitch.width
    gx, gy = state.pitch.goal_center
    bx, by = state.team[receiver]
    team: dict[int, tuple[float, float]] = {}
    for j, (x, y) in state.team.items():
        if j == receiver or j in outside:
            team[j] = (x, y)
        else:
            nx, ny = _step_toward(x, y, gx, gy, drift_m)
            team[j] = (min(length, max(0.0, nx)), min(width, max(0.0, ny)))
    opponents = []
    for x, y in state.opponents:
        nx, ny = _step_toward(x, y, bx, by, drift_m)
        opponents.append((min(length, max(0.0, nx)), min(width, max(0.0, ny))))
    return MatchState._trusted(state.pitch, team, tuple(opponents), receiver, outside)


class _PathStep:
    """Step k of a compiled path: the network seen, the decision, and the possessions ending here."""

    __slots__ = ("chain", "prefix", "network", "decision", "p", "final", "_ends")

    def __init__(self, chain, prefix, network, decision, max_steps) -> None:
        self.chain = chain  # receivers of the completed passes before this step
        self.prefix = prefix  # those passes as PossessionSteps
        self.network = network
        self.decision = decision
        if decision.is_shoot:
            self.p = None
            self.final = True
        else:
            self.p = network.edges[decision.target].p
            self.final = decision.degenerate or len(chain) == max_steps - 1
        self._ends: list[RolloutResult | None] = [None, None]  # by scored

    def end(self, scored: bool) -> RolloutResult:
        """The possession that stops here; built the first time a trial stops here."""
        result = self._ends[scored]
        if result is None:
            if self.decision.is_shoot:
                outcome = StepOutcome("shot_taken", scored=scored)
            else:
                outcome = StepOutcome("forced_loss" if self.final else "pass_intercepted")
            sequence = PossessionSequence(
                self.prefix + (PossessionStep(self.network, self.decision, outcome),)
            )
            result = RolloutResult(sequence, efficiency(sequence), security(sequence), sequence.scored)
            self._ends[scored] = result
        return result


class _PossessionPath:
    """The steps of every possession from one snapshot under one config.

    Built lazily: step k is estimated and decided only when some trial
    first reaches it, so a path costs as many estimate_network calls as
    its deepest trial has steps. networks maps a chain of receivers to
    the (snapshot, network) it leads to; it depends only on the start
    snapshot, the estimators and drift_m, so paths that differ only in
    their policy may share one.
    """

    def __init__(self, state: MatchState, cfg: SimulationConfig, networks: dict | None = None) -> None:
        self._cfg = cfg
        self._state = state
        self._networks = {} if networks is None else networks
        self._steps: list[_PathStep] = []

    def _network(self, chain: tuple[int, ...]) -> DecisionNetwork:
        entry = self._networks.get(chain)
        if entry is None:
            if chain:  # only a completed pass leads on, and only to its target
                state = advance_state(self._networks[chain[:-1]][0], chain[-1], self._cfg.drift_m)
            else:
                state = self._state
            entry = self._networks[chain] = (state, estimate_network(state, self._cfg.estimators))
        return entry[1]

    def step(self, k: int) -> _PathStep:
        steps = self._steps
        while len(steps) <= k:
            prev = steps[-1] if steps else None
            if prev is None:
                chain, prefix = (), ()
            else:
                chain = prev.chain + (prev.decision.target,)
                completed = PossessionStep(prev.network, prev.decision, StepOutcome("pass_completed"))
                prefix = prev.prefix + (completed,)
            network = self._network(chain)
            decision = decide(network, self._cfg.policy)
            steps.append(_PathStep(chain, prefix, network, decision, self._cfg.max_steps))
        return steps[k]


def _walk(path: _PossessionPath, rng: random.Random) -> RolloutResult:
    """One trial along the path: its draws decide where the possession stops."""
    k = 0
    while True:
        step = path.step(k)
        if step.p is None:  # a shot
            return step.end(rng.random() < step.network.s)
        if step.final or rng.random() >= step.p:
            return step.end(False)
        k += 1


def rollout(state: MatchState, cfg: SimulationConfig) -> RolloutResult:
    """Play out one possession; deterministic given (state, cfg)."""
    return _walk(_PossessionPath(state, cfg), random.Random(cfg.seed))


def simulate_possession(state: MatchState, cfg: SimulationConfig) -> PossessionSequence:
    """One full possession from the given snapshot."""
    return rollout(state, cfg).sequence


def run_trials(
    state: MatchState,
    cfg: SimulationConfig,
    style_index: int,
    trials: int,
    *,
    _networks: dict | None = None,
) -> list[RolloutResult]:
    """Independent seeded rollouts, in trial order, sharing one possession path.

    Each end of the path (a shot scored or missed, an interception or a
    forced loss at step k) is built once, the first time a trial reaches
    it, so trials that end the same way share one frozen RolloutResult.
    Trials run in this thread. _networks is monte_carlo_compare's map of
    estimated networks, shared by its styles.
    """
    check_int(trials, "trials", 1)
    path = _PossessionPath(state, cfg, _networks)
    prefix = _seed_hash(cfg.seed, style_index)
    rng = random.Random()
    results = []
    for i in range(trials):
        rng.seed(_trial_seed(prefix, i))  # the state random.Random(derive_seed(...)) starts in
        results.append(_walk(path, rng))
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
    follows it.
    """
    styles = list(styles)
    if not styles:
        raise ValueError("monte_carlo_compare requires at least one style")
    reports = []
    networks: dict = {}  # a style changes only the policy, so every style may share the networks
    for style_index, style in enumerate(styles):
        style_cfg = replace(cfg, policy=replace(cfg.policy, style=style))
        results = run_trials(state, style_cfg, style_index, trials, _networks=networks)
        reports.append(StyleReport.from_results(str(style), results))
    return reports
