"""Possession sequences and their efficiency/security metrics.

A possession is a chain of decision networks: every completed pass hands
the ball (and the network) to the receiver, and the chain ends with a
shot, an interception, or a forced loss. Each step records the network
seen, the decision taken, and what actually happened, so simulated
turnovers terminate sequences explicitly.

Two aggregates summarize a sequence:

* efficiency: the best scoring probability any network in the chain
  offered; the sequence is s-efficient for every s up to this value.
* security: the worst completion probability among the passes the
  holder actually attempted (failed attempts count: the risk was taken);
  the sequence is p-secure for every p up to this value. A sequence with
  no pass is vacuously 1-secure; a lone shot risks no giveaway.

The "optimal pair" question (high efficiency AND high security) has no
single objective, so it is exposed as the Pareto frontier over the
(efficiency, security) plane: of sequences (pareto_frontier), or of any
(efficiency, security) points such as per-style means (pareto_points).

sequence_to_obj and sequence_from_obj write and read the log shape;
sequence_from_obj checks every invariant again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision import Decision
from .network import DecisionNetwork, check_unit

OUTCOME_KINDS = ("pass_completed", "pass_intercepted", "shot_taken", "forced_loss")

_OUTCOME_LABELS = {
    "pass_completed": "pass_completed",
    "pass_intercepted": "pass_intercepted",
    "forced_loss": "forced_loss",
}


@dataclass(frozen=True)
class StepOutcome:
    """What actually happened after a decision; shots record whether they scored."""

    kind: str
    scored: bool = False

    def __post_init__(self) -> None:
        if self.kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        if self.scored and self.kind != "shot_taken":
            raise ValueError(f"scored flag is only valid for shot_taken, not {self.kind!r}")

    @property
    def is_terminal(self) -> bool:
        return self.kind != "pass_completed"

    def label(self) -> str:
        """The wire label used in sequence log files."""
        if self.kind == "shot_taken":
            return "shot_scored" if self.scored else "shot_missed"
        return _OUTCOME_LABELS[self.kind]

    @classmethod
    def from_label(cls, label: str) -> StepOutcome:
        if not isinstance(label, str):
            raise ValueError(f"outcome label {label!r} must be a string")
        if label == "shot_scored":
            return cls("shot_taken", scored=True)
        if label == "shot_missed":
            return cls("shot_taken")
        if label in _OUTCOME_LABELS:
            return cls(label)
        raise ValueError(f"unknown outcome label {label!r}")


@dataclass(frozen=True)
class PossessionStep:
    """One link of the chain: the network seen, the decision, the outcome."""

    network: DecisionNetwork
    decision: Decision
    outcome: StepOutcome

    def __post_init__(self) -> None:
        if self.decision.is_shoot and self.outcome.kind != "shot_taken":
            raise ValueError(f"shoot decision cannot end in {self.outcome.kind!r}")
        if self.decision.is_pass:
            if self.outcome.kind == "shot_taken":
                raise ValueError("pass decision cannot end in a shot")
            self.network.check_teammate(self.decision.target)

    @property
    def attempted_pass_p(self) -> float | None:
        """Completion probability of the pass this step attempted, if any."""
        if self.decision.is_pass:
            return self.network.edges[self.decision.target].p
        return None


@dataclass(frozen=True)
class PossessionSequence:
    """A nonempty chain of steps; only the last one may end the possession.

    Enforced: every non-final step is a completed pass whose receiver
    holds the ball in the next step, and the final step is terminal
    (shot, interception, or forced loss).
    """

    steps: tuple[PossessionStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a possession sequence needs at least one step")
        for k, step in enumerate(self.steps[:-1]):
            if step.outcome.kind != "pass_completed":
                raise ValueError(
                    f"step {k}: non-final outcome must be pass_completed, got {step.outcome.kind!r}"
                )
            nxt = self.steps[k + 1]
            if nxt.network.holder != step.decision.target:
                raise ValueError(
                    f"step {k + 1}: holder {nxt.network.holder} does not match "
                    f"the previous pass target {step.decision.target}"
                )
        if not self.steps[-1].outcome.is_terminal:
            raise ValueError("final step must be terminal (shot, interception, or forced loss)")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def terminal_outcome(self) -> StepOutcome:
        return self.steps[-1].outcome

    @property
    def scored(self) -> bool:
        last = self.steps[-1].outcome
        return last.kind == "shot_taken" and last.scored


def efficiency(seq: PossessionSequence) -> float:
    """Best scoring probability any network in the sequence offered."""
    return max(step.network.s for step in seq.steps)


def security(seq: PossessionSequence) -> float:
    """Worst completion probability among the attempted passes (1 if none)."""
    worst = 1.0
    for step in seq.steps:
        p = step.attempted_pass_p
        if p is not None and p < worst:
            worst = p
    return worst


def is_s_efficient(seq: PossessionSequence, s: float) -> bool:
    """True when some network in the sequence has scoring probability >= s."""
    return efficiency(seq) >= check_unit(s, "s")


def is_p_secure(seq: PossessionSequence, p: float) -> bool:
    """True when every attempted pass had completion probability >= p."""
    return security(seq) >= check_unit(p, "p")


def pareto_frontier(seqs) -> list[tuple[float, float, int]]:
    """Non-dominated (efficiency, security, index) points of a collection of sequences."""
    return pareto_points([(efficiency(q), security(q)) for q in seqs])


def pareto_points(points) -> list[tuple[float, float, int]]:
    """Non-dominated (efficiency, security, index) entries of (efficiency, security) points.

    A point survives iff no other point is >= in both coordinates and
    strictly greater in at least one; duplicates of a surviving point all
    survive. Output is sorted by efficiency descending, ties by index.

    Implemented as a sorted sweep; the O(n^2) pairwise check lives in the
    test suite as its oracle.
    """
    indexed = [(eff, sec, i) for i, (eff, sec) in enumerate(points)]
    if not indexed:
        raise ValueError("the Pareto frontier requires a nonempty collection")
    order = sorted(indexed, key=lambda t: (-t[0], -t[1], t[2]))
    frontier: list[tuple[float, float, int]] = []
    best_sec_above = -1.0  # max security among strictly higher efficiency
    i = 0
    n = len(order)
    while i < n:
        eff = order[i][0]
        block_best_sec = order[i][1]
        j = i
        while j < n and order[j][0] == eff:
            if order[j][1] == block_best_sec and block_best_sec > best_sec_above:
                frontier.append(order[j])
            j += 1
        if block_best_sec > best_sec_above:
            best_sec_above = block_best_sec
        i = j
    return frontier


def sequence_to_obj(seq: PossessionSequence) -> list[dict]:
    """The sequence-log JSON shape: one object per step."""
    out = []
    for step in seq.steps:
        if step.decision.is_shoot:
            decision_obj: dict = {"type": "shoot"}
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


def sequence_from_obj(obj: object) -> PossessionSequence:
    """Rebuild a sequence from its log shape, revalidating every invariant."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("sequence log: expected a nonempty array of steps")
    steps = []
    for k, item in enumerate(obj):
        if not isinstance(item, dict):
            raise ValueError(f"step {k}: expected an object")
        for key in ("network", "decision", "outcome"):
            if key not in item:
                raise ValueError(f"step {k}: missing field {key!r}")
        network = DecisionNetwork.from_json_dict(item["network"])
        dec_obj = item["decision"]
        if not isinstance(dec_obj, dict) or "type" not in dec_obj:
            raise ValueError(f"step {k}: decision must be an object with a type")
        if dec_obj["type"] == "shoot":
            decision = Decision(action="shoot")
        elif dec_obj["type"] == "pass":
            if "target" not in dec_obj:
                raise ValueError(f"step {k}: pass decision needs a target")
            decision = Decision(action="pass", target=dec_obj["target"])
        else:
            raise ValueError(f"step {k}: unknown decision type {dec_obj['type']!r}")
        outcome = StepOutcome.from_label(item["outcome"])
        steps.append(PossessionStep(network, decision, outcome))
    return PossessionSequence(tuple(steps))
