"""The shoot-or-pass decision over a holder's network.

Shoot when the holder's scoring probability reaches the policy
threshold; otherwise pass to the teammate whose (p, r) edge maximizes
the policy's style function, the head of ranked_options: ties go to
the lowest teammate id, so runs reproduce exactly across platforms.

The holder's decision time tau is carried by the network but plays no
role here; its influence is upstream, where pass probabilities are
estimated as a function of the time available.

A policy's style is a LinearStyle, checked when the policy is built.
No check runs here on a network's values: every network holds a float
p in [0, 1] and an int r in 0..10, in range when it was built. So
ranked_options scores a style inline, with the operations of
LinearStyle.evaluate but without its checks of p and r, which stay for
library callers. A Decision is a plain record that checks nothing;
a PossessionSequence checks every decision it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .network import DecisionNetwork, check_unit
from .style import LinearStyle

@dataclass(frozen=True)
class DecisionPolicy:
    """A game style and a shoot threshold."""

    style: LinearStyle
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.style, LinearStyle):
            raise ValueError(f"policy style must be a LinearStyle, not {type(self.style).__name__}")
        check_unit(self.threshold, "threshold")


@dataclass(frozen=True)
class Decision:
    """Outcome of the decision function: shoot, or pass to a teammate.

    degenerate marks a pass whose best style score is zero (for example
    every teammate offside); the simulator treats such forced passes as
    turnovers rather than guessing a receiver that cannot be reached.
    Unchecked: PossessionSequence checks the decisions it holds.
    """

    action: str  # "shoot" | "pass"
    target: int | None = None
    score: float | None = None
    degenerate: bool = False

    @property
    def is_shoot(self) -> bool:
        return self.action == "shoot"

    @property
    def is_pass(self) -> bool:
        return self.action == "pass"


_SHOOT = Decision(action="shoot")  # frozen, so every shoot decision can share it


def ranked_options(network: DecisionNetwork, policy: DecisionPolicy) -> list[tuple[int, float]]:
    """All ten pass options as (teammate, style score), best first.

    The one tie rule: a stable sort by score descending over the network's
    id order, so equal scores go lowest id first. decide passes to the head.
    """
    x, y = policy.style.x, policy.style.y
    scored = [(j, x * (10.0 * p) + y * r) for j, (p, r) in network.edges.items()]
    scored.sort(key=itemgetter(1), reverse=True)
    return scored


def decide(network: DecisionNetwork, policy: DecisionPolicy) -> Decision:
    """Shoot if the holder's s reaches the threshold, else pass to the head of ranked_options."""
    if network.s >= policy.threshold:
        return _SHOOT
    target, score = ranked_options(network, policy)[0]
    return Decision("pass", target, score, score == 0.0)
