"""Edge-vector networks for a ball holder's decision situation.

The central structure is the holder's decision network: the holder is
connected to each of their ten teammates by an edge carrying four
numbers: the holder's scoring probability ``s``, the holder's decision
time ``tau`` (seconds), the pass-completion probability ``p`` to that
teammate, and the receiver risk ``r`` (integer 0..10, how much the
receiver would threaten the opposing goal).

``s`` and ``tau`` belong to the holder, so the network stores them once
and each edge stores only its (p, r); ``edge(j)`` gives the full
(s, tau, p, r) vector. DecisionNetwork(...), build_network and the log
reader validate every value at construction; out-of-range inputs raise
instead of being clamped. estimate_network checks each estimator output
by name and then builds its network unchecked, so the values it passes
are checked once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

TEAM_SIZE = 11
PLAYER_IDS = frozenset(range(1, TEAM_SIZE + 1))

RISK_MAX = 10


def check_player_id(value: object, what: str = "player id") -> int:
    """Validate a team-relative shirt slot (integer in 1..11)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what}={value!r} must be an integer in 1..{TEAM_SIZE}")
    if not 1 <= value <= TEAM_SIZE:
        raise ValueError(f"{what}={value} outside 1..{TEAM_SIZE}")
    return value


def _check_probability(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name}={value!r} must be a number in [0, 1]")
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")
    return float(value)


def _check_tau(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"tau={value!r} must be a number >= 0")
    if not 0 <= value < math.inf:
        raise ValueError(f"tau={value} must be >= 0 and finite")
    return float(value)


def _check_risk(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"r={value!r} must be an integer in 0..{RISK_MAX}")
    if not 0 <= value <= RISK_MAX:
        raise ValueError(f"r={value} outside 0..{RISK_MAX}")
    return value


@dataclass(frozen=True)
class EdgeVector4:
    """The four decision parameters attached to one holder-teammate edge.

    s, tau describe the holder (the same on every edge of one network);
    p, r describe the pass to this particular teammate.
    """

    s: float    # holder's scoring probability, in [0, 1]
    tau: float  # holder's decision time, seconds, >= 0
    p: float    # pass-completion probability, in [0, 1]
    r: int      # receiver risk, integer in 0..10

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _check_probability(self.s, "s"))
        object.__setattr__(self, "tau", _check_tau(self.tau))
        object.__setattr__(self, "p", _check_probability(self.p, "p"))
        _check_risk(self.r)

    def as_tuple(self) -> tuple[float, float, float, int]:
        return (self.s, self.tau, self.p, self.r)


class PassEdge(NamedTuple):
    """The teammate-specific half of an edge: the pass's (p, r)."""

    p: float  # pass-completion probability, in [0, 1]
    r: int    # receiver risk, integer in 0..10


@dataclass(frozen=True)
class DecisionNetwork:
    """The holder's decision situation: (s, tau) plus one (p, r) per teammate.

    Invariants (enforced): exactly ten edges, one per teammate id other
    than the holder; no self-edge; every value in range. Reduced teams
    (red cards, players off the pitch) are represented by marking
    players unavailable, never by removing edges.
    """

    holder: int
    s: float    # holder's scoring probability, in [0, 1]
    tau: float  # holder's decision time, seconds, >= 0
    edges: dict[int, PassEdge]  # teammate id -> (p, r)

    def __post_init__(self) -> None:
        check_player_id(self.holder, "holder")
        object.__setattr__(self, "s", _check_probability(self.s, "s"))
        object.__setattr__(self, "tau", _check_tau(self.tau))
        expected = PLAYER_IDS - {self.holder}
        got = set(self.edges)
        for j in sorted(got - expected):
            if j == self.holder:
                raise ValueError(f"holder {self.holder} cannot have a self-edge")
            raise ValueError(f"unexpected teammate id {j!r}")
        missing = sorted(expected - got)
        if missing:
            raise ValueError(f"incomplete edge set: missing teammate {missing[0]}")
        edges: dict[int, PassEdge] = {}
        for j in sorted(got):
            p, r = self.edges[j]
            try:
                edges[j] = PassEdge(_check_probability(p, "p"), _check_risk(r))
            except ValueError as err:
                raise ValueError(f"teammate {j}: {err}") from None
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _trusted(cls, holder: int, s: float, tau: float, edges: dict[int, PassEdge]) -> DecisionNetwork:
        """A network from values that already meet every invariant above; no checks run.

        s and tau must be floats and edges must map the ten teammate ids,
        in id order, to PassEdges of a float p and an int r.
        """
        net = object.__new__(cls)
        object.__setattr__(net, "holder", holder)
        object.__setattr__(net, "s", s)
        object.__setattr__(net, "tau", tau)
        object.__setattr__(net, "edges", edges)
        return net

    def teammates(self) -> list[int]:
        return sorted(self.edges)

    def check_teammate(self, j: object) -> int:
        """Validate j as one of the holder's teammates."""
        check_player_id(j, "teammate id")
        if j == self.holder:
            raise ValueError(f"holder {self.holder} has no self-edge")
        return j

    def edge(self, j: int) -> EdgeVector4:
        """The 4-vector (s, tau, p, r) of the edge between the holder and teammate j."""
        p, r = self.edges[self.check_teammate(j)]
        return EdgeVector4(self.s, self.tau, p, r)

    def mark_unavailable(self, j: int) -> DecisionNetwork:
        """Zero out teammate j's pass edge (offside, outside the pitch, sent off).

        Returns a new network where edge j has p = 0 and r = 0; s and tau
        are untouched. Idempotent.
        """
        check_player_id(j, "teammate id")
        if j == self.holder:
            raise ValueError("holder cannot be marked")
        return DecisionNetwork(self.holder, self.s, self.tau, {**self.edges, j: PassEdge(0.0, 0)})

    def to_json_dict(self) -> dict:
        return {
            "holder": self.holder,
            "s": self.s,
            "tau": self.tau,
            "edges": [
                {"to": j, "p": self.edges[j].p, "r": self.edges[j].r}
                for j in self.teammates()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: object) -> DecisionNetwork:
        if not isinstance(obj, dict):
            raise ValueError("network: expected a JSON object")
        for key in ("holder", "s", "tau", "edges"):
            if key not in obj:
                raise ValueError(f"network: missing field {key!r}")
        entries = obj["edges"]
        if not isinstance(entries, list):
            raise ValueError("network.edges: expected an array")
        per_teammate: dict[int, tuple[float, int]] = {}
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict) or not {"to", "p", "r"} <= set(entry):
                raise ValueError(f"network.edges[{k}]: expected an object with to, p, r")
            to = entry["to"]
            check_player_id(to, f"network.edges[{k}].to")
            if to in per_teammate:
                raise ValueError(f"network.edges[{k}].to: duplicate teammate id {to}")
            per_teammate[to] = (entry["p"], entry["r"])
        return build_network(obj["holder"], obj["s"], obj["tau"], per_teammate)

    @classmethod
    def from_json(cls, text: str | bytes) -> DecisionNetwork:
        return cls.from_json_dict(json.loads(text))


def build_network(
    holder: int,
    s: float,
    tau: float,
    per_teammate: Mapping[int, tuple[float, int]],
) -> DecisionNetwork:
    """Assemble the holder's decision network from per-teammate (p, r) pairs.

    per_teammate must map exactly the ten ids other than the holder. Any
    missing or extra id, or any out-of-range value, raises a ValueError
    naming the offending id and field.
    """
    return DecisionNetwork(holder, s, tau, per_teammate)
