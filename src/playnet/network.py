"""Edge-vector networks for a ball holder's decision situation.

The central structure is the holder's decision network: the holder is
connected to each of their ten teammates by an edge carrying four
numbers: the holder's scoring probability ``s``, the holder's decision
time ``tau`` (seconds), the pass-completion probability ``p`` to that
teammate, and the receiver risk ``r`` (integer 0..10, how much the
receiver would threaten the opposing goal).

``s`` and ``tau`` belong to the holder, so they repeat on every edge and
must agree across the whole network; this redundancy is enforced, never
assumed. All values are validated at construction; out-of-range inputs
raise instead of being clamped, so estimator bugs surface immediately.

A generic fixed-arity variant (``VectorNetwork``) is also provided for
edge vectors of any length n >= 1; only the 4-component specialization
has domain operations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

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


@dataclass(frozen=True)
class VectorEdge:
    """Undirected edge between two nodes, carrying a real vector."""

    a: object
    b: object
    vector: tuple[float, ...]


@dataclass(frozen=True)
class VectorNetwork:
    """A graph whose every edge carries a vector of a fixed declared arity."""

    arity: int
    edges: tuple[VectorEdge, ...]

    def __post_init__(self) -> None:
        if isinstance(self.arity, bool) or not isinstance(self.arity, int) or self.arity < 1:
            raise ValueError(f"arity={self.arity!r} must be an integer >= 1")
        for e in self.edges:
            if len(e.vector) != self.arity:
                raise ValueError(
                    f"edge ({e.a!r}, {e.b!r}): vector has {len(e.vector)} "
                    f"components, expected {self.arity}"
                )


@dataclass(frozen=True)
class EdgeVector4:
    """The four decision parameters attached to one holder-teammate edge.

    s, tau describe the holder (identical on every edge of one network);
    p, r describe the pass to this particular teammate.
    """

    s: float    # holder's scoring probability, in [0, 1]
    tau: float  # holder's decision time, seconds, >= 0
    p: float    # pass-completion probability, in [0, 1]
    r: int      # receiver risk, integer in 0..10

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _check_probability(self.s, "s"))
        if isinstance(self.tau, bool) or not isinstance(self.tau, (int, float)):
            raise ValueError(f"tau={self.tau!r} must be a number >= 0")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau={self.tau} must be >= 0 and finite")
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "p", _check_probability(self.p, "p"))
        if isinstance(self.r, bool) or not isinstance(self.r, int):
            raise ValueError(f"r={self.r!r} must be an integer in 0..{RISK_MAX}")
        if not 0 <= self.r <= RISK_MAX:
            raise ValueError(f"r={self.r} outside 0..{RISK_MAX}")

    def as_tuple(self) -> tuple[float, float, float, int]:
        return (self.s, self.tau, self.p, self.r)


@dataclass(frozen=True)
class DecisionNetwork:
    """The holder's decision situation: one 4-component edge per teammate.

    Invariants (enforced): exactly ten edges, one per teammate id other
    than the holder; no self-edge; the same (s, tau) on every edge.
    Reduced teams (red cards, players off the pitch) are represented by
    marking players unavailable, never by removing edges.
    """

    holder: int
    edges: dict[int, EdgeVector4]  # teammate id -> edge vector

    def __post_init__(self) -> None:
        check_player_id(self.holder, "holder")
        expected = PLAYER_IDS - {self.holder}
        got = set(self.edges)
        for j in sorted(got - expected):
            if j == self.holder:
                raise ValueError(f"holder {self.holder} cannot have a self-edge")
            raise ValueError(f"unexpected teammate id {j!r}")
        missing = sorted(expected - got)
        if missing:
            raise ValueError(f"incomplete edge set: missing teammate {missing[0]}")
        ref = self.edges[min(got)]
        for j in sorted(got):
            e = self.edges[j]
            if e.s != ref.s:
                raise ValueError(f"edge {j}: s={e.s} differs from shared s={ref.s}")
            if e.tau != ref.tau:
                raise ValueError(f"edge {j}: tau={e.tau} differs from shared tau={ref.tau}")

    @property
    def s(self) -> float:
        """The holder's scoring probability (shared by all edges)."""
        return next(iter(self.edges.values())).s

    @property
    def tau(self) -> float:
        """The holder's decision time in seconds (shared by all edges)."""
        return next(iter(self.edges.values())).tau

    def teammates(self) -> list[int]:
        return sorted(self.edges)

    def edge(self, j: int) -> EdgeVector4:
        """The stored 4-vector for the edge between the holder and teammate j."""
        check_player_id(j, "teammate id")
        if j == self.holder:
            raise ValueError(f"holder {self.holder} has no self-edge")
        return self.edges[j]

    def mark_unavailable(self, j: int) -> DecisionNetwork:
        """Zero out teammate j's pass edge (offside, outside the pitch, sent off).

        Returns a new network where edge j has p = 0 and r = 0; s and tau
        are untouched. Idempotent.
        """
        check_player_id(j, "teammate id")
        if j == self.holder:
            raise ValueError("holder cannot be marked")
        old = self.edges[j]
        new_edges = dict(self.edges)
        new_edges[j] = EdgeVector4(old.s, old.tau, 0.0, 0)
        return DecisionNetwork(self.holder, new_edges)

    def as_vector_network(self) -> VectorNetwork:
        """View as a generic arity-4 edge-vector network."""
        edges = tuple(
            VectorEdge(self.holder, j, (e.s, e.tau, e.p, float(e.r)))
            for j, e in sorted(self.edges.items())
        )
        return VectorNetwork(4, edges)

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
    check_player_id(holder, "holder")
    expected = PLAYER_IDS - {holder}
    got = set(per_teammate)
    if holder in got:
        raise ValueError(f"per_teammate must not contain the holder (id {holder})")
    for j in sorted(got - expected):
        raise ValueError(f"unexpected teammate id {j!r}")
    missing = sorted(expected - got)
    if missing:
        raise ValueError(f"incomplete edge set: missing teammate {missing[0]}")
    edges: dict[int, EdgeVector4] = {}
    for j in sorted(got):
        p, r = per_teammate[j]
        try:
            edges[j] = EdgeVector4(s, tau, p, r)
        except ValueError as err:
            raise ValueError(f"teammate {j}: {err}") from None
    return DecisionNetwork(holder, edges)
