"""Edge-vector networks for a ball holder's decision situation.

The central structure is the holder's decision network: the holder is
connected to each of their ten teammates by an edge carrying four
numbers: the holder's scoring probability ``s``, the holder's decision
time ``tau`` (seconds), the pass-completion probability ``p`` to that
teammate, and the receiver risk ``r`` (integer 0..10, how much the
receiver would threaten the opposing goal).

``s`` and ``tau`` belong to the holder, so the network stores them once
and each edge stores only its (p, r); ``edge(j)`` gives the full
(s, tau, p, r) vector as an EdgeVector4, a view that checks nothing.
DecisionNetwork(...), which from_json_dict and so the log reader call,
validates every value at construction; out-of-range inputs raise
instead of being clamped. estimate_network builds its network
unchecked, from values that are in range by construction (see
estimators.py).

sequence.log_text keeps a network's log text in its private _text slot,
a class attribute that no constructor sets and no comparison reads. As
for MatchState._estimate, the memo is sound because a network is frozen
and its edges must not be mutated.

Every number the package accepts is checked by one of three functions
defined here: check_unit (a float in [0, 1]), check_real (a finite
float above a bound) and check_int (an int in a range). They share one
rule: a bool is never a number, NaN and +-inf are outside every range,
and an integer too large for a float is rejected, so no checked value
can overflow later. Each raises a ValueError that names the value, and
returns an int as a float where a float is asked for. The name is
the caller's path to the value, so a number from a state file is
named by its JSON path (team[3].x).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .jsonio import check_object

TEAM_SIZE = 11
PLAYER_IDS = frozenset(range(1, TEAM_SIZE + 1))

RISK_MAX = 10

_NETWORK_KEYS = frozenset(("holder", "s", "tau", "edges"))
_EDGE_KEYS = frozenset(("to", "p", "r"))

_INF = math.inf
_FLOAT_MAX = sys.float_info.max


def _reject_non_number(value: object, name: str, kind: type | tuple, expected: str) -> None:
    """Raise ValueError if value is a bool, is not an instance of kind, or is an int beyond float range."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name}={value!r} must be {expected}")
    if isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ValueError(f"{name}: integer too large for a float")


def check_unit(value: object, name: str) -> float:
    """value as a float in [0, 1]."""
    if type(value) is not float:
        _reject_non_number(value, name, (int, float), "a number in [0, 1]")
        value = float(value)
    if 0.0 <= value <= 1.0:
        return value
    raise ValueError(f"{name}={value} outside [0, 1]")


def check_real(value: object, name: str, lo: float = -_INF, *, strict: bool = False) -> float:
    """value as a finite float >= lo, or > lo when strict."""
    if type(value) is not float:
        _reject_non_number(value, name, (int, float), "a finite number")
        value = float(value)
    if -_INF < value < _INF and (value > lo if strict else value >= lo):
        return value
    if lo == -_INF:
        raise ValueError(f"{name}={value} is not finite")
    raise ValueError(f"{name}={value} must be {'>' if strict else '>='} {lo:g} and finite")


def check_int(value: object, name: str, lo: int | None, hi: int | None = None) -> int:
    """value as an int >= lo and, when hi is given, <= hi; lo=None (with no hi) accepts any int."""
    if type(value) is int and (-_FLOAT_MAX if lo is None else lo) <= value <= (_FLOAT_MAX if hi is None else hi):
        return value  # the common case; a bound left out stops at the float range
    bound = f" in {lo}..{hi}" if hi is not None else "" if lo is None else f" >= {lo}"
    _reject_non_number(value, name, int, f"an integer{bound}")
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name}={value} outside {lo}..{hi}")
    if lo is not None and value < lo:
        raise ValueError(f"{name}={value} must be >= {lo}")
    return value


def check_player_id(value: object, what: str = "player id") -> int:
    """Validate a team-relative shirt slot (integer in 1..11)."""
    return check_int(value, what, 1, TEAM_SIZE)


class EdgeVector4(NamedTuple):
    """The four decision parameters of one holder-teammate edge, as DecisionNetwork.edge gives them.

    s, tau describe the holder (the same on every edge of one network);
    p, r describe the pass to this particular teammate. A view of a
    checked network: it checks nothing itself.
    """

    s: float    # holder's scoring probability, in [0, 1]
    tau: float  # holder's decision time, seconds, >= 0
    p: float    # pass-completion probability, in [0, 1]
    r: int      # receiver risk, integer in 0..10


class PassEdge(NamedTuple):
    """The teammate-specific half of an edge: the pass's (p, r)."""

    p: float  # pass-completion probability, in [0, 1]
    r: int    # receiver risk, integer in 0..10


@dataclass(frozen=True)
class DecisionNetwork:
    """The holder's decision situation: (s, tau) plus one (p, r) per teammate.

    Invariants (enforced): exactly ten edges, one per teammate id other
    than the holder, kept in id order; no self-edge; every value in
    range. Reduced teams (red cards, players off the pitch) are
    represented by zeroed edges, (p, r) = (0, 0), never by removing edges.
    """

    holder: int
    s: float    # holder's scoring probability, in [0, 1]
    tau: float  # holder's decision time, seconds, >= 0
    edges: dict[int, PassEdge]  # teammate id -> (p, r)

    _text = None  # the network's log text once sequence.log_text wrote it; not a field
    __hash__ = None  # edges is a dict; hash() names this class, not dict

    def __post_init__(self) -> None:
        check_player_id(self.holder, "holder")
        object.__setattr__(self, "s", check_unit(self.s, "s"))
        object.__setattr__(self, "tau", check_real(self.tau, "tau", 0.0))
        if not isinstance(self.edges, dict):
            raise ValueError(f"edges must be a dict of teammate id -> (p, r), not {type(self.edges).__name__}")
        expected = PLAYER_IDS - {self.holder}
        got = set(self.edges)
        unexpected = got - expected
        if self.holder in unexpected:
            raise ValueError(f"holder {self.holder} cannot have a self-edge")
        if unexpected:  # keys of any type, which need not compare: name the least repr
            raise ValueError(f"unexpected teammate id {min(unexpected, key=repr)!r}")
        missing = sorted(expected - got)
        if missing:
            raise ValueError(f"incomplete edge set: missing teammate {missing[0]}")
        edges: dict[int, PassEdge] = {}
        for j in sorted(got):
            if type(j) is not int:  # True == 1 and 3.0 == 3 pass the set checks above
                check_player_id(j, "teammate id")
            try:
                p, r = self.edges[j]
            except (TypeError, ValueError):
                raise ValueError(f"teammate {j}: edge must be a (p, r) pair, not {self.edges[j]!r}") from None
            try:
                edges[j] = PassEdge(check_unit(p, "p"), check_int(r, "r", 0, RISK_MAX))
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

    def to_json_dict(self) -> dict:
        return {
            "holder": self.holder,
            "s": self.s,
            "tau": self.tau,
            "edges": [{"to": j, "p": p, "r": r} for j, (p, r) in self.edges.items()],
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> DecisionNetwork:
        check_object(obj, _NETWORK_KEYS, ("holder", "s", "tau", "edges"), "network")
        entries = obj["edges"]
        if not isinstance(entries, list):
            raise ValueError("network.edges: expected an array")
        per_teammate: dict[int, tuple[float, int]] = {}
        for k, entry in enumerate(entries):
            check_object(entry, _EDGE_KEYS, ("to", "p", "r"), f"network.edges[{k}]")
            to = check_player_id(entry["to"], f"network.edges[{k}].to")
            if to in per_teammate:
                raise ValueError(f"network.edges[{k}].to: duplicate teammate id {to}")
            per_teammate[to] = (entry["p"], entry["r"])
        return cls(obj["holder"], obj["s"], obj["tau"], per_teammate)
