"""Pitch geometry and the match snapshot the estimators consume.

Coordinates are meters with the origin at the team's own left corner:
x runs 0..length toward the goal the team attacks, y runs 0..width.
Both sides field exactly eleven players. A team player may be flagged
"outside" (off the pitch: injured, sent off, retrieving the ball);
outside players are exempt from the bounds check and are never eligible
pass receivers. The opponent list is positional only; opposing shirt
numbers never matter to the model.

Each snapshot rule is written once, here, and every way in calls it:
a position is a pair of finite floats (check_real), on the pitch
unless its player is outside (_position); a holder, or a pass
receiver, is a player id that is not flagged outside (check_holder).
MatchState(...) and Pitch(...), as library callers build them, run
every rule in __post_init__, and errors name the argument path
(team[4].x, opponents[2].y). parse_match_state checks only what JSON
adds (object keys by jsonio.check_object, array shapes, the type and
uniqueness of ids, the outside flag), passes the rest through the same
rules under its JSON path (team[3].x: 120.0 outside [0, 105]), and
builds the MatchState without running them again. advance_state checks
its receiver with check_holder; the snapshot it derives from a checked
one is valid by construction and built unchecked.

A snapshot is estimated once per EstimatorParams: estimate_network
keeps its last (params, network) on the MatchState, in the private
_estimate slot, and returns that network again when asked with equal
params. Beside it, the private _next slot maps each (receiver, drift_m)
that advance_state was asked for to the snapshot it derived, so a
snapshot is advanced once per receiver and drift, and the successor
keeps its own network and successors. Neither slot is a dataclass
field, so they are not compared, not printed and set by no
constructor; a snapshot from advance_state, parse_match_state or
dataclasses.replace starts without them. The memos are sound because a
network and a successor are pure functions of the snapshot and the
constants, and because neither changes: a MatchState is frozen, and
its team dict and a returned network's edges must not be mutated.

A state file's text is parsed once while it is among the last
LOADED_LIMIT texts loaded: load_match_state keeps the MatchState of
each, keyed by the file's exact bytes, so loading those bytes again
returns that same object, with every network and successor it has
gained. A text that fails to parse is not kept, and parse_match_state
still builds a new MatchState on every call. So the rule that team
must not be mutated holds across loads: a state from load_match_state
is shared by every later load of the same bytes. The kept texts are
a functools.lru_cache, so threads may load at once, but two threads
that miss on the same bytes at the same moment may each parse them and
get equal but distinct states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .jsonio import check_object, parse_json, read_input
from .network import PLAYER_IDS, TEAM_SIZE, check_player_id, check_real

XY = tuple[float, float]


@dataclass(frozen=True)
class Pitch:
    """Playing surface; the team in possession attacks toward x = length."""

    length: float = 105.0
    width: float = 68.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", check_real(self.length, "pitch.length", 0.0, strict=True))
        object.__setattr__(self, "width", check_real(self.width, "pitch.width", 0.0, strict=True))

    @property
    def goal_center(self) -> XY:
        return (self.length, self.width / 2.0)


@dataclass(frozen=True)
class MatchState:
    """Both teams' positions plus the ball holder, validated on construction."""

    pitch: Pitch
    team: dict[int, XY]           # player id -> (x, y)
    opponents: tuple[XY, ...]     # 11 positions, defending the x = length goal
    holder: int
    outside: frozenset[int] = frozenset()

    # estimate_network's (params, network) for this snapshot, or None, and
    # advance_state's {(receiver, drift_m): successor}, or None (see the
    # module docstring); class attributes, not fields
    _estimate = None
    _next = None
    __hash__ = None  # team is a dict; hash() names this class, not dict

    def __post_init__(self) -> None:
        pitch, outside = self.pitch, self.outside
        if not isinstance(pitch, Pitch):
            raise ValueError(f"pitch must be a Pitch, not {type(pitch).__name__}")
        if not isinstance(outside, (set, frozenset)):
            raise ValueError(f"outside must be a set of player ids, not {type(outside).__name__}")
        for j in outside:
            check_player_id(j, "outside id")
        if not isinstance(self.team, dict) or self.team.keys() != PLAYER_IDS:
            raise ValueError(f"team must cover exactly the ids 1..{TEAM_SIZE}")
        for j in self.team:
            if type(j) is not int:  # True == 1 and 3.0 == 3 pass the check above
                check_player_id(j, "team id")
        if not isinstance(self.opponents, (list, tuple)) or len(self.opponents) != TEAM_SIZE:
            raise ValueError(f"opponents must have exactly {TEAM_SIZE} entries")
        team = {j: _position(self.team[j], pitch, f"team[{j}]", j in outside) for j in sorted(PLAYER_IDS)}
        opponents = tuple(_position(xy, pitch, f"opponents[{k}]") for k, xy in enumerate(self.opponents))
        object.__setattr__(self, "team", team)
        object.__setattr__(self, "opponents", opponents)
        object.__setattr__(self, "outside", frozenset(outside))
        check_holder(self.holder, outside)

    @classmethod
    def _trusted(
        cls, pitch: Pitch, team: dict[int, XY], opponents: tuple[XY, ...], holder: int,
        outside: frozenset[int],
    ) -> MatchState:
        """A snapshot from values that already meet every invariant above; no checks run.

        team must map the ids 1..11, in id order, to pairs of floats.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "pitch", pitch)
        object.__setattr__(state, "team", team)
        object.__setattr__(state, "opponents", opponents)
        object.__setattr__(state, "holder", holder)
        object.__setattr__(state, "outside", outside)
        return state


def _position(xy: object, pitch: Pitch, name: str, outside: bool = False) -> XY:
    """xy as a pair of finite floats, on the pitch unless its player is outside.

    name is the path of xy in what the caller passed (team[3],
    opponents[2]); an error names it, or its .x or .y.
    """
    try:
        x, y = xy
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an (x, y) pair, not {xy!r}") from None
    if type(x) is float and type(y) is float and 0.0 <= x <= pitch.length and 0.0 <= y <= pitch.width:
        return x, y  # the common case, finite because in range
    x = check_real(x, name + ".x")
    y = check_real(y, name + ".y")
    if not outside:
        if not 0.0 <= x <= pitch.length:
            raise ValueError(f"{name}.x: {x} outside [0, {pitch.length:g}]")
        if not 0.0 <= y <= pitch.width:
            raise ValueError(f"{name}.y: {y} outside [0, {pitch.width:g}]")
    return x, y


def check_holder(holder: object, outside: frozenset[int], name: str = "holder") -> int:
    """holder as a player id that is not flagged outside: the rule for a holder and a pass receiver."""
    check_player_id(holder, name)
    if holder in outside:
        raise ValueError(f"{name}={holder} is flagged outside")
    return holder


_ROOT_KEYS = frozenset(("pitch", "team", "opponents", "holder"))
_PITCH_KEYS = frozenset(("length", "width"))
_TEAM_KEYS = frozenset(("id", "x", "y", "outside"))
_OPPONENT_KEYS = frozenset(("x", "y"))
# the JSON path of each team and opponent entry, for error messages
_TEAM_PATHS = tuple(f"team[{k}]" for k in range(TEAM_SIZE))
_OPPONENT_PATHS = tuple(f"opponents[{k}]" for k in range(TEAM_SIZE))


def parse_match_state(data: bytes | str) -> MatchState:
    """Parse and fully validate the match-state JSON document.

    The first violated constraint is reported with its JSON path, e.g.
    "team[3].x: 120.0 outside [0, 105]". The document's numbers go
    through MatchState's own rules, so the state is built without
    repeating them.
    """
    obj = parse_json(data)
    check_object(obj, _ROOT_KEYS, ("pitch", "team", "opponents", "holder"), "root")

    pitch_obj = obj["pitch"]
    check_object(pitch_obj, _PITCH_KEYS, ("length", "width"), "pitch")
    pitch = Pitch(pitch_obj["length"], pitch_obj["width"])

    team_arr = obj["team"]
    if not isinstance(team_arr, list):
        raise ValueError("team: expected an array")
    if len(team_arr) != TEAM_SIZE:
        raise ValueError(f"team: expected {TEAM_SIZE} players, got {len(team_arr)}")
    team: dict[int, XY] = {}
    outside: set[int] = set()
    for path, entry in zip(_TEAM_PATHS, team_arr):
        check_object(entry, _TEAM_KEYS, ("id", "x", "y"), path)
        pid = check_player_id(entry["id"], path + ".id")
        if pid in team:
            raise ValueError(f"{path}.id: duplicate player id {pid}")
        is_outside = entry.get("outside", False)
        if is_outside is True:
            outside.add(pid)
        elif is_outside is not False:
            raise ValueError(f"{path}.outside: expected a boolean, got {is_outside!r}")
        team[pid] = _position((entry["x"], entry["y"]), pitch, path, is_outside)

    opp_arr = obj["opponents"]
    if not isinstance(opp_arr, list):
        raise ValueError("opponents: expected an array")
    if len(opp_arr) != TEAM_SIZE:
        raise ValueError(f"opponents: expected {TEAM_SIZE} entries, got {len(opp_arr)}")
    opponents: list[XY] = []
    for path, entry in zip(_OPPONENT_PATHS, opp_arr):
        check_object(entry, _OPPONENT_KEYS, ("x", "y"), path)
        opponents.append(_position((entry["x"], entry["y"]), pitch, path))

    holder = check_holder(obj["holder"], outside)
    team = {j: team[j] for j in sorted(team)}
    return MatchState._trusted(pitch, team, tuple(opponents), holder, frozenset(outside))


# the number of state-file texts whose MatchState load_match_state keeps
LOADED_LIMIT = 8


@functools.lru_cache(maxsize=LOADED_LIMIT)
def match_state_of(data: bytes) -> MatchState:
    """parse_match_state(data), kept for these exact bytes while they are among the last LOADED_LIMIT loaded."""
    return parse_match_state(data)  # looked up by name: a wrapped or patched parse sees every miss


def load_match_state(path) -> MatchState:
    """The MatchState of the state file at path; the same object while its bytes are kept (match_state_of)."""
    return read_input("state", path, match_state_of)
