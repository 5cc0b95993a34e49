"""Pitch geometry and the match snapshot the estimators consume.

Coordinates are meters with the origin at the team's own left corner:
x runs 0..length toward the goal the team attacks, y runs 0..width.
Both sides field exactly eleven players. A team player may be flagged
"outside" (off the pitch: injured, sent off, retrieving the ball);
outside players are exempt from the bounds check and are never eligible
pass receivers. The opponent list is positional only; opposing shirt
numbers never matter to the model.

Each snapshot crosses one validation boundary. parse_match_state checks
the JSON document and names the JSON path of the first violation; the
MatchState it returns, and every snapshot advance_state derives from a
checked one, is then built without re-running those checks. A
MatchState(...) or Pitch(...) built directly, by library callers, runs
every check in __post_init__, through network.py's check_real and
check_player_id.

A snapshot is estimated once per EstimatorParams: estimate_network
keeps its last (params, network) on the MatchState, in the private
_estimate slot, and returns that network again when asked with equal
params. The slot is not a dataclass field, so it is not compared, not
printed and set by no constructor; a snapshot from advance_state or
dataclasses.replace starts without it. The memo is sound because the
network is a pure function of the snapshot and the constants, and
because neither changes: a MatchState is frozen, and its team dict and
a returned network's edges must not be mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .jsonio import parse_json
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

    # estimate_network's (params, network) for this snapshot, or None
    # (see the module docstring); a class attribute, not a field
    _estimate = None

    def __post_init__(self) -> None:
        if set(self.team) != PLAYER_IDS:
            raise ValueError(f"team must cover exactly the ids 1..{TEAM_SIZE}")
        if len(self.opponents) != TEAM_SIZE:
            raise ValueError(f"opponents must have exactly {TEAM_SIZE} entries")
        for j in self.outside:
            check_player_id(j, "outside id")
        team: dict[int, XY] = {}
        for j in sorted(self.team):
            x, y = self.team[j]
            x = check_real(x, f"team player {j} x")
            y = check_real(y, f"team player {j} y")
            if j not in self.outside and not self._on_pitch(x, y):
                raise ValueError(
                    f"team player {j} at ({x}, {y}) is off the pitch and not flagged outside"
                )
            team[j] = (x, y)
        object.__setattr__(self, "team", team)
        opponents = []
        for k, (x, y) in enumerate(self.opponents):
            x = check_real(x, f"opponent {k} x")
            y = check_real(y, f"opponent {k} y")
            if not self._on_pitch(x, y):
                raise ValueError(f"opponent {k} at ({x}, {y}) is off the pitch")
            opponents.append((x, y))
        object.__setattr__(self, "opponents", tuple(opponents))
        check_player_id(self.holder, "holder")
        if self.holder in self.outside:
            raise ValueError(f"holder {self.holder} cannot be flagged outside")

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

    def _on_pitch(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.pitch.length and 0.0 <= y <= self.pitch.width


_ROOT_KEYS = frozenset(("pitch", "team", "opponents", "holder"))
_PITCH_KEYS = frozenset(("length", "width"))
_TEAM_KEYS = frozenset(("id", "x", "y", "outside"))
_OPPONENT_KEYS = frozenset(("x", "y"))
_INF = math.inf
# the JSON path of each team and opponent entry, for error messages
_TEAM_PATHS = tuple(f"team[{k}]" for k in range(TEAM_SIZE))
_OPPONENT_PATHS = tuple(f"opponents[{k}]" for k in range(TEAM_SIZE))


def _reject_unexpected_keys(obj: dict, allowed: frozenset, path: str) -> None:
    """Raise naming the first key of obj that is not allowed."""
    for key in obj:
        if key not in allowed:
            raise ValueError(f"{path}: unexpected key {key!r}")


def _require_number(obj: dict, key: str, path: str) -> float:
    try:
        v = obj[key]
    except KeyError:
        raise ValueError(f"{path}.{key}: missing") from None
    if type(v) is float and -_INF < v < _INF:
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{path}.{key}: expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:
        raise ValueError(f"{path}.{key}: integer too large for a float") from None
    if not math.isfinite(v):  # 1e400 is valid JSON that overflows to inf
        raise ValueError(f"{path}.{key}: {v} is not finite")
    return v


def parse_match_state(data: bytes | str) -> MatchState:
    """Parse and fully validate the match-state JSON document.

    The first violated constraint is reported with its JSON path, e.g.
    "team[3].x: 120.0 outside [0, 105]". These checks cover every
    MatchState invariant, so the state is built without repeating them.
    """

    def _reject_constant(name: str) -> None:
        raise ValueError(f"non-finite number {name} is not allowed")

    obj = parse_json(data, parse_constant=_reject_constant)
    if not isinstance(obj, dict):
        raise ValueError("root: expected a JSON object")
    for key in ("pitch", "team", "opponents", "holder"):
        if key not in obj:
            raise ValueError(f"{key}: missing")
    if not obj.keys() <= _ROOT_KEYS:
        _reject_unexpected_keys(obj, _ROOT_KEYS, "root")

    pitch_obj = obj["pitch"]
    if not isinstance(pitch_obj, dict):
        raise ValueError("pitch: expected an object")
    if not pitch_obj.keys() <= _PITCH_KEYS:
        _reject_unexpected_keys(pitch_obj, _PITCH_KEYS, "pitch")
    length = _require_number(pitch_obj, "length", "pitch")
    width = _require_number(pitch_obj, "width", "pitch")
    pitch = Pitch(length, width)

    team_arr = obj["team"]
    if not isinstance(team_arr, list):
        raise ValueError("team: expected an array")
    if len(team_arr) != TEAM_SIZE:
        raise ValueError(f"team: expected {TEAM_SIZE} players, got {len(team_arr)}")
    team: dict[int, XY] = {}
    outside: set[int] = set()
    for path, entry in zip(_TEAM_PATHS, team_arr):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: expected an object")
        if not entry.keys() <= _TEAM_KEYS:
            _reject_unexpected_keys(entry, _TEAM_KEYS, path)
        if "id" not in entry:
            raise ValueError(f"{path}.id: missing")
        pid = entry["id"]
        if type(pid) is not int or not 1 <= pid <= TEAM_SIZE:  # JSON gives a bool its own type
            raise ValueError(f"{path}.id: {pid!r} must be an integer in 1..{TEAM_SIZE}")
        if pid in team:
            raise ValueError(f"{path}.id: duplicate player id {pid}")
        x = _require_number(entry, "x", path)
        y = _require_number(entry, "y", path)
        is_outside = entry.get("outside", False)
        if is_outside is True:
            outside.add(pid)
        elif is_outside is False:
            if not 0.0 <= x <= length:
                raise ValueError(f"{path}.x: {x} outside [0, {pitch.length:g}]")
            if not 0.0 <= y <= width:
                raise ValueError(f"{path}.y: {y} outside [0, {pitch.width:g}]")
        else:
            raise ValueError(f"{path}.outside: expected a boolean, got {is_outside!r}")
        team[pid] = (x, y)

    opp_arr = obj["opponents"]
    if not isinstance(opp_arr, list):
        raise ValueError("opponents: expected an array")
    if len(opp_arr) != TEAM_SIZE:
        raise ValueError(f"opponents: expected {TEAM_SIZE} entries, got {len(opp_arr)}")
    opponents: list[XY] = []
    for path, entry in zip(_OPPONENT_PATHS, opp_arr):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: expected an object")
        if not entry.keys() <= _OPPONENT_KEYS:
            _reject_unexpected_keys(entry, _OPPONENT_KEYS, path)
        x = _require_number(entry, "x", path)
        y = _require_number(entry, "y", path)
        if not 0.0 <= x <= length:
            raise ValueError(f"{path}.x: {x} outside [0, {pitch.length:g}]")
        if not 0.0 <= y <= width:
            raise ValueError(f"{path}.y: {y} outside [0, {pitch.width:g}]")
        opponents.append((x, y))

    holder = obj["holder"]
    if isinstance(holder, bool) or not isinstance(holder, int):
        raise ValueError(f"holder: {holder!r} must be an integer player id")
    if holder not in team:
        raise ValueError(f"holder: no team player with id {holder}")
    if holder in outside:
        raise ValueError(f"holder: player {holder} is flagged outside")

    team = {j: team[j] for j in sorted(team)}
    return MatchState._trusted(pitch, team, tuple(opponents), holder, frozenset(outside))


def match_state_to_obj(state: MatchState) -> dict:
    """Canonical JSON shape: fixed field order, team sorted by id."""
    team = []
    for j in sorted(state.team):
        x, y = state.team[j]
        entry: dict = {"id": j, "x": x, "y": y}
        if j in state.outside:
            entry["outside"] = True
        team.append(entry)
    return {
        "pitch": {"length": state.pitch.length, "width": state.pitch.width},
        "team": team,
        "opponents": [{"x": x, "y": y} for x, y in state.opponents],
        "holder": state.holder,
    }


def load_match_state(path) -> MatchState:
    with open(path, "rb") as fh:
        return parse_match_state(fh.read())
