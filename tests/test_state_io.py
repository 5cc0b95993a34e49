import dataclasses
import errno
import gc
import itertools
import json
import math
import os
import random
import re
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import playnet.state
from playnet import DecisionNetwork, MatchState, Pitch, parse_match_state
from playnet.config import AppConfig, load_config
from playnet.dotexport import export_network_dot
from playnet.jsonio import (
    Encoded, Indexed, canonical_dumps, canonical_number, check_object, exact_number_text, manifest_path,
    number_text, parse_json, write_artifact,
)
from playnet.state import load_match_state

from conftest import (
    DATA_DIR, GOLDEN_DIR, HUGE_INT, JSON_CUTS, json_mutations, mutated_json_text, random_match_state,
    state_to_obj,
)
from oracles import canonicalize, reference_canonical_dumps


def state_doc(**overrides):
    doc = {
        "pitch": {"length": 105, "width": 68},
        "team": [{"id": j, "x": 10.0 * (j % 10), "y": 6.0 * (j % 11)} for j in range(1, 12)],
        "opponents": [{"x": 50.0 + k, "y": 3.0 * k} for k in range(11)],
        "holder": 8,
    }
    doc.update(overrides)
    return doc


def parse_doc(doc):
    return parse_match_state(json.dumps(doc))


def test_shipped_states_round_trip_exactly():
    for name in ("midfield_state.json", "box_state.json"):
        raw = (DATA_DIR / name).read_text()
        state = parse_match_state(raw)
        assert canonical_dumps(state_to_obj(state)) == raw


def test_parse_serialize_parse_is_identity():
    state = parse_doc(state_doc())
    text = canonical_dumps(state_to_obj(state))
    again = parse_match_state(text)
    assert again == state
    assert canonical_dumps(state_to_obj(again)) == text


def test_team_size_error():
    doc = state_doc()
    doc["team"] = doc["team"][:10]
    with pytest.raises(ValueError, match=r"team: expected 11 players, got 10"):
        parse_doc(doc)


def test_holder_not_in_team_error():
    with pytest.raises(ValueError, match="holder=12 outside 1..11"):
        parse_doc(state_doc(holder=12))


def test_coordinate_out_of_range_names_path():
    doc = state_doc()
    doc["team"][3]["x"] = 120.0
    with pytest.raises(ValueError, match=r"team\[3\].x: 120.0 outside \[0, 105\]"):
        parse_doc(doc)


def test_opponent_out_of_range_names_path():
    doc = state_doc()
    doc["opponents"][4]["y"] = -1.0
    with pytest.raises(ValueError, match=r"opponents\[4\].y"):
        parse_doc(doc)


def test_duplicate_player_id():
    doc = state_doc()
    doc["team"][1]["id"] = 1
    with pytest.raises(ValueError, match="duplicate player id 1"):
        parse_doc(doc)


def test_missing_field_errors():
    doc = state_doc()
    del doc["pitch"]
    with pytest.raises(ValueError, match="^root: missing key 'pitch'$"):
        parse_doc(doc)
    doc = state_doc()
    del doc["team"][0]["y"]
    with pytest.raises(ValueError, match=r"^team\[0\]: missing key 'y'$"):
        parse_doc(doc)


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unexpected key 'weather'"):
        parse_doc(state_doc(weather="wet"))
    # each object of a valid state, and the JSON path its error names
    for where, path in [((), "root"), (("pitch",), "pitch"), (("team", 0), "team[0]"), (("opponents", 10), "opponents[10]")]:
        doc = state_doc()
        obj = doc
        for part in where:
            obj = obj[part]
        obj["z"] = 1.0
        with pytest.raises(ValueError) as info:
            parse_doc(doc)
        assert str(info.value) == f"{path}: unexpected key 'z'"


def test_outside_flag_allows_off_pitch():
    doc = state_doc()
    doc["team"][10].update({"x": -4.0, "y": 70.0, "outside": True})
    state = parse_doc(doc)
    assert 11 in state.outside
    assert state.team[11] == (-4.0, 70.0)
    # without the flag the same coordinates are an error
    doc["team"][10]["outside"] = False
    with pytest.raises(ValueError, match=r"team\[10\].x"):
        parse_doc(doc)


def test_holder_cannot_be_outside():
    doc = state_doc()
    doc["team"][7]["outside"] = True
    assert doc["team"][7]["id"] == 8
    with pytest.raises(ValueError, match="holder=8 is flagged outside"):
        parse_doc(doc)


def test_malformed_json():
    with pytest.raises(ValueError, match="invalid JSON"):
        parse_match_state(b"{not json")


# each numeric slot of a state document: its JSON path and where it sits in state_doc()
_NUMERIC_SLOTS = [
    ("pitch.length", lambda doc: doc["pitch"], "length"),
    ("pitch.width", lambda doc: doc["pitch"], "width"),
    ("team[3].id", lambda doc: doc["team"][3], "id"),
    ("team[3].x", lambda doc: doc["team"][3], "x"),
    ("team[3].y", lambda doc: doc["team"][3], "y"),
    ("opponents[2].x", lambda doc: doc["opponents"][2], "x"),
    ("opponents[2].y", lambda doc: doc["opponents"][2], "y"),
    ("holder", lambda doc: doc, "holder"),
]


def test_non_finite_rejected():
    # json reads the NaN and Infinity literals as floats; the number checks reject them
    for path, parent, key in _NUMERIC_SLOTS:
        for value, literal in ((math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")):
            doc = state_doc()
            parent(doc)[key] = value
            text = json.dumps(doc)
            assert f": {literal}" in text
            with pytest.raises(ValueError, match="^" + re.escape(path) + "[=:]"):
                parse_match_state(text)


@pytest.mark.parametrize("path, value, message", [
    ("team[3].id", 12, "team[3].id=12 outside 1..11"),
    ("team[3].id", True, "team[3].id=True must be an integer in 1..11"),
    ("team[3].x", "x", "team[3].x='x' must be a finite number"),
    ("opponents[2].y", math.nan, "opponents[2].y=nan is not finite"),
    ("pitch.length", "x", "pitch.length='x' must be a finite number"),
    ("pitch.length", math.inf, "pitch.length=inf must be > 0 and finite"),
    ("holder", 8.0, "holder=8.0 must be an integer in 1..11"),
])
def test_parse_names_the_json_path_of_a_bad_number(path, value, message):
    doc = state_doc()
    parent, key = {slot: (parent, key) for slot, parent, key in _NUMERIC_SLOTS}[path]
    parent(doc)[key] = value
    with pytest.raises(ValueError) as err:
        parse_doc(doc)
    assert str(err.value) == message


def test_pitch_validation():
    with pytest.raises(ValueError, match="length"):
        Pitch(length=0.0)
    with pytest.raises(ValueError, match="width"):
        Pitch(width=-5.0)
    with pytest.raises(ValueError, match="length"):
        Pitch(length=math.inf)
    with pytest.raises(ValueError, match="width"):
        Pitch(width=math.nan)
    with pytest.raises(ValueError, match="length: integer too large"):
        Pitch(length=int(HUGE_INT))


def test_overflowing_pitch_length_rejected():
    # 1e400 is valid JSON that overflows to inf; it must not become an endless pitch
    text = (DATA_DIR / "midfield_state.json").read_text()
    text = text.replace('"length": 105', '"length": 1e400', 1)
    assert "1e400" in text
    with pytest.raises(ValueError, match="length"):
        parse_match_state(text)


def test_overflowing_integer_coordinate_is_validation_error():
    # a JSON integer too large for a float must be a ValueError, not an OverflowError
    for field in ('"length": 105', '"x": 40.0'):
        text = json.dumps(state_doc()).replace(field, field.split(":")[0] + ": " + HUGE_INT, 1)
        assert HUGE_INT in text
        with pytest.raises(ValueError, match="too large"):
            parse_match_state(text)


def test_outside_player_coordinates_must_be_finite():
    doc = state_doc()
    doc["team"][10].update({"x": -4.0, "outside": True})
    text = json.dumps(doc).replace("-4.0", "-1e400", 1)
    with pytest.raises(ValueError, match=r"team\[10\]\.x=-inf is not finite"):
        parse_match_state(text)


def assert_same_as_validated(state):
    """state equals the same fields through the public, fully checked constructor."""
    checked = MatchState(state.pitch, dict(state.team), state.opponents, state.holder, state.outside)
    assert state == checked
    assert list(state.team) == list(checked.team) == sorted(state.team)
    assert all(type(v) is float for xy in state.team.values() for v in xy)
    assert all(type(v) is float for xy in state.opponents for v in xy)
    assert type(state.opponents) is tuple and type(state.outside) is frozenset


def test_parsed_state_equals_validated_construction():
    rng = random.Random(404)
    with_outside = 0
    for _ in range(300):
        state = random_match_state(rng)
        doc = state_to_obj(state)
        rng.shuffle(doc["team"])  # the parser orders the team by id
        if rng.random() < 0.5:  # integer coordinates parse to floats
            doc["team"][0]["x"] = int(doc["team"][0]["x"])
        parsed = parse_match_state(json.dumps(doc).encode("ascii"))
        assert_same_as_validated(parsed)
        assert parsed.holder == state.holder and parsed.outside == state.outside
        with_outside += bool(parsed.outside)
    assert with_outside > 20


# JSON texts spliced into a valid snapshot in place of one value
_RAW_VALUES = st.one_of(
    st.sampled_from([
        "1e400", "-1e400", HUGE_INT, "-" + HUGE_INT, "-0.0", "1e-400", "0", "105", "12",
        "true", "null", '"x"', "[]", "{}",
    ]),
    st.floats(-10.0, 120.0).map(json.dumps),
)


@settings(max_examples=300, deadline=None)
@given(
    state_seed=st.integers(0, 2**32 - 1),
    picks=json_mutations(_RAW_VALUES),
    cut=JSON_CUTS,
)
def test_mutated_snapshot_is_a_checked_state_or_one_value_error(state_seed, picks, cut):
    doc = state_to_obj(random_match_state(random.Random(state_seed)))
    text = mutated_json_text(doc, picks, cut)
    try:
        state = parse_match_state(text)
    except ValueError:
        return
    assert_same_as_validated(state)


def test_match_state_rejects_an_integer_too_large_for_a_float():
    team = {j: (10.0, 10.0) for j in range(1, 12)}
    opponents = tuple((5.0, 5.0) for _ in range(11))
    for k in (2, 7):  # an outside player's coordinates are checked too
        with pytest.raises(ValueError, match=rf"team\[{k}\]\.x: integer too large"):
            MatchState(Pitch(), {**team, k: (int(HUGE_INT), 10.0)}, opponents, 1, frozenset({7}))
    with pytest.raises(ValueError, match=r"opponents\[3\]\.y: integer too large"):
        MatchState(Pitch(), team, opponents[:3] + ((5.0, -int(HUGE_INT)),) + opponents[4:], 1)


_TEAM = {j: (8.0 * j, 30.0) for j in range(1, 12)}
_OPPONENTS = tuple((60.0, 6.0 * k) for k in range(11))


def _opponent_2(xy):
    return {"opponents": _OPPONENTS[:2] + (xy,) + _OPPONENTS[3:]}


@pytest.mark.parametrize("change, message", [
    pytest.param({"pitch": (105.0, 68.0)}, "pitch must be a Pitch, not tuple", id="pitch-tuple"),
    pytest.param({"pitch": None}, "pitch must be a Pitch, not NoneType", id="pitch-none"),
    pytest.param({"team": {**_TEAM, 4: (1.0,)}}, r"team\[4\] must be an \(x, y\) pair, not \(1.0,\)",
                 id="team-short-pair"),
    pytest.param({"team": {**_TEAM, 4: None}}, r"team\[4\] must be an \(x, y\) pair, not None", id="team-none-pair"),
    pytest.param({"team": {**_TEAM, 4: (200.0, 30.0)}}, r"team\[4\]\.x: 200.0 outside \[0, 105\]",
                 id="team-off-pitch"),
    pytest.param({"team": list(_TEAM.items())}, "team must cover", id="team-list"),
    pytest.param({"team": {True if j == 1 else j: xy for j, xy in _TEAM.items()}},
                 "team id=True must be an integer in 1..11", id="team-key-true"),
    pytest.param({"team": {3.0 if j == 3 else j: xy for j, xy in _TEAM.items()}},
                 "team id=3.0 must be an integer in 1..11", id="team-key-3.0"),
    pytest.param(_opponent_2((1.0,)), r"opponents\[2\] must be an \(x, y\) pair", id="opponent-short-pair"),
    pytest.param(_opponent_2(None), r"opponents\[2\] must be an \(x, y\) pair", id="opponent-none-pair"),
    pytest.param(_opponent_2((60.0, 70.0)), r"opponents\[2\]\.y: 70.0 outside \[0, 68\]", id="opponent-off-pitch"),
    pytest.param({"opponents": None}, "opponents must have exactly 11 entries", id="opponents-none"),
    pytest.param({"outside": 2}, "outside must be a set of player ids, not int", id="outside-int"),
    pytest.param({"outside": None}, "outside must be a set of player ids, not NoneType", id="outside-none"),
    pytest.param({"outside": [2]}, "outside must be a set of player ids, not list", id="outside-list"),
    pytest.param({"outside": {12}}, "outside id=12 outside 1..11", id="outside-bad-id"),
    pytest.param({"holder": 2, "outside": frozenset({2})}, "holder=2 is flagged outside", id="holder-outside"),
])
def test_match_state_rejects_a_malformed_argument(change, message):
    args = {"pitch": Pitch(), "team": _TEAM, "opponents": _OPPONENTS, "holder": 1, "outside": frozenset()}
    with pytest.raises(ValueError, match=message):
        MatchState(**{**args, **change})


def test_match_state_stores_the_outside_set_as_parsed():
    state = MatchState(Pitch(), {**_TEAM, 2: (-3.0, 80.0)}, list(_OPPONENTS), 1, {2})
    assert type(state.outside) is frozenset and type(state.opponents) is tuple
    assert state == parse_match_state(json.dumps(state_to_obj(state)))


def test_match_state_requires_full_teams():
    pitch = Pitch()
    team = {j: (10.0, 10.0) for j in range(1, 11)}
    with pytest.raises(ValueError, match="team must cover"):
        MatchState(pitch, team, tuple((5.0, 5.0) for _ in range(11)), 1)


# --- the loaded states load_match_state keeps --------------------------------

def test_a_loaded_text_gives_the_same_state_and_changed_bytes_a_new_one(tmp_path, no_loaded_states):
    text = (DATA_DIR / "midfield_state.json").read_bytes()
    path, twin = tmp_path / "a.json", tmp_path / "b.json"
    path.write_bytes(text)
    twin.write_bytes(text)
    state = load_match_state(path)
    assert load_match_state(path) is state
    assert load_match_state(str(twin)) is state  # keyed by the bytes, not the path
    assert parse_match_state(text) is not state  # a parse is always new
    path.write_bytes(text + b" ")  # the same snapshot, other bytes
    spaced = load_match_state(path)
    assert spaced is not state and spaced == state
    path.write_bytes(text)
    assert load_match_state(path) is state
    assert no_loaded_states() == 2  # text + b" " and text


def test_a_bad_state_file_fails_alike_on_every_load_and_is_not_kept(tmp_path, no_loaded_states):
    path = tmp_path / "bad.json"
    doc = state_doc()
    doc["team"][3]["x"] = 120.0
    path.write_text(json.dumps(doc))
    messages = []
    for _ in range(3):
        with pytest.raises(ValueError) as err:
            load_match_state(path)
        messages.append(str(err.value))
    assert messages == [f"state {path}: team[3].x: 120.0 outside [0, 105]"] * 3
    assert no_loaded_states() == 0


def test_the_least_recently_loaded_text_is_dropped_at_the_bound(tmp_path, no_loaded_states):
    limit = playnet.state.LOADED_LIMIT
    text = (DATA_DIR / "box_state.json").read_bytes()
    paths = []
    for k in range(limit + 1):
        paths.append(tmp_path / f"{k}.json")
        paths[k].write_bytes(text + b"\n" * k)
    first = [load_match_state(path) for path in paths[:limit]]
    assert load_match_state(paths[0]) is first[0]  # now the most recently loaded
    load_match_state(paths[limit])  # past the bound: drops paths[1]'s text, the least recent
    assert no_loaded_states() == limit
    kept = zip(paths[2:limit], first[2:])
    assert all(load_match_state(path) is state for path, state in kept)
    assert load_match_state(paths[0]) is first[0]
    again = load_match_state(paths[1])
    assert again is not first[1] and again == first[1]


def test_loads_from_several_threads_keep_the_memo_whole(tmp_path, no_loaded_states):
    limit = playnet.state.LOADED_LIMIT
    text = (DATA_DIR / "midfield_state.json").read_bytes()
    paths = []
    for k in range(limit + 4):  # more texts than are kept, so loads evict one another's
        paths.append(tmp_path / f"{k}.json")
        paths[k].write_bytes(text + b" " * k)
    expected = parse_match_state(text)
    errors = []

    def load_each():
        try:
            for _ in range(60):
                for path in paths:
                    if load_match_state(path) != expected:
                        raise AssertionError(f"{path} loaded another state")
        except Exception as err:  # reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load_each) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert no_loaded_states() == limit


# --- canonical number formatting -------------------------------------------

def test_canonical_numbers():
    assert canonical_number(105.0) == 105
    assert canonical_number(0.5) == 0.5
    assert canonical_number(0.123456789) == 0.123457
    assert canonical_number(7) == 7
    assert json.dumps(canonicalize({"a": 2.0, "b": [0.9817124]})) == '{"a": 2, "b": [0.981712]}'


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_canonical_formatting_idempotent(x):
    once = canonical_number(x)
    again = canonical_number(float(once))
    assert again == once
    # and the JSON text round-trips to the same canonical value
    assert canonical_number(json.loads(json.dumps(once))) == once


def test_canonical_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_dumps({"x": {1, 2}})


_SHARED_ROW = {"b": [None]}


@pytest.mark.parametrize(
    "value",
    [
        {"a": [1.5, {"b": None}], "c": "x"},
        {"x": {1, 2}},
        {"a": [_SHARED_ROW, _SHARED_ROW], "c": Indexed([(0, _SHARED_ROW), (1, _SHARED_ROW)])},
    ],
    ids=["written", "rejected", "repeated"],
)
def test_canonical_dumps_leaves_no_reference_cycle(value):
    gc.collect()
    gc.disable()  # so that no automatic collection frees a cycle before the count below
    try:
        try:
            canonical_dumps(value)
        except TypeError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


class _Int(int):
    def __repr__(self):
        return "_Int"


class _Float(float):
    def __repr__(self):
        return "_Float"


class _Str(str):
    def __str__(self):
        return "_Str"


_ODD_TEXT = ["", "a", "é", "😀", '"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\ud800", 'a"b\\c']
_KEYS = st.one_of(st.sampled_from(_ODD_TEXT), st.text(max_size=6))
_INTS = st.one_of(
    st.sampled_from([0, -1, 10**15 - 1, 10**15, 10**15 + 1, 10**16, -(10**16), 2**53 + 1, 10**400, -(10**400)]),
    st.integers(),
    st.integers().map(_Int),
)
_FLOATS = st.one_of(
    st.sampled_from([
        -0.0, 0.0, 5e-324, -5e-324, 1e15 - 1, 1e15, 1e15 + 1, 1e16, -1e16, 1.7976931348623157e308,
        0.123456, 0.1234567, 1234.567, 12345.67, 9.999995, 999999.5, 0.9817124, 2.5, 1e-7,
    ]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _INTS, _FLOATS, st.sampled_from(_ODD_TEXT), st.text(), st.text().map(_Str),
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=40,
)
_DEEP = {"": [{"a": ({"é": [[], {}, (), [[{"\\": [1e16, 10**16, -0.0, None, True]}]]]},)}]}


@settings(max_examples=400, deadline=None)
@given(value=_JSON_VALUES)
@example(value=_DEEP)
@example(value=[0.5, -0.5, 1e16, 10**16, 10**16, 1e16, -0.0, 0.0, 0.1234567, 0.1234567])  # memo keys
@example(value=[])
@example(value={})
def test_canonical_dumps_equals_reference_writer(value):
    assert canonical_dumps(value) == reference_canonical_dumps(value)


@st.composite
def _shared_values(draw):
    """A value whose containers recur by identity, at one depth and at others, with Indexed arrays.

    Each object of the pool may hold earlier ones, and the tree places
    them anywhere; rows of an Indexed array come from a pool of their own.
    """
    pool: list = []
    for _ in range(draw(st.integers(1, 4))):
        part = st.one_of(_SCALARS, st.sampled_from(pool)) if pool else _SCALARS
        pool.append(draw(st.one_of(
            st.lists(part, min_size=1, max_size=3),
            st.lists(part, min_size=1, max_size=3).map(tuple),
            st.dictionaries(_KEYS, part, min_size=1, max_size=3),
        )))
    rows = draw(st.lists(
        st.dictionaries(_KEYS.filter(lambda key: key != "index"), st.one_of(_SCALARS, st.sampled_from(pool)), max_size=3),
        min_size=1, max_size=4,
    ))
    indexed = st.lists(st.tuples(_INTS, st.sampled_from(rows)), max_size=6).map(Indexed)
    leaf = st.one_of(st.sampled_from(pool), st.sampled_from(pool), indexed, _SCALARS)
    return draw(st.recursive(
        leaf,
        lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=4)),
        max_leaves=12,
    ))


def _expanded(value):
    """The plain value: each Indexed array written out as its {"index": i, **row} objects."""
    if type(value) is Indexed:
        return [{"index": i, **_expanded(row)} for i, row in value]
    if isinstance(value, dict):
        return {key: _expanded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_expanded(item) for item in value]
    return value


_ROW = {"p": 0.25, "edges": [1, 2.5]}
_SHARED = [_ROW, [_ROW, (_ROW,)], {"a": _ROW}, Indexed([(0, _ROW), (7, {}), (10**16, _ROW)]), [_ROW]]


@settings(max_examples=150, deadline=None)
@given(value=_shared_values())
@example(value=_SHARED)
@example(value=Indexed([]))
@example(value=[Indexed([(1, _ROW)]), Indexed([(2, _ROW)])])  # one row in two arrays at one depth
@example(value=Indexed([(i, {"i": float(i)}) for i in range(50)]))  # each written row is let go by the caller
@pytest.mark.parametrize("number, reference", [
    (number_text, reference_canonical_dumps),
    (exact_number_text, lambda value: json.dumps(value, indent=2) + "\n"),
], ids=["number_text", "exact_number_text"])
def test_recurring_objects_and_indexed_rows_encode_as_the_plain_value(number, reference, value):
    assert canonical_dumps(value, number) == reference(_expanded(value))


@st.composite
def _places(draw):
    """The frames around a value's place in a larger value, outermost first: a list, a dict or an Indexed row."""
    frames = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["list", "dict", "indexed"]))
        before = draw(st.lists(_SCALARS, max_size=2))
        after = draw(st.lists(_SCALARS, max_size=2))
        key = draw(_KEYS.filter(lambda key: key != "index"))
        frames.append((kind, before, after, key, draw(_INTS)))
    return frames


def _placed(frames, value):
    """value at the place the frames describe."""
    for kind, before, after, key, index in reversed(frames):
        if kind == "list":
            value = [*before, value, *after]
        else:
            row = {f"{key}<{k}": item for k, item in enumerate(before)}
            row[key] = value
            row.update((f"{key}>{k}", item) for k, item in enumerate(after))
            value = row if kind == "dict" else Indexed([(index, row)])
    return value


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES, frames=_places())
@example(value=_DEEP, frames=[("indexed", [], [], "a", 3), ("list", [1.5], [None], "", 0)])
@example(value=["a\nb", {"\n": "\n"}], frames=[("dict", [], [], "x", 0)])  # newlines inside strings
def test_encoded_text_is_written_as_its_value_at_any_depth(value, frames):
    encoded = Encoded(canonical_dumps(value)[:-1])
    assert canonical_dumps(_placed(frames, encoded)) == canonical_dumps(_placed(frames, value))


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"x", math.nan, math.inf, -math.inf, {"a": [1, {"b": math.nan}]}, [0.5, (math.inf,)], {"x": {1, 2}}],
    ids=["set", "bytes", "nan", "inf", "-inf", "nested-nan", "nested-inf", "nested-set"],
)
def test_canonical_dumps_raises_what_the_reference_raises(value):
    with pytest.raises(Exception) as expected:
        reference_canonical_dumps(value)
    with pytest.raises(expected.type) as raised:
        canonical_dumps(value)
    assert str(raised.value) == str(expected.value)


def test_canonical_dumps_rejects_keys_that_are_not_str():
    with pytest.raises(TypeError, match="keys must be str"):
        canonical_dumps({"a": {1: 2}})  # json would write the key as "1"; no caller passes one


# the numbers a manifest holds: config values near float range and seeds beyond 64 bits
_MANIFEST_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 29.99999949, 1e16]),
    st.integers(0, 2**70),
)
_MANIFESTS = st.fixed_dictionaries({
    "tool": st.just("playnet"),
    "version": st.text(max_size=8),
    "command": st.sampled_from(["decide", "simulate", "compare"]),
    "config": st.dictionaries(st.text(max_size=8), st.dictionaries(st.text(max_size=8), _MANIFEST_NUMBERS)),
    "run": st.fixed_dictionaries({
        "styles": st.lists(st.text(max_size=5)), "trials": _MANIFEST_NUMBERS, "seed": st.integers(-(2**70), 2**70),
    }),
    "inputs": st.fixed_dictionaries({"state": st.fixed_dictionaries({
        "path": st.one_of(st.sampled_from(["/data/état.json", "/data/状態.json", "/data/😀\u2028\udcff"]), st.text()),
        "sha256": st.text("0123456789abcdef", min_size=64, max_size=64),
    })}),
    "timestamp": st.text(max_size=20),
})


@settings(max_examples=300, deadline=None)
@given(manifest=st.one_of(_MANIFESTS, _JSON_VALUES))
@example(manifest=[0.0, -0.0, 0.0, -0.0, 1e16, 10**16, 10**16, 1e16, 0.1234567, 0.1234567])  # memo keys
def test_manifest_bytes_are_those_of_json_dumps(tmp_path_factory, manifest):
    path = tmp_path_factory.mktemp("artifact") / "log.json"
    write_artifact(path, "artifact\n", manifest)
    assert Path(manifest_path(path)).read_bytes() == (json.dumps(manifest, indent=2) + "\n").encode()
    assert canonical_dumps(manifest, exact_number_text) == json.dumps(manifest, indent=2) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_manifest_with_a_non_finite_number_is_not_written(tmp_path, value):
    with pytest.raises(ValueError, match="has no JSON text"):
        write_artifact(tmp_path / "log.json", "artifact\n", {"config": {"policy": {"threshold": value}}})
    assert list(tmp_path.iterdir()) == []


def test_write_artifact_leaves_no_reference_cycle(tmp_path):
    manifest = {"config": {"policy": {"threshold": 0.5}}, "run": {"seed": 2**70, "styles": ["3:1"]}}
    write_artifact(tmp_path / "warm.json", "artifact\n", manifest)  # first-call caches are not cycles of the call
    gc.collect()
    gc.disable()  # so that no automatic collection frees a cycle before the count below
    try:
        write_artifact(tmp_path / "log.json", "artifact\n", manifest)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_text_longer_than_a_write_slice_is_written_byte_for_byte(tmp_path):
    path = tmp_path / "log.json"
    text = ("[0.5, \"é\", \"😀\"],\n" * (1 << 18))[: 5 << 19]  # 2.5 Mi characters, some of them multibyte
    write_artifact(path, text, {})
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("failure", ["unencodable-text", "disk-full", "unencodable-after-the-first-slice"])
def test_a_failed_artifact_write_keeps_the_old_pair(tmp_path, monkeypatch, failure):
    path = tmp_path / "log.json"
    write_artifact(path, "old\n", {"run": {"seed": 1}})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    text = "new\n"
    if failure == "unencodable-text":
        text = "new \ud800\n"  # a lone surrogate, which UTF-8 cannot encode
    elif failure == "unencodable-after-the-first-slice":
        text = "n" * (3 << 19) + "\ud800\n"  # the first MiB is written before the surrogate fails
    else:
        real_fdopen = os.fdopen
        opened = []

        class DiskFull:
            """The artifact's temporary file, on a disk that fills up after two characters."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def fdopen(fd, *args, **kwargs):
            opened.append(fd)
            fh = real_fdopen(fd, *args, **kwargs)
            return DiskFull(fh) if len(opened) == 2 else fh  # the manifest is written first

        monkeypatch.setattr(os, "fdopen", fdopen)
    with pytest.raises((OSError, UnicodeEncodeError)):
        write_artifact(path, text, {"run": {"seed": 2}})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # no temporary left either


def test_atomic_write(tmp_path):
    target = tmp_path / "artifact.json"
    write_artifact(target, "payload\n", {})
    assert target.read_text() == "payload\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json", "artifact.json.manifest.json"]


# --- DOT export -------------------------------------------------------------

def zero_network(holder=8):
    return DecisionNetwork(holder, 0.0, 0.0, {j: (0.0, 0) for j in range(1, 12) if j != holder})


def test_dot_zero_network_shape():
    text = export_network_dot(zero_network())
    assert text.count(" -- ") == 10
    assert text.count('label="(0.000, 0.000, 0.000, 0)"') == 10
    assert "t8 [style=filled" in text
    for j in range(1, 12):
        assert f"t{j}" in text


def test_dot_deterministic():
    assert export_network_dot(zero_network()) == export_network_dot(zero_network())


def test_dot_matches_frozen_golden(midfield_state):
    from playnet import estimate_network
    from playnet.estimators import DEFAULT_PARAMS

    network = estimate_network(midfield_state, DEFAULT_PARAMS)
    assert export_network_dot(network) == (GOLDEN_DIR / "midfield_t8.dot").read_text()


# --- config -----------------------------------------------------------------

def test_config_defaults():
    cfg = load_config(None)
    assert cfg == AppConfig()
    assert cfg.threshold == 0.5
    assert cfg.estimators.score_decay_m == 20.0


def test_config_file_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "estimators": {"score_decay_m": 25.0},
        "simulation": {"max_steps": 12},
        "policy": {"threshold": 0.4},
    }))
    cfg = load_config(path)
    assert cfg.estimators.score_decay_m == 25.0
    assert cfg.estimators.pass_decay_m == 30.0  # untouched default
    assert cfg.max_steps == 12
    assert cfg.threshold == 0.4


def test_a_match_state_is_unhashable_by_name():
    with pytest.raises(TypeError, match="unhashable type: 'MatchState'"):
        hash(parse_doc(state_doc()))


def test_config_env_var(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"policy": {"threshold": 0.9}}))
    monkeypatch.setenv("PLAYNET_CONFIG", str(path))
    assert load_config(None).threshold == 0.9


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"estimators": {"score_decay": 25.0}}))
    with pytest.raises(ValueError, match="^config .*: estimators: unexpected key 'score_decay'$"):
        load_config(path)
    path.write_text(json.dumps({"extra": {}}))
    with pytest.raises(ValueError, match="^config .*: root: unexpected key 'extra'$"):
        load_config(path)
    for section in ("simulation", "policy"):
        with pytest.raises(ValueError) as info:
            AppConfig.from_dict({section: {"extra": 1}})
        assert str(info.value) == f"{section}: unexpected key 'extra'"


# one fault per field, in the order AppConfig checks them, and the message each gets
_CONFIG_FAULTS = {
    "estimators": ({"score_decay_m": 1.0}, "estimators must be an EstimatorParams, not dict"),
    "max_steps": (0, "max_steps=0 must be >= 1"),
    "drift_m": (-1, "drift_m=-1.0 must be >= 0 and finite"),
    "threshold": (2, "threshold=2.0 outside [0, 1]"),
}


@pytest.mark.parametrize("first, second", itertools.combinations(_CONFIG_FAULTS, 2), ids="-".join)
def test_a_config_with_two_faults_reports_the_first_field_checked(first, second):
    faults = {field: _CONFIG_FAULTS[field][0] for field in (first, second)}
    with pytest.raises(ValueError) as got:
        AppConfig(**faults)
    assert str(got.value) == _CONFIG_FAULTS[first][1]
    if first != "estimators":  # the same from a config file's sections
        sections = {"simulation": {k: v for k, v in faults.items() if k != "threshold"}}
        if "threshold" in faults:
            sections["policy"] = {"threshold": faults["threshold"]}
        with pytest.raises(ValueError) as got:
            AppConfig.from_dict(sections)
        assert str(got.value) == _CONFIG_FAULTS[first][1]


def test_check_object_rejects_a_missing_or_unknown_key_off_the_exact_keys_path():
    allowed = frozenset(("type", "target"))
    check_object({"type": "pass", "target": 3}, allowed, ("type",), "d")  # the exact keys
    check_object({"type": "shoot"}, allowed, ("type",), "d")  # an optional key left out
    check_object({}, allowed, (), "d")
    cases = [
        ({"target": 3}, "d: missing key 'type'"),
        ({"type": "pass", "goal": 3}, "d: unexpected key 'goal'"),  # as many keys as allowed, one unknown
        ({"type": "pass", "target": 3, "goal": 1}, "d: unexpected key 'goal'"),
        ([("type", "pass")], "d: expected an object"),
        (None, "d: expected an object"),
    ]
    for obj, message in cases:
        with pytest.raises(ValueError) as got:
            check_object(obj, allowed, ("type",), "d")
        assert str(got.value) == message
    with pytest.raises(ValueError) as got:
        check_object({"type": "pass"}, allowed, ("type", "target"), "d")
    assert str(got.value) == "d: missing key 'target'"


def test_shipped_default_config_matches_builtins():
    cfg = load_config(DATA_DIR / "default_config.json")
    assert cfg == AppConfig()


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"simulation": {"max_steps": 0}}, "max_steps"),
        ({"simulation": {"max_steps": "x"}}, "max_steps"),
        ({"simulation": {"max_steps": True}}, "max_steps"),
        ({"simulation": {"drift_m": -1}}, "drift_m"),
        ({"simulation": {"drift_m": math.inf}}, "drift_m"),
        ({"policy": {"threshold": 2}}, "threshold"),
        ({"policy": {"threshold": math.nan}}, "threshold"),
        ({"policy": {"tie_break": "random"}}, "tie_break"),
        ({"policy": {"tie_break": [1]}}, "tie_break"),
        ({"estimators": {"pass_decay_m": math.inf}}, "pass_decay_m"),
        ({"estimators": {"risk_score_weight": math.nan}}, "risk_score_weight"),
        ({"estimators": {"pass_decay_m": 10**400}}, "pass_decay_m"),
        ({"simulation": {"max_steps": 10**400}}, "max_steps"),
        ({"simulation": {"drift_m": 10**400}}, "drift_m"),
        ({"policy": {"tie_break": "highest_id"}}, "tie_break"),
        ({"simulation": {"max_steps": 1001}}, "max_steps=1001 above the limit of 1000"),
    ],
)
def test_config_rejects_out_of_range_values_at_load(obj, field):
    with pytest.raises(ValueError, match=field):
        AppConfig.from_dict(obj)


# JSON texts spliced into the shipped config in place of one value
_CONFIG_RAW_VALUES = st.one_of(
    st.sampled_from([
        HUGE_INT, "-" + HUGE_INT, "1e400", "NaN", "0", "1", "30", "-1", "true", "false", "null",
        '"x"', '"highest_id"', "[]", "{}",
    ]),
    st.floats(-1.0, 100.0).map(json.dumps),
)


@settings(max_examples=300, deadline=None)
@given(picks=json_mutations(_CONFIG_RAW_VALUES), cut=JSON_CUTS)
def test_mutated_config_is_a_checked_config_or_one_value_error(picks, cut):
    doc = json.loads((DATA_DIR / "default_config.json").read_text())
    text = mutated_json_text(doc, picks, cut)
    try:
        cfg = AppConfig.from_dict(parse_json(text))  # what load_config does with a file's bytes
    except ValueError:
        return
    numbers = [*dataclasses.asdict(cfg.estimators).values(), cfg.max_steps, cfg.drift_m, cfg.threshold]
    assert all(type(v) in (int, float) and math.isfinite(v) for v in numbers)
    assert AppConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(team={"id": 1}), "team: expected an array"),
        (lambda doc: doc.update(opponents="x"), "opponents: expected an array"),
        (lambda doc: doc["team"][4].update(outside=1), "team[4].outside: expected a boolean, got 1"),
        (lambda doc: doc["team"][4].update(outside=None), "team[4].outside: expected a boolean, got None"),
    ],
    ids=["team-object", "opponents-string", "outside-one", "outside-null"],
)
def test_parse_names_a_mistyped_team_or_opponents_field(edit, message):
    doc = state_doc()
    edit(doc)
    with pytest.raises(ValueError) as err:
        parse_doc(doc)
    assert str(err.value) == message
