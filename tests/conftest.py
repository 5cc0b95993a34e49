import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from playnet import (
    Decision,
    DecisionNetwork,
    MatchState,
    Pitch,
    PossessionSequence,
    PossessionStep,
    StepOutcome,
)
from playnet import sequence
from playnet.state import load_match_state, match_state_of

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

HUGE_INT = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.fixture(scope="session")
def midfield_state_path() -> Path:
    return DATA_DIR / "midfield_state.json"


@pytest.fixture(scope="session")
def box_state_path() -> Path:
    return DATA_DIR / "box_state.json"


@pytest.fixture(scope="session")
def midfield_state(midfield_state_path) -> MatchState:
    return load_match_state(midfield_state_path)


@pytest.fixture(scope="session")
def box_state(box_state_path) -> MatchState:
    return load_match_state(box_state_path)


@pytest.fixture
def no_loaded_states():
    """An empty memo of loaded states for one test, emptied again after it; yields its size."""
    match_state_of.cache_clear()
    yield lambda: match_state_of.cache_info().currsize
    match_state_of.cache_clear()


@pytest.fixture
def no_kept_reads():
    """The log reader's kept element texts and step heads emptied for one test, and again after it."""
    sequence._KEPT.clear()
    sequence._HEADS.clear()
    yield
    sequence._KEPT.clear()
    sequence._HEADS.clear()


def random_network(rng: random.Random, s: float | None = None, tau: float | None = None) -> DecisionNetwork:
    """A structurally valid network with random values."""
    holder = rng.randint(1, 11)
    s = rng.random() if s is None else s
    tau = rng.uniform(0.0, 4.0) if tau is None else tau
    per = {
        j: (rng.random(), rng.randint(0, 10))
        for j in range(1, 12)
        if j != holder
    }
    return DecisionNetwork(holder, s, tau, per)


def network_with_holder(rng: random.Random, holder: int) -> DecisionNetwork:
    per = {j: (rng.random(), rng.randint(0, 10)) for j in range(1, 12) if j != holder}
    return DecisionNetwork(holder, rng.random(), rng.uniform(0.0, 4.0), per)


def random_sequence(rng: random.Random, max_len: int = 30) -> PossessionSequence:
    """A valid possession chain of random networks, decisions, and outcomes."""
    length = rng.randint(1, max_len)
    steps = []
    holder = rng.randint(1, 11)
    for k in range(length):
        net = network_with_holder(rng, holder)
        final = k == length - 1
        if final and rng.random() < 0.4:
            decision = Decision(action="shoot")
            outcome = StepOutcome.SHOT_SCORED if rng.random() < 0.5 else StepOutcome.SHOT_MISSED
        else:
            target = rng.choice([j for j in range(1, 12) if j != holder])
            decision = Decision(action="pass", target=target, score=rng.random())
            if final:
                outcome = StepOutcome(rng.choice(["pass_intercepted", "forced_loss"]))
            else:
                outcome = StepOutcome("pass_completed")
                holder = target
        steps.append(PossessionStep(net, decision, outcome))
    return PossessionSequence(tuple(steps))


def random_match_state(rng: random.Random, allow_outside: bool = True) -> MatchState:
    """A valid random snapshot: positions anywhere on the pitch, occasional outside flags."""
    pitch = Pitch()
    outside = set()
    team = {}
    for j in range(1, 12):
        if allow_outside and rng.random() < 0.03:
            outside.add(j)
            team[j] = (rng.uniform(-5.0, 110.0), rng.uniform(-5.0, 73.0))
        else:
            team[j] = (rng.uniform(0.0, pitch.length), rng.uniform(0.0, pitch.width))
    opponents = tuple(
        (rng.uniform(0.0, pitch.length), rng.uniform(0.0, pitch.width)) for _ in range(11)
    )
    holder = rng.choice([j for j in range(1, 12) if j not in outside])
    return MatchState(pitch, team, opponents, holder, frozenset(outside))


def state_to_obj(state: MatchState) -> dict:
    """The JSON document of a snapshot, as a state file holds it: team sorted by id, outside flags set."""
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


def shuffled_opponents(state: MatchState, rng: random.Random) -> MatchState:
    """state with its opponents in another order: the model gives them no identity."""
    opponents = list(state.opponents)
    rng.shuffle(opponents)
    return dataclasses.replace(state, opponents=tuple(opponents))


def random_relabelling(rng: random.Random) -> dict[int, int]:
    """A random permutation of the shirt numbers 1..11, as a map from old to new."""
    new = list(range(1, 12))
    rng.shuffle(new)
    return dict(zip(range(1, 12), new))


def relabelled(state: MatchState, sigma: dict[int, int]) -> MatchState:
    """state with teammate j renumbered sigma[j], the holder and the outside set with it."""
    return dataclasses.replace(
        state,
        team=dict(sorted((sigma[j], pos) for j, pos in state.team.items())),
        holder=sigma[state.holder],
        outside=frozenset(sigma[j] for j in state.outside),
    )


# --- mutated JSON documents, for the input-boundary properties -------------

_MARK = "\0mutated\0"  # stands for a raw value until the text is spliced


def json_paths(obj, prefix=()):
    """Every path to a value of the document, containers included."""
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from json_paths(value, prefix + (k,))


def json_mutations(raw_values):
    """One or two (path index, action, raw JSON text) picks for mutated_json_text."""
    return st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(["set", "set", "set", "drop", "add"]), raw_values),
        min_size=1, max_size=2,
    )


JSON_CUTS = st.one_of(st.none(), st.none(), st.none(), st.integers(0, 3000))  # truncated text, now and then


def mutated_json_text(doc, picks, cut, indent=None) -> str:
    """doc's JSON text after each pick sets, drops or adds a value; cut to cut characters unless None.

    A set or add splices the pick's raw text in verbatim, so values that
    json.dumps cannot write (1e400, a 400-digit integer) reach the parser.
    A raw that is a function gets the value it replaces (None for an add)
    and returns the text. doc is mutated in place. indent is json.dumps';
    an indented text ends with a newline, laid out as playnet's files are.
    """
    raws = []
    for index, action, raw in picks:
        paths = list(json_paths(doc))[1:]
        path = paths[index % len(paths)]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "drop":
            del parent[key]
        elif action == "add" and isinstance(parent, dict):
            parent["extra"] = _MARK
            raws.append(raw(None) if callable(raw) else raw)
        else:
            raws.append(raw(parent[key]) if callable(raw) else raw)
            parent[key] = _MARK
    text = json.dumps(doc, indent=indent) + ("" if indent is None else "\n")
    for raw in raws:
        text = text.replace(json.dumps(_MARK), raw, 1)
    return text if cut is None else text[:cut]
