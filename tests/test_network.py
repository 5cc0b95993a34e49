import json
import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from playnet import DecisionNetwork, EdgeVector4
from playnet.network import check_int, check_player_id, check_real, check_unit

from conftest import random_network

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
taus = st.floats(min_value=0.0, max_value=120.0, allow_nan=False)
risks = st.integers(min_value=0, max_value=10)
holders = st.integers(min_value=1, max_value=11)


@st.composite
def networks(draw):
    holder = draw(holders)
    s = draw(probabilities)
    tau = draw(taus)
    per = {
        j: (draw(probabilities), draw(risks))
        for j in range(1, 12)
        if j != holder
    }
    return DecisionNetwork(holder, s, tau, per)


def zero_per_teammate(holder):
    return {j: (0.0, 0) for j in range(1, 12) if j != holder}


def test_build_zero_network():
    net = DecisionNetwork(8, 0.0, 0.0, zero_per_teammate(8))
    for j in net.edges:
        assert net.edge(j) == (0.0, 0.0, 0.0, 0)


def test_build_places_fields():
    per = zero_per_teammate(8)
    per[9] = (0.9, 7)
    net = DecisionNetwork(8, 0.8, 2.0, per)
    assert net.edge(9) == EdgeVector4(0.8, 2.0, 0.9, 7)
    assert net.s == 0.8
    assert net.tau == 2.0


def test_build_missing_teammate():
    per = zero_per_teammate(8)
    del per[3]
    with pytest.raises(ValueError, match="incomplete edge set"):
        DecisionNetwork(8, 0.0, 0.0, per)


def test_build_extra_teammate():
    per = zero_per_teammate(8)
    per[12] = (0.0, 0)
    with pytest.raises(ValueError, match="unexpected teammate id 12"):
        DecisionNetwork(8, 0.0, 0.0, per)


def test_build_names_one_unexpected_id_of_keys_that_do_not_compare():
    per = zero_per_teammate(8)
    per[12] = per["a"] = per[None] = (0.0, 0)
    for _ in range(3):
        with pytest.raises(ValueError, match="unexpected teammate id 'a'"):
            DecisionNetwork(8, 0.0, 0.0, dict(reversed(per.items())))


def test_build_rejects_holder_edge():
    per = zero_per_teammate(8)
    per[8] = (0.0, 0)
    with pytest.raises(ValueError, match="holder"):
        DecisionNetwork(8, 0.0, 0.0, per)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(s=1.5), "s=1.5 outside"),
        (dict(s=-0.1), "s=-0.1 outside"),
        (dict(tau=-1.0), "tau=-1.0 must be >= 0"),
        (dict(p=2.0), "p=2.0 outside"),
        (dict(r=11), "r=11 outside"),
        (dict(r=-1), "r=-1 outside"),
        (dict(r=2.0), "must be an integer"),
        (dict(tau=math.inf), "tau=inf must be >= 0"),  # e.g. 1e400 in a log
        (dict(s=10**400), "s: integer too large for a float"),
        (dict(tau=10**400), "tau: integer too large for a float"),
        (dict(p=-10**400), "p: integer too large for a float"),
        (dict(r=10**400), "r: integer too large for a float"),
        (dict(s=True), "s=True must be a number"),
        (dict(p=math.nan), "p=nan outside"),
    ],
)
def test_edge_vector_bounds(kwargs, message):
    values = dict(s=0.5, tau=1.0, p=0.5, r=5)
    values.update(kwargs)
    per = zero_per_teammate(8)
    per[9] = (values["p"], values["r"])
    with pytest.raises(ValueError, match=message):
        DecisionNetwork(8, values["s"], values["tau"], per)


def _rekeyed(holder, old, new):
    """Zero edges of holder whose key old is replaced by new, an equal key of another type."""
    return {new if j == old else j: edge for j, edge in zero_per_teammate(holder).items()}


@pytest.mark.parametrize(
    "edges, message",
    [
        pytest.param(_rekeyed(5, 1, True), "teammate id=True must be an integer in 1..11", id="key-true"),
        pytest.param(_rekeyed(5, 3, 3.0), "teammate id=3.0 must be an integer in 1..11", id="key-3.0"),
        pytest.param({**zero_per_teammate(5), 9: 0.5}, r"teammate 9: edge must be a \(p, r\) pair, not 0.5",
                     id="edge-float"),
        pytest.param({**zero_per_teammate(5), 9: None}, r"teammate 9: edge must be a \(p, r\) pair, not None",
                     id="edge-none"),
        pytest.param({**zero_per_teammate(5), 9: (0.5,)},
                     r"teammate 9: edge must be a \(p, r\) pair, not \(0.5,\)", id="edge-short"),
        pytest.param({**zero_per_teammate(5), 9: (0.5, 1, 2)},
                     r"teammate 9: edge must be a \(p, r\) pair, not \(0.5, 1, 2\)", id="edge-long"),
        pytest.param(list(zero_per_teammate(5).items()), r"edges must be a dict of teammate id -> \(p, r\), not list",
                     id="edges-list"),
        pytest.param(None, r"edges must be a dict of teammate id -> \(p, r\), not NoneType", id="edges-none"),
    ],
)
def test_build_rejects_a_malformed_edges_argument(edges, message):
    with pytest.raises(ValueError, match=message):
        DecisionNetwork(5, 0.5, 1.0, edges)


def test_build_names_offending_teammate():
    per = zero_per_teammate(8)
    per[9] = (1.2, 0)
    with pytest.raises(ValueError, match="teammate 9"):
        DecisionNetwork(8, 0.0, 0.0, per)


def test_edge_rejects_holder():
    net = DecisionNetwork(8, 0.0, 0.0, zero_per_teammate(8))
    with pytest.raises(ValueError, match="self-edge"):
        net.edge(8)


@given(networks())
def test_network_shape_invariants(net):
    assert len(net.edges) == 10
    assert net.holder not in net.edges
    assert set(net.edges) == set(range(1, 12)) - {net.holder}


@given(networks())
def test_build_edge_round_trip(net):
    per = {j: (net.edge(j).p, net.edge(j).r) for j in net.edges}
    rebuilt = DecisionNetwork(net.holder, net.s, net.tau, per)
    for j in net.edges:
        assert rebuilt.edge(j) == net.edge(j)


@given(networks())
def test_json_round_trip_lossless(net):
    assert DecisionNetwork.from_json_dict(json.loads(json.dumps(net.to_json_dict()))) == net


def test_json_shape():
    per = zero_per_teammate(8)
    per[9] = (0.9, 7)
    obj = DecisionNetwork(8, 0.8, 2.0, per).to_json_dict()
    assert obj["holder"] == 8
    assert obj["s"] == 0.8
    assert obj["tau"] == 2.0
    assert [e["to"] for e in obj["edges"]] == [j for j in range(1, 12) if j != 8]
    assert {"to": 9, "p": 0.9, "r": 7} in obj["edges"]


def test_random_network_helper_is_valid():
    rng = random.Random(1)
    for _ in range(50):
        net = random_network(rng)
        assert len(net.edges) == 10
        assert math.isfinite(net.s)


# --- the shared number checkers ----------------------------------------------

_FLOAT_MAX_INT = int(sys.float_info.max)


@pytest.mark.parametrize(
    "value",
    [True, False, math.nan, math.inf, -math.inf, pytest.param(_FLOAT_MAX_INT + 1, id="beyond-float-max"),
     pytest.param(-_FLOAT_MAX_INT - 1, id="beyond-float-min"), "1", None, [1]],
)
def test_checkers_share_one_rule(value):
    # a bool is never a number, NaN and +-inf are outside every range, and an
    # integer too large for a float is rejected, whatever the range asked for
    for check in (
        lambda v: check_unit(v, "v"),
        lambda v: check_real(v, "v"),
        lambda v: check_real(v, "v", 0.0, strict=True),
        lambda v: check_int(v, "v", None),
        lambda v: check_int(v, "v", 0, 10),
    ):
        with pytest.raises(ValueError, match="^v"):
            check(value)


def test_checkers_return_exact_types():
    assert type(check_unit(1, "s")) is float and check_unit(1, "s") == 1.0
    assert type(check_real(2, "x", 0.0)) is float
    assert check_real(-_FLOAT_MAX_INT, "x") == -sys.float_info.max
    assert check_int(_FLOAT_MAX_INT, "n", 1) == _FLOAT_MAX_INT
    assert check_int(-5, "seed", None) == -5
    assert check_player_id(11) == 11


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_unit(1.5, "s"), r"^s=1\.5 outside \[0, 1\]$"),
        (lambda: check_unit("x", "s"), r"^s='x' must be a number in \[0, 1\]$"),
        (lambda: check_real(-1.0, "tau", 0.0), r"^tau=-1\.0 must be >= 0 and finite$"),
        (lambda: check_real(0, "pitch.length", 0.0, strict=True),
         r"^pitch\.length=0\.0 must be > 0 and finite$"),
        (lambda: check_real(math.inf, "x"), r"^x=inf is not finite$"),
        (lambda: check_real("a", "x", 0.0), r"^x='a' must be a finite number$"),
        (lambda: check_int(11, "r", 0, 10), r"^r=11 outside 0\.\.10$"),
        (lambda: check_int(2.0, "r", 0, 10), r"^r=2\.0 must be an integer in 0\.\.10$"),
        (lambda: check_int(0, "max_steps", 1), r"^max_steps=0 must be >= 1$"),
        (lambda: check_int("3", "seed", None), r"^seed='3' must be an integer$"),
        (lambda: check_int(10**400, "trials", 1), r"^trials: integer too large for a float$"),
    ],
)
def test_checker_messages(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_network_is_unhashable_by_name():
    network = DecisionNetwork(1, 0.5, 1.0, {j: (0.5, 1) for j in range(2, 12)})
    with pytest.raises(TypeError, match="unhashable type: 'DecisionNetwork'"):
        hash(network)


@pytest.mark.parametrize(
    "to, message",
    [
        (12, "network.edges[3].to=12 outside 1..11"),
        (0, "network.edges[3].to=0 outside 1..11"),
        (True, "network.edges[3].to=True must be an integer in 1..11"),
        (5.0, "network.edges[3].to=5.0 must be an integer in 1..11"),
        ("5", "network.edges[3].to='5' must be an integer in 1..11"),
        (None, "network.edges[3].to=None must be an integer in 1..11"),
    ],
    ids=["above", "zero", "bool", "float", "str", "null"],
)
def test_from_json_dict_names_the_edge_of_a_bad_teammate_id(to, message):
    obj = DecisionNetwork(8, 0.5, 1.0, zero_per_teammate(8)).to_json_dict()
    obj["edges"][3]["to"] = to
    with pytest.raises(ValueError) as info:
        DecisionNetwork.from_json_dict(obj)
    assert str(info.value) == message
