import math
import random

import pytest
from hypothesis import given, strategies as st

from playnet import DecisionNetwork, EdgeVector4, build_network

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
    return build_network(holder, s, tau, per)


def zero_per_teammate(holder):
    return {j: (0.0, 0) for j in range(1, 12) if j != holder}


def test_build_zero_network():
    net = build_network(8, 0.0, 0.0, zero_per_teammate(8))
    for j in net.teammates():
        assert net.edge(j).as_tuple() == (0.0, 0.0, 0.0, 0)


def test_build_places_fields():
    per = zero_per_teammate(8)
    per[9] = (0.9, 7)
    net = build_network(8, 0.8, 2.0, per)
    assert net.edge(9) == EdgeVector4(0.8, 2.0, 0.9, 7)
    assert net.s == 0.8
    assert net.tau == 2.0


def test_build_missing_teammate():
    per = zero_per_teammate(8)
    del per[3]
    with pytest.raises(ValueError, match="incomplete edge set"):
        build_network(8, 0.0, 0.0, per)


def test_build_extra_teammate():
    per = zero_per_teammate(8)
    per[12] = (0.0, 0)
    with pytest.raises(ValueError, match="unexpected teammate id 12"):
        build_network(8, 0.0, 0.0, per)


def test_build_rejects_holder_edge():
    per = zero_per_teammate(8)
    per[8] = (0.0, 0)
    with pytest.raises(ValueError, match="holder"):
        build_network(8, 0.0, 0.0, per)


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
    ],
)
def test_edge_vector_bounds(kwargs, message):
    values = dict(s=0.5, tau=1.0, p=0.5, r=5)
    values.update(kwargs)
    with pytest.raises(ValueError, match=message):
        EdgeVector4(**values)
    per = zero_per_teammate(8)
    per[9] = (values["p"], values["r"])
    with pytest.raises(ValueError, match=message):  # the network runs the same checks
        build_network(8, values["s"], values["tau"], per)


def test_build_names_offending_teammate():
    per = zero_per_teammate(8)
    per[9] = (1.2, 0)
    with pytest.raises(ValueError, match="teammate 9"):
        build_network(8, 0.0, 0.0, per)


def test_mark_unavailable_zeroes_edge():
    per = zero_per_teammate(8)
    per[9] = (0.9, 7)
    net = build_network(8, 0.8, 2.0, per).mark_unavailable(9)
    assert net.edge(9) == EdgeVector4(0.8, 2.0, 0.0, 0)


def test_mark_unavailable_rejects_holder():
    net = build_network(8, 0.0, 0.0, zero_per_teammate(8))
    with pytest.raises(ValueError, match="holder cannot be marked"):
        net.mark_unavailable(8)


def test_edge_rejects_holder():
    net = build_network(8, 0.0, 0.0, zero_per_teammate(8))
    with pytest.raises(ValueError, match="self-edge"):
        net.edge(8)


@given(networks(), st.integers(min_value=1, max_value=11))
def test_mark_unavailable_idempotent(net, j):
    if j == net.holder:
        j = min(net.teammates())
    once = net.mark_unavailable(j)
    twice = once.mark_unavailable(j)
    assert once == twice
    assert once.edge(j).p == 0.0
    assert once.edge(j).r == 0
    assert once.edge(j).s == net.s
    assert once.edge(j).tau == net.tau
    # all other edges untouched
    for k in net.teammates():
        if k != j:
            assert once.edge(k) == net.edge(k)


@given(networks())
def test_network_shape_invariants(net):
    assert len(net.edges) == 10
    assert net.holder not in net.edges
    assert set(net.edges) == set(range(1, 12)) - {net.holder}


@given(networks())
def test_build_edge_round_trip(net):
    per = {j: (net.edge(j).p, net.edge(j).r) for j in net.teammates()}
    rebuilt = build_network(net.holder, net.s, net.tau, per)
    for j in net.teammates():
        assert rebuilt.edge(j) == net.edge(j)


@given(networks())
def test_json_round_trip_lossless(net):
    assert DecisionNetwork.from_json(net.to_json()) == net


def test_json_shape():
    per = zero_per_teammate(8)
    per[9] = (0.9, 7)
    obj = build_network(8, 0.8, 2.0, per).to_json_dict()
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
