import math

import pytest
from hypothesis import given, strategies as st

from playnet import LinearStyle, StyleClass

weights = st.integers(min_value=0, max_value=1000)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
risks = st.integers(min_value=0, max_value=10)


@st.composite
def styles(draw):
    x = draw(weights)
    y = draw(weights)
    if x == 0 and y == 0:
        y = 1
    return LinearStyle(x, y)


def test_evaluate_balanced_midpoint():
    assert LinearStyle(1, 1).evaluate(0.5, 5) == 10.0


def test_evaluate_zero_risk_weight():
    assert LinearStyle(3, 0).evaluate(1.0, 10) == 30.0


def test_evaluate_matches_hand_expansion():
    # recomputed by hand-expanded arithmetic, same operation order
    expected = 2 * (10.0 * 0.73) + 5 * 4
    assert LinearStyle(2, 5).evaluate(0.73, 4) == expected
    assert expected == pytest.approx(34.6)


@given(styles(), probabilities, risks, st.integers(min_value=1, max_value=100))
def test_evaluate_scales_linearly(style, p, r, c):
    scaled = LinearStyle(c * style.x, c * style.y)
    assert math.isclose(
        scaled.evaluate(p, r), c * style.evaluate(p, r), rel_tol=1e-12, abs_tol=1e-12
    )


@given(styles(), probabilities, probabilities, risks)
def test_evaluate_monotone_in_p(style, p1, p2, r):
    lo, hi = sorted((p1, p2))
    assert style.evaluate(lo, r) <= style.evaluate(hi, r)


@given(styles(), probabilities, risks, risks)
def test_evaluate_monotone_in_r(style, p, r1, r2):
    lo, hi = sorted((r1, r2))
    assert style.evaluate(p, lo) <= style.evaluate(p, hi)


@pytest.mark.parametrize(
    "p, r",
    [(-0.1, 5), (1.1, 5), (1.5, 5), (0.5, -1), (0.5, 11), (0.5, 2.5), pytest.param(10**400, 5, id="huge-5"),
     (math.nan, 5), (True, 5), (0.5, True)],
)
def test_evaluate_rejects_out_of_range(p, r):
    with pytest.raises(ValueError):
        LinearStyle(1, 1).evaluate(p, r)


@pytest.mark.parametrize(
    "x, y, imp",
    [(1, 1, (0.5, 0.5)), (3, 1, (0.75, 0.25)), (0, 4, (0.0, 1.0))],
)
def test_importance_examples(x, y, imp):
    assert LinearStyle(x, y).importance() == imp


@given(styles())
def test_importance_sums_to_one(style):
    imp_p, imp_r = style.importance()
    assert 0.0 <= imp_p <= 1.0
    assert 0.0 <= imp_r <= 1.0
    assert abs(imp_p + imp_r - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "x, y, cls",
    [
        (3, 1, StyleClass.POSSESSION),
        (1, 3, StyleClass.DIRECT),
        (2, 2, StyleClass.BALANCED),
    ],
)
def test_classify_examples(x, y, cls):
    assert LinearStyle(x, y).classify() is cls


@given(styles())
def test_classify_swap(style):
    if style.x == style.y:
        assert style.classify() is StyleClass.BALANCED
    else:
        swapped = LinearStyle(style.y, style.x)
        assert (style.classify() is StyleClass.POSSESSION) == (
            swapped.classify() is StyleClass.DIRECT
        )


@pytest.mark.parametrize(
    "x, y", [(-1, 2), (2, -1), (0, 0), pytest.param(10**400, 1, id="huge-1"), (1, True)]
)
def test_invalid_weights(x, y):
    with pytest.raises(ValueError):
        LinearStyle(x, y)


def test_weights_must_be_integers():
    with pytest.raises(ValueError):
        LinearStyle(1.5, 1)


def test_large_finite_weights_are_accepted():
    # a weight whose top score stays a float is accepted; a weight of 10**23 scores like 1e23
    style = LinearStyle.parse("100000000000000000000000:1")
    assert style.evaluate(0.5, 3) == 1e23 * 5.0 + 3


@pytest.mark.parametrize(
    "x, y",
    [(10**308, 1), (1, 10**308), (2 * 10**307, 0), (0, 2 * 10**307), (10**308, 10**308)],
    ids=["1e308-1", "1-1e308", "2e307-0", "0-2e307", "1e308-1e308"],
)
def test_weights_whose_top_score_overflows_are_rejected(x, y):
    # 10**308 is a float, but 10**308 * 10.0 is inf and 10**308 * 10 is no float
    with pytest.raises(ValueError, match="score too large for a float"):
        LinearStyle(x, y)


@pytest.mark.parametrize("text", ["9" * 5000 + ":1", "1:" + "9" * 5000], ids=["x", "y"])
def test_a_weight_past_the_digit_limit_is_too_large_for_a_float(text):
    # int() would raise its own message, which names no style and differs between interpreters
    with pytest.raises(ValueError) as err:
        LinearStyle.parse(text)
    assert str(err.value) == "style weights x and y give a score too large for a float"


def test_leading_zeros_do_not_count_toward_the_digit_limit():
    assert LinearStyle.parse("0" * 5000 + "3:" + "0" * 5000) == LinearStyle(3, 0)


_NEAR_FLOAT_MAX = st.one_of(
    st.integers(0, 10),
    st.integers(10**306, 10**308),
    st.sampled_from([int(1.7976931348623157e308 / 10), int(1.7976931348623157e308 / 10) + 10**292]),
)


@given(x=_NEAR_FLOAT_MAX, y=_NEAR_FLOAT_MAX, p=probabilities, r=risks)
def test_weights_are_accepted_iff_every_score_is_finite(x, y, p, r):
    try:
        top = x * 10.0 + y * 10
    except OverflowError:
        top = math.inf
    if x == y == 0:
        return
    if math.isfinite(top):
        assert math.isfinite(LinearStyle(x, y).evaluate(p, r))
    else:
        with pytest.raises(ValueError):
            LinearStyle(x, y)


def test_parse_round_trip():
    style = LinearStyle.parse("3:1")
    assert style == LinearStyle(3, 1)
    assert str(style) == "3:1"


@pytest.mark.parametrize(
    "text",
    [
        "3", "3:1:2", "a:b", "-1:2", "2:-1", "0:0", "1.5:2", pytest.param("1" + "0" * 400 + ":1", id="huge:1"),
        # int() accepts each of these weights, parse does not
        "3_0:1", "+3:1", "3:+1", " 3 : 1 ", "3:1\n", "\u0663:1", "3:\uff11", ":1", "3:",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        LinearStyle.parse(text)

