"""Game-style scoring of pass options.

A style ranks a candidate pass by combining its completion probability p
(scaled to 0..10) with the receiver risk r (already 0..10):

    score = x * 10p + y * r

for nonnegative integer weights (x, y), not both zero. The weight ratio
is the coach's statement of intent: x > y keeps the ball (possession
style), x < y chases danger (direct style), x = y is balanced.

This linear family is the only one: a DecisionPolicy takes a LinearStyle
and nothing else.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .network import RISK_MAX, check_int, check_unit


class StyleClass(enum.Enum):
    POSSESSION = "possession"
    DIRECT = "direct"
    BALANCED = "balanced"


@dataclass(frozen=True)
class LinearStyle:
    """Linear pass-scoring rule with pass weight x and risk weight y."""

    x: int
    y: int

    def __post_init__(self) -> None:
        check_int(self.x, "style weight x", 0)
        check_int(self.y, "style weight y", 0)
        if self.x + self.y == 0:
            raise ValueError("style weights x and y cannot both be zero")
        # the score is monotone in p and r, so it is finite everywhere iff it is at p=1, r=RISK_MAX
        try:
            top = self.x * 10.0 + self.y * RISK_MAX
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError("style weights x and y give a score too large for a float")

    def evaluate(self, p: float, r: int) -> float:
        """Score one pass option: x * 10p + y * r, after checking p and r.

        ranked_options computes the same expression inline, unchecked,
        on a network's values, which are in range.
        """
        return self.x * (10.0 * check_unit(p, "p")) + self.y * check_int(r, "r", 0, RISK_MAX)

    def importance(self) -> tuple[float, float]:
        """Relative weight of (p, r) in this style; the pair sums to 1."""
        total = self.x + self.y
        return (self.x / total, self.y / total)

    def classify(self) -> StyleClass:
        if self.x > self.y:
            return StyleClass.POSSESSION
        if self.x < self.y:
            return StyleClass.DIRECT
        return StyleClass.BALANCED

    @classmethod
    def parse(cls, text: str) -> LinearStyle:
        """Parse the "x:y" notation used on the command line and in manifests.

        Each weight is written in the ASCII digits 0-9 alone: no sign,
        underscore, space or other script's digit, all of which int()
        would accept. A weight past int()'s digit limit is far past the
        float range, and gets the message of any weight too large.
        """
        if not isinstance(text, str):
            raise ValueError(f"style {text!r} must be a string like '3:1'")
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"style {text!r} must look like 'x:y', e.g. '3:1'")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"style {text!r} must use integer weights written in the digits 0-9")
        try:
            x, y = (int(part.lstrip("0") or "0") for part in parts)
        except ValueError:  # past the digit limit, which leading zeros would count toward
            raise ValueError("style weights x and y give a score too large for a float") from None
        return cls(x, y)

    def __str__(self) -> str:
        return f"{self.x}:{self.y}"
