"""Curve operations only the tests need, kept out of the package: a
membership check for points the package computes, and negation, for
building inputs such as keys that cancel or a negated nonce point."""

from typing import Optional

from mokka.curve import P, Point


def is_on_curve(point: Optional[Point]) -> bool:
    if point is None:
        return True
    x, y = point
    return (y * y - x * x * x - 7) % P == 0


def point_neg(point: Optional[Point]) -> Optional[Point]:
    if point is None:
        return None
    x, y = point
    return (x, (-y) % P)
