"""Normative byte encodings shared by hashing, proofs, and the CLI.

These layouts are wire-stable: group points are 33-byte compressed,
scalars and field elements 32-byte big-endian, combination bitmasks
8-byte little-endian, and the vote message is
``tag(1) || term(8 BE) || timestamp_ms(8 BE) || candidate(2 BE)``.
"""

from typing import Tuple

from . import curve
from .curve import Point

SCHEME_SCHNORR = 1
SCHEME_SSS = 2

VOTE_MESSAGE_LEN = 1 + 8 + 8 + 2


class MalformedError(ValueError):
    """Raised when bytes do not decode to a well-formed value."""


def encode_point(point: Point) -> bytes:
    """33-byte compressed form of an affine point, or of (x, y parity)."""
    if point is None:
        raise MalformedError("cannot encode the point at infinity")
    x, y = point
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


def decode_x_parity(data: bytes) -> Tuple[int, bool]:
    """(x, y parity) of a compressed point, without checking that x is on
    the curve: that costs a square root."""
    if len(data) != 33 or data[0] not in (2, 3):
        raise MalformedError("bad point encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= curve.P:
        raise MalformedError("x out of range")
    return x, data[0] == 3


def decode_point(data: bytes) -> Point:
    x, y_odd = decode_x_parity(data)
    try:
        return curve.lift_x(x, y_odd)
    except ValueError as exc:
        raise MalformedError(str(exc)) from None


def encode_scalar(value: int) -> bytes:
    if not 0 <= value < 1 << 256:
        raise MalformedError("scalar out of range")
    return value.to_bytes(32, "big")


def decode_scalar(data: bytes) -> int:
    if len(data) != 32:
        raise MalformedError("bad scalar encoding")
    return int.from_bytes(data, "big")


def encode_combo_mask(mask: int) -> bytes:
    return mask.to_bytes(8, "little")


def decode_combo_mask(data: bytes) -> int:
    if len(data) != 8:
        raise MalformedError("bad combo encoding")
    return int.from_bytes(data, "little")


def vote_message(scheme: int, term: int, timestamp_ms: int, candidate: int) -> bytes:
    """The message every vote signature commits to."""
    return (
        bytes([scheme])
        + term.to_bytes(8, "big")
        + timestamp_ms.to_bytes(8, "big")
        + candidate.to_bytes(2, "big")
    )
