"""Normative byte encodings shared by hashing, proofs, and the CLI.

These layouts are wire-stable: group points are 33-byte compressed,
scalars and field elements 32-byte big-endian, combination bitmasks
8-byte little-endian, and the vote message is
``tag(1) || term(8 BE) || timestamp_ms(8 BE) || candidate(2 BE)``.
"""

import struct
from typing import Tuple

from . import curve
from .curve import Point

SCHEME_SCHNORR = 1
SCHEME_SSS = 2

_VOTE_MESSAGE = struct.Struct(">BQQH")  # the layout above
VOTE_MESSAGE_LEN = _VOTE_MESSAGE.size  # 1 + 8 + 8 + 2
MAX_TERM = 2**64 - 1  # the largest term the vote message's 8 bytes hold


class MalformedError(ValueError):
    """Raised when bytes do not decode to a well-formed value, or a value
    does not fit its encoding."""


def encode_uint(value: int, length: int, byteorder: str = "big") -> bytes:
    """value as length unsigned bytes; MalformedError when it does not fit."""
    try:
        return value.to_bytes(length, byteorder)
    except OverflowError:
        raise MalformedError(f"{value} does not fit in {length} bytes") from None


def encode_point(point: Point) -> bytes:
    """33-byte compressed form of an affine point, or of (x, y parity)."""
    if point is None:
        raise MalformedError("cannot encode the point at infinity")
    x, y = point
    return bytes([2 + (y & 1)]) + encode_uint(x, 32)


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
    return encode_uint(value, 32)


def decode_scalar(data: bytes) -> int:
    if len(data) != 32:
        raise MalformedError("bad scalar encoding")
    return int.from_bytes(data, "big")


def encode_combo_mask(mask: int) -> bytes:
    return encode_uint(mask, 8, "little")


def decode_combo_mask(data: bytes) -> int:
    if len(data) != 8:
        raise MalformedError("bad combo encoding")
    return int.from_bytes(data, "little")


def vote_message(scheme: int, term: int, timestamp_ms: int, candidate: int) -> bytes:
    """The message every vote signature commits to; MalformedError when a
    field does not fit."""
    return (
        encode_uint(scheme, 1)
        + encode_uint(term, 8)
        + encode_uint(timestamp_ms, 8)
        + encode_uint(candidate, 2)
    )


def decode_vote_message(data: bytes) -> Tuple[int, int, int, int]:
    """(scheme, term, timestamp_ms, candidate) from a vote message."""
    if len(data) != VOTE_MESSAGE_LEN:
        raise MalformedError("bad vote message encoding")
    return _VOTE_MESSAGE.unpack(data)
