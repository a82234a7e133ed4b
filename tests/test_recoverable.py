"""Recoverable ECDSA used to authenticate secret shares."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mokka import crypto, curve


@pytest.fixture(scope="module")
def kp():
    return crypto.keygen(b"recoverable-signer")


def test_recovery_round_trip(kp):
    sig = crypto.sign_recoverable(kp, b"hello")
    assert crypto.recover_pubkey(b"hello", sig) == kp.public


def test_wrong_message_recovers_other_key(kp):
    sig = crypto.sign_recoverable(kp, b"message-one")
    recovered = crypto.recover_pubkey(b"message-two", sig)
    assert recovered != kp.public


def test_deterministic(kp):
    assert crypto.sign_recoverable(kp, b"m") == crypto.sign_recoverable(kp, b"m")


def test_tampered_signature_not_in_keyring(kp, cluster3):
    _, keyring = cluster3
    sig = crypto.sign_recoverable(kp, b"m")
    tampered = replace(sig, s=(sig.s + 1) % curve.N)
    try:
        recovered = crypto.recover_pubkey(b"m", tampered)
    except crypto.CryptoError:
        return
    assert recovered not in [pub for _, pub in keyring.node_keys]


@pytest.mark.parametrize("bad_r,bad_s", [(0, 1), (1, 0), (curve.N, 1), (1, curve.N)])
def test_out_of_range_values_rejected(bad_r, bad_s):
    sig = crypto.RecoverableSignature(bad_r, bad_s, 0)
    with pytest.raises(crypto.CryptoError, match="invalid signature encoding"):
        crypto.recover_pubkey(b"m", sig)


def test_bad_hint_rejected(kp):
    sig = crypto.sign_recoverable(kp, b"m")
    with pytest.raises(crypto.CryptoError):
        crypto.recover_pubkey(b"m", replace(sig, recovery_hint=7))


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=2**32))
def test_round_trip_property(message, seed):
    signer = crypto.keygen(seed.to_bytes(5, "big") + b"!")
    sig = crypto.sign_recoverable(signer, message)
    assert crypto.recover_pubkey(message, sig) == signer.public


KEYS = [crypto.keygen(b"recoverable-%d" % i) for i in range(3)]

# Signature variants, given the signature and a random scalar.
TAMPER = {
    "honest": lambda sig, x: sig,
    "hint^1": lambda sig, x: replace(sig, recovery_hint=sig.recovery_hint ^ 1),
    "hint^2": lambda sig, x: replace(sig, recovery_hint=sig.recovery_hint ^ 2),
    "hint 7": lambda sig, x: replace(sig, recovery_hint=7),
    "s+1": lambda sig, x: replace(sig, s=(sig.s + 1) % curve.N),
    "N-s": lambda sig, x: replace(sig, s=curve.N - sig.s),
    "s=0": lambda sig, x: replace(sig, s=0),
    "r+1": lambda sig, x: replace(sig, r=sig.r + 1),
    "r=0": lambda sig, x: replace(sig, r=0),
    "random r": lambda sig, x: replace(sig, r=x),
}


def _recovers(public, message, sig):
    try:
        return crypto.recover_pubkey(message, sig) == public
    except crypto.CryptoError:
        return False


@settings(max_examples=60, deadline=None)
@given(
    st.binary(min_size=1, max_size=64),
    st.integers(min_value=0, max_value=len(KEYS) - 1),
    st.integers(min_value=1, max_value=len(KEYS) - 1),
    st.sampled_from(sorted(TAMPER)),
    st.integers(min_value=1, max_value=curve.N - 1),
)
@example(b"m", 0, 1, "honest", 1)
def test_verify_agrees_with_recovery(message, signer, offset, tamper, x):
    sig = TAMPER[tamper](crypto.sign_recoverable(KEYS[signer], message), x)
    for key in (KEYS[signer], KEYS[(signer + offset) % len(KEYS)]):
        assert crypto.verify_recoverable(key.public, message, sig) == _recovers(
            key.public, message, sig
        )
    if tamper == "honest":
        assert crypto.verify_recoverable(KEYS[signer].public, message, sig)
