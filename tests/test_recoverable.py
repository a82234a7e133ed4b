"""Recoverable ECDSA used to authenticate secret shares."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mokka import crypto, curve


@pytest.fixture(scope="module")
def kp():
    return crypto.keygen(b"recoverable-signer")


def keyring_of(publics):
    """A keyring holding publics as nodes 0, 1, ..."""
    return crypto.build_keyring(list(enumerate(publics)))


@pytest.fixture(scope="module")
def kp_keyring(kp):
    """A keyring holding kp's key as node 0."""
    return keyring_of([kp.public] + [key.public for key in KEYS[1:]])


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
KEYRING = keyring_of([key.public for key in KEYS])

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
    nodes = (signer, (signer + offset) % len(KEYS))
    checks = [(node, message, sig) for node in nodes]
    verified = crypto.verify_recoverables(KEYRING, checks)
    assert verified == [_recovers(KEYS[node].public, message, sig) for node in nodes]
    if tamper == "honest":
        assert verified[0]


def test_unknown_signer_is_refused():
    sig = crypto.sign_recoverable(KEYS[0], b"m")
    checks = [(0, b"m", sig), (len(KEYS), b"m", sig)]
    assert crypto.verify_recoverables(KEYRING, checks) == [True, False]


def test_nonce_x_past_the_field_rejected(kp, kp_keyring):
    # hint >= 2 names x = r + N, which must stay below P.
    sig = crypto.sign_recoverable(kp, b"m")
    for r in (curve.P - curve.N, curve.N - 1):
        for hint in (2, 3):
            past = replace(sig, r=r, recovery_hint=hint)
            assert crypto.verify_recoverables(kp_keyring, [(0, b"m", past)]) == [False]
            with pytest.raises(crypto.CryptoError):
                crypto.recover_pubkey(b"m", past)


@pytest.mark.parametrize("tamper", ["hint^1", "N-s"])
def test_negated_nonce_point_rejected(kp, kp_keyring, tamper):
    # Q = (z/s)*G + (r/s)*X is the negation of the nonce point (r, hint)
    # names: same x, other parity.
    sig = TAMPER[tamper](crypto.sign_recoverable(kp, b"m"), None)
    s_inv = pow(sig.s, -1, curve.N)
    q = curve.point_add(
        curve.scalar_mult_base(crypto._message_digest(b"m") * s_inv),
        curve.scalar_mult(sig.r * s_inv, kp.public),
    )
    assert q == curve.point_neg(crypto._nonce_point(sig))
    assert crypto.verify_recoverables(kp_keyring, [(0, b"m", sig)]) == [False]
    assert not _recovers(kp.public, b"m", sig)


def test_nonce_x_above_the_group_order():
    # Signing almost never meets a nonce point with N <= x < P (hint >= 2),
    # so build one and take the key it recovers to.
    x = curve.N + 1
    while True:
        try:
            big_r = curve.lift_x(x, False)
            break
        except ValueError:
            x += 1
    sig = crypto.RecoverableSignature(x - curve.N, 12345, 2)
    public = crypto.recover_pubkey(b"m", sig)
    keyring = keyring_of([public] + [key.public for key in KEYS[1:]])
    others = [replace(sig, recovery_hint=hint) for hint in (0, 1, 3)]
    checks = [(0, b"m", each) for each in (sig, *others)]
    assert crypto.verify_recoverables(keyring, checks) == [True, False, False, False]
    for other in others:
        assert not _recovers(public, b"m", other)
