"""Event-oriented linkable ring signature with revocation of double-signers.

Construction: an AOS-style one-of-n discrete-log ring proof whose challenge
chain also binds a per-event link tag tau = u0^s, where u0 is derived by
hashing the event identifier onto the curve and s is the signer's secret.
Two signatures by one signer under one event therefore carry identical
tags; the issuer resolves a linked tag back to an identity by recomputing
u0^s(id) for the candidates in the ring intersection, and only then.

The ring is a fixed set of identities, all extracted at set-up:
`rlrs_extract` puts each public key's comb table (`Group.comb`) into
`RlrsParams.keys`, where signing and verification look it up. Each link
L_i = s_i*G + c_i*PK_i of the challenge chain then runs on two comb tables,
with no doubling; only R_i = s_i*u0 + c_i*tau, whose bases are new per
event, runs the doubling loop.

The wire encoding is a fixed 640-byte block (tag, ring size, challenge,
response scalars, zero padding) so message-size accounting is independent
of the ring size.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import wire
from .errors import CryptoError, ParameterError
from .group import (CURVE, ELEMENT_BYTES, ORDER, SCALAR_BYTES, CombTable,
                    GroupElement)
from .hashes import H_tagged
from .rng import SeededRng

SIGNATURE_BYTES = 640
# tau || u8 n || c1 || n scalars must fit the fixed block
MAX_RING = (SIGNATURE_BYTES - ELEMENT_BYTES - 1 - SCALAR_BYTES) // SCALAR_BYTES
_FINGERPRINT = H_tagged("rlrs/pp", b"secp256k1")  # bound by every challenge


@dataclass(frozen=True)
class EventId:
    """Scope of linkability: location, time-window index, beacon digest."""
    l_x: float
    l_y: float
    ts: int
    beacon_digest: bytes

    def encode(self) -> bytes:
        # fixed-width l_x || l_y || ts || hash(beacon); millimeter fixed point
        return (wire.encode_point(self.l_x, self.l_y)
                + self.ts.to_bytes(8, "big")
                + self.beacon_digest[:32].ljust(32, b"\x00"))

    @classmethod
    def decode(cls, data: bytes) -> "EventId":
        r = wire.Reader(data)
        l_x, l_y = wire.decode_point(r.take(16))
        event = cls(l_x, l_y, r.uint(8), r.take(32))
        r.end()
        return event


@dataclass(frozen=True)
class RlrsSignature:
    c1: int
    responses: tuple[int, ...]
    tau: GroupElement


class RlrsParams:
    def __init__(self):
        self.keys: dict[str, CombTable] = {}    # identity -> public key table

    def key_table(self, identity: str) -> CombTable:
        try:
            return self.keys[identity]
        except KeyError:
            raise CryptoError(f"unknown identity: {identity}") from None


def rlrs_setup(rng: SeededRng) -> tuple[bytes, RlrsParams]:
    return rng.bytes(32), RlrsParams()


def rlrs_extract(msk: bytes, identity: str, params: RlrsParams) -> int:
    """Deterministic per (msk, identity); fills params.keys[identity]."""
    if not identity:
        raise ParameterError("identity must be nonempty")
    s = _member_secret(msk, identity)
    params.keys[identity] = CURVE.comb(CURVE.mul(CURVE.generator, s))
    return s


def _member_secret(msk: bytes, identity: str) -> int:
    return CURVE.hash_to_scalar("rlrs/extract", msk, identity.encode()) or 1


def _ring_digest(ring: list[str]) -> bytes:
    return H_tagged("rlrs/ring", *[i.encode() for i in ring])


def _chain_challenge(ring_digest: bytes, m: bytes, event_enc: bytes,
                     tau: GroupElement, L: GroupElement, R: GroupElement) -> int:
    return CURVE.hash_to_scalar(
        "rlrs/chain", _FINGERPRINT, ring_digest, m, event_enc,
        tau.to_bytes(), L.to_bytes(), R.to_bytes())


def event_base(event: EventId) -> GroupElement:
    return CURVE.hash_to_point("rlrs/event", event.encode())


def _validate_ring(ring: list[str]) -> None:
    if not ring:
        raise CryptoError("empty ring")
    if len(ring) > MAX_RING:
        raise CryptoError(f"ring exceeds {MAX_RING} members")
    if len(set(ring)) != len(ring):
        raise CryptoError("duplicate ring member")


def rlrs_sign(sk: int, m: bytes, ring: list[str], event: EventId,
              params: RlrsParams, rng: SeededRng) -> RlrsSignature:
    _validate_ring(ring)
    own_pk = CURVE.mul(CURVE.generator, sk)
    keys = [params.key_table(i) for i in ring]
    try:
        signer = [key.point for key in keys].index(own_pk)
    except ValueError:
        raise CryptoError("signer not in ring") from None

    n = len(ring)
    u0 = CURVE.table(event_base(event))
    tau = CURVE.mul(u0, sk)
    tau_table = CURVE.table(tau)
    rd = _ring_digest(ring)
    ev = event.encode()

    c = [0] * n
    s_vals = [0] * n
    alpha = CURVE.random_scalar(rng)
    L = CURVE.mul(CURVE.generator, alpha)
    R = CURVE.mul(u0, alpha)
    c[(signer + 1) % n] = _chain_challenge(rd, m, ev, tau, L, R)
    idx = (signer + 1) % n
    while idx != signer:
        s_vals[idx] = CURVE.random_scalar(rng)
        L = CURVE.muladd(s_vals[idx], CURVE.generator, c[idx], keys[idx])
        R = CURVE.muladd(s_vals[idx], u0, c[idx], tau_table)
        c[(idx + 1) % n] = _chain_challenge(rd, m, ev, tau, L, R)
        idx = (idx + 1) % n
    s_vals[signer] = (alpha - c[signer] * sk) % ORDER
    return RlrsSignature(c1=c[0], responses=tuple(s_vals), tau=tau)


def rlrs_verify(ring: list[str], m: bytes, event: EventId,
                sig: RlrsSignature, params: RlrsParams) -> bool:
    try:
        _validate_ring(ring)
        keys = [params.key_table(i) for i in ring]
    except CryptoError:
        return False
    if len(sig.responses) != len(ring) or sig.tau.is_identity:
        return False
    # the tables of u0 and of the wire's tau live for this one verify
    u0 = CURVE.table(event_base(event))
    tau = CURVE.table(sig.tau)
    rd = _ring_digest(ring)
    ev = event.encode()
    c_i = sig.c1
    for i in range(len(ring)):
        L = CURVE.muladd(sig.responses[i], CURVE.generator, c_i, keys[i])
        R = CURVE.muladd(sig.responses[i], u0, c_i, tau)
        c_i = _chain_challenge(rd, m, ev, sig.tau, L, R)
    return c_i == sig.c1


def rlrs_link(ring_a: list[str], event: EventId, signed_a: tuple[bytes, RlrsSignature],
              ring_b: list[str], signed_b: tuple[bytes, RlrsSignature],
              params: RlrsParams) -> bool:
    """True iff both signatures verify under the event and share a tag."""
    m_a, sig_a = signed_a
    m_b, sig_b = signed_b
    if not rlrs_verify(ring_a, m_a, event, sig_a, params):
        raise CryptoError("first signature invalid")
    if not rlrs_verify(ring_b, m_b, event, sig_b, params):
        raise CryptoError("second signature invalid")
    return sig_a.tau == sig_b.tau


def rlrs_revoke(msk: bytes, event: EventId,
                ring_a: list[str], signed_a: tuple[bytes, RlrsSignature],
                ring_b: list[str], signed_b: tuple[bytes, RlrsSignature],
                params: RlrsParams) -> str | None:
    """Issuer-side identity extraction; non-None only for a linked pair.

    Resolves the shared tag against tags recomputed on demand for the ring
    intersection; returns None for unlinked inputs or an empty intersection.
    """
    try:
        linked = rlrs_link(ring_a, event, signed_a, ring_b, signed_b, params)
    except CryptoError:
        return None
    if not linked:
        return None
    tau = signed_a[1].tau
    u0 = CURVE.table(event_base(event))
    for identity in ring_a:
        if identity not in ring_b:
            continue
        if CURVE.mul(u0, _member_secret(msk, identity)) == tau:
            return identity
    return None


# -- fixed-size wire block ---------------------------------------------

def encode_signature(sig: RlrsSignature) -> bytes:
    out = bytearray()
    out += sig.tau.to_bytes()
    out += len(sig.responses).to_bytes(1, "big")
    out += CURVE.scalar_to_bytes(sig.c1)
    for s in sig.responses:
        out += CURVE.scalar_to_bytes(s)
    if len(out) > SIGNATURE_BYTES:
        raise CryptoError("ring too large for fixed signature block")
    return bytes(out) + b"\x00" * (SIGNATURE_BYTES - len(out))


def decode_signature(block: bytes) -> RlrsSignature:
    """Inverse of encode_signature; raises SlapxError on any other block."""
    if len(block) != SIGNATURE_BYTES:
        raise CryptoError("bad signature block length")
    r = wire.Reader(block)
    tau = CURVE.from_bytes(r.take(ELEMENT_BYTES))
    n = r.uint(1)
    c1 = CURVE.scalar_from_bytes(r.take(SCALAR_BYTES))
    responses = tuple(CURVE.scalar_from_bytes(r.take(SCALAR_BYTES))
                      for _ in range(n))
    if any(r.rest()):
        raise CryptoError("nonzero padding")
    return RlrsSignature(c1=c1, responses=responses, tau=tau)
