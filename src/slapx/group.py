"""The prime-order group secp256k1, the one curve the stack uses.

The curve is a property of this module: its parameters and byte widths are
module constants and `CURVE` is the only `Group` object, so no caller
passes a group around. Scalars are plain ints in [0, ORDER); points are
immutable GroupElement values with a fixed-width compressed serialization
(1 + field bytes; the identity encodes as all zeros). Scalar
multiplication uses Jacobian coordinates and the a = 0 doubling formula.
The cofactor is 1, so every curve point lies in the prime-order group.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CryptoError
from .hashes import H_int, H_tagged
from .rng import SeededRng


# y^2 = x^3 + CURVE_B mod FIELD_P, a group of prime order ORDER
FIELD_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
CURVE_B = 7
ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
FE_BYTES = 32
ELEMENT_BYTES = 1 + FE_BYTES    # compressed point
SCALAR_BYTES = 32


@dataclass(frozen=True, slots=True)
class GroupElement:
    """Immutable curve point; None coordinates represent the identity."""
    x: int | None
    y: int | None

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def add(self, other: "GroupElement") -> "GroupElement":
        return CURVE.add(self, other)

    def mul(self, k: int) -> "GroupElement":
        return CURVE.mul(self, k)

    def neg(self) -> "GroupElement":
        if self.is_identity:
            return self
        return GroupElement(self.x, (-self.y) % FIELD_P)

    def to_bytes(self) -> bytes:
        if self.is_identity:
            return b"\x00" * ELEMENT_BYTES
        prefix = 0x02 | (self.y & 1)
        return bytes([prefix]) + self.x.to_bytes(FE_BYTES, "big")

    def __repr__(self):
        return f"GroupElement({'identity' if self.is_identity else hex(self.x)[:12]}...)"


class Group:
    """The curve's arithmetic; `CURVE` below is its one instance."""

    order = ORDER
    generator = GroupElement(
        0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8)
    identity = GroupElement(None, None)

    # -- affine/Jacobian arithmetic ------------------------------------

    def _jac_double(self, P):
        # EFD dbl-2009-l (a = 0). No point has order two, so Y1 = 0 only
        # at the identity, where Z3 = 2 Y1 Z1 stays 0.
        X1, Y1, Z1 = P
        p = FIELD_P
        A = (X1 * X1) % p
        B = (Y1 * Y1) % p
        C = (B * B) % p
        D = (2 * ((X1 + B) * (X1 + B) - A - C)) % p
        E = (3 * A) % p
        X3 = (E * E - 2 * D) % p
        Y3 = (E * (D - X3) - 8 * C) % p
        Z3 = (2 * Y1 * Z1) % p
        return (X3, Y3, Z3)

    def _jac_add(self, P, Q):
        p = FIELD_P
        X1, Y1, Z1 = P
        X2, Y2, Z2 = Q
        if Z1 == 0:
            return Q
        if Z2 == 0:
            return P
        Z1s = (Z1 * Z1) % p
        Z2s = (Z2 * Z2) % p
        U1 = (X1 * Z2s) % p
        U2 = (X2 * Z1s) % p
        S1 = (Y1 * Z2s * Z2) % p
        S2 = (Y2 * Z1s * Z1) % p
        if U1 == U2:
            if S1 != S2:
                return (0, 1, 0)
            return self._jac_double(P)
        Hh = (U2 - U1) % p
        I = (4 * Hh * Hh) % p
        J = (Hh * I) % p
        r = (2 * (S2 - S1)) % p
        V = (U1 * I) % p
        X3 = (r * r - J - 2 * V) % p
        Y3 = (r * (V - X3) - 2 * S1 * J) % p
        Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1s - Z2s) % p
        Z3 = (Z3 * Hh) % p
        return (X3, Y3, Z3)

    def _to_jac(self, P: GroupElement):
        if P.is_identity:
            return (0, 1, 0)
        return (P.x, P.y, 1)

    def _from_jac(self, P) -> GroupElement:
        X, Y, Z = P
        if Z == 0:
            return self.identity
        p = FIELD_P
        zinv = pow(Z, p - 2, p)
        zinv2 = (zinv * zinv) % p
        return GroupElement((X * zinv2) % p, (Y * zinv2 * zinv) % p)

    def add(self, P: GroupElement, Q: GroupElement) -> GroupElement:
        return self._from_jac(self._jac_add(self._to_jac(P), self._to_jac(Q)))

    def _ladder(self, a: int, P: GroupElement, b: int, Q: GroupElement) -> GroupElement:
        """a*P + b*Q by one interleaved (Shamir) double-and-add pass."""
        a %= self.order
        b %= self.order
        jp, jq = self._to_jac(P), self._to_jac(Q)
        # bit pair (a_i, b_i) -> the addend for that step
        table = {"10": jp, "01": jq, "11": self._jac_add(jp, jq)}
        width = max(a.bit_length(), b.bit_length())
        acc = (0, 1, 0)
        for bits in map("".join, zip(f"{a:0{width}b}", f"{b:0{width}b}")):
            acc = self._jac_double(acc)
            if bits != "00":
                acc = self._jac_add(acc, table[bits])
        return self._from_jac(acc)

    def mul(self, P: GroupElement, k: int) -> GroupElement:
        return self._ladder(k, P, 0, self.identity)

    def muladd(self, a: int, P: GroupElement, b: int, Q: GroupElement) -> GroupElement:
        """a*P + b*Q."""
        return self._ladder(a, P, b, Q)

    # -- encoding ------------------------------------------------------

    def from_bytes(self, data: bytes) -> GroupElement:
        if len(data) != ELEMENT_BYTES:
            raise CryptoError("bad element length")
        if data == b"\x00" * len(data):
            return self.identity
        prefix, xb = data[0], data[1:]
        if prefix not in (2, 3):
            raise CryptoError("bad element prefix")
        x = int.from_bytes(xb, "big")
        if x >= FIELD_P:
            raise CryptoError("x out of range")
        point = self._lift_x(x, prefix & 1)
        if point is None:
            raise CryptoError("point not on curve")
        return point

    def _lift_x(self, x: int, odd: int) -> GroupElement | None:
        """The point (x, y) with y of this parity; None if x^3 + b is not a square."""
        p = FIELD_P
        y2 = (pow(x, 3, p) + CURVE_B) % p
        y = pow(y2, (p + 1) // 4, p)  # p is 3 mod 4
        if (y * y) % p != y2:
            return None
        return GroupElement(x, y if (y & 1) == odd else p - y)

    def random_scalar(self, rng: SeededRng) -> int:
        while True:
            k = rng.randint_bits(self.order.bit_length())
            if 0 < k < self.order:
                return k

    def scalar_to_bytes(self, k: int) -> bytes:
        if not 0 <= k < self.order:
            raise CryptoError("scalar out of range")
        return k.to_bytes(SCALAR_BYTES, "big")

    def scalar_from_bytes(self, data: bytes) -> int:
        if len(data) != SCALAR_BYTES:
            raise CryptoError("bad scalar length")
        k = int.from_bytes(data, "big")
        if k >= self.order:
            raise CryptoError("scalar out of range")
        return k

    def hash_to_point(self, tag: str, msg: bytes) -> GroupElement:
        """Deterministic try-and-increment mapping onto the curve."""
        for ctr in itertools.count():
            digest = H_tagged("h2p/" + tag, msg, ctr.to_bytes(4, "big"))
            point = self._lift_x(int.from_bytes(digest, "big") % FIELD_P,
                                 digest[0] & 1)
            if point is not None:
                return point

    def hash_to_scalar(self, tag: str, *parts: bytes) -> int:
        return H_int(tag, *parts) % self.order


CURVE = Group()


# -- plain discrete-log signatures (used for puzzle issuance and
#    delegation-key certificates) -------------------------------------

class SigningKey:
    def __init__(self, sk: int):
        self.sk = sk
        self.pk = CURVE.mul(CURVE.generator, sk)

    @classmethod
    def generate(cls, rng: SeededRng) -> "SigningKey":
        return cls(CURVE.random_scalar(rng))

    def sign(self, msg: bytes, rng: SeededRng) -> bytes:
        """Compact challenge-form signature: c (16 bytes) || s (scalar)."""
        k = CURVE.random_scalar(rng)
        R = CURVE.mul(CURVE.generator, k)
        c = H_int("sgn", R.to_bytes(), self.pk.to_bytes(), msg) >> 128
        s = (k + c * self.sk) % ORDER
        return c.to_bytes(16, "big") + CURVE.scalar_to_bytes(s)


def sgn_verify(pk: GroupElement, msg: bytes, sig: bytes) -> bool:
    if len(sig) != 16 + SCALAR_BYTES:
        return False
    c = int.from_bytes(sig[:16], "big")
    try:
        s = CURVE.scalar_from_bytes(sig[16:])
    except CryptoError:
        return False
    # R = g^s * pk^-c, then the challenge must recompute
    R = CURVE.muladd(s, CURVE.generator, (-c) % ORDER, pk)
    return c == H_int("sgn", R.to_bytes(), pk.to_bytes(), msg) >> 128
