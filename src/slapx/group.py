"""The prime-order group secp256k1, the one curve the stack uses.

The curve is a property of this module: its parameters and byte widths are
module constants and `CURVE` is the only `Group` object, so no caller
passes a group around. Scalars are plain ints in [0, ORDER); points are
immutable GroupElement values with a fixed-width compressed serialization
(1 + field bytes; the identity encodes as all zeros). The cofactor is 1, so
every curve point lies in the prime-order group.

`mul` and `muladd` share one kernel, after libsecp256k1's `ecmult`. Each
scalar is split by the GLV endomorphism (Gallant, Lambert and Vanstone,
CRYPTO 2001) into two ~128-bit halves, and each half is added in from its
base's table, which `mul` and `muladd` accept wherever they accept a point.
There are two kinds of table:

- A base that lives for the whole deployment has a `CombTable` (the fixed-
  base comb of Brickell, Gordon, McCurley and Wilson, EUROCRYPT '92): the
  affine points d*2^(w*j)*P for 0 < d <= 2^(w-1) and every row j a GLV half
  needs. Each half is recoded in signed radix 2^w and adds one entry per
  nonzero digit, with no doubling at all. The generator's, at w = 8
  (17 rows of 128 points, 136 KiB), is built once at import; each ring
  key's, at w = 5 (26 rows of 16 points, 26 KiB), is built by
  `rlrs_extract` with `Group.comb`. Each table is one `bytes` buffer of
  32-byte x || 32-byte y entries.
- Any other base has a `PointTable` of its odd multiples and their
  endomorphism images (8 + 8 points at w = 5), built by `Group.table`; its
  halves are recoded in width-w NAF and run one interleaved (Straus) loop of
  ~128 Jacobian doublings that adds the entries by mixed addition. A caller
  that multiplies one base several times builds its table once.

A product's comb entries are added into the Straus loop's accumulator after
the loop. The kernel is variable-time.
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

# The endomorphism (x, y) -> (BETA*x, y) multiplies each point by LAMBDA;
# both are cube roots of unity (mod FIELD_P and mod ORDER).
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# a short basis (A1, B1), (A2, B2) of {(u, v) : u + LAMBDA*v = 0 mod ORDER}
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1

WINDOW = 5          # wNAF width of a PointTable: 8 + 8 points
G_COMB_WIDTH = 8    # comb width of the generator's table: 17 rows of 128 points
COMB_WIDTH = 5      # comb width of any other base's: 26 rows of 16 points
# |k1|, |k2| < 2^129 (see _split), and signed radix-2^w digits of such a
# half fill at most ceil(130 / w) rows
_HALF_BITS = 130


@dataclass(frozen=True, slots=True)
class GroupElement:
    """Immutable curve point; None coordinates represent the identity."""
    x: int | None
    y: int | None

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def to_bytes(self) -> bytes:
        if self.is_identity:
            return b"\x00" * ELEMENT_BYTES
        prefix = 0x02 | (self.y & 1)
        return bytes([prefix]) + self.x.to_bytes(FE_BYTES, "big")

    def __repr__(self):
        return f"GroupElement({'identity' if self.is_identity else hex(self.x)[:12]}...)"


@dataclass(frozen=True, slots=True)
class PointTable:
    """The affine odd multiples d*P, 0 < d < 2^(width-1), of one base P (in
    `odd`) and their endomorphism images d*LAMBDA*P (in `lam`), indexed by
    signed digit: entry d is d*P and entry -d its negation. Never mutated
    once built, so threads may share one."""
    point: GroupElement
    width: int
    odd: tuple
    lam: tuple


@dataclass(frozen=True, slots=True)
class CombTable:
    """The affine points d*2^(width*j)*P, 0 < d <= 2^(width-1), of one base
    P, for the rows = ceil(130 / width) rows j a GLV half needs; the
    endomorphism images are not stored but formed on use (x -> BETA*x).
    Entry (j, d) is the 64 bytes x || y at ((d - 1) * rows + j) * 64 of
    `entries`. Never mutated once built, so threads may share one."""
    point: GroupElement
    width: int
    entries: bytes


class Group:
    """The curve's arithmetic; `CURVE` below is its one instance."""

    order = ORDER
    generator = GroupElement(
        0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8)
    identity = GroupElement(None, None)

    def table(self, P: GroupElement) -> PointTable | CombTable:
        """P's table for `mul` and `muladd`. The generator's is its comb
        table, built once at import; any other base's is a `PointTable`
        built here, for the caller to keep for as long as it multiplies
        that base."""
        if P == self.generator:
            return _G_COMB
        return _build_table(P, WINDOW)

    def comb(self, P: GroupElement) -> CombTable:
        """P's comb table, for a base that lives for the whole deployment:
        it costs more to build than `table`'s, and its products run no
        doubling. The generator's is the one built at import."""
        if P == self.generator:
            return _G_COMB
        return _build_comb(P, COMB_WIDTH)

    def mul(self, P: GroupElement | PointTable | CombTable,
            k: int) -> GroupElement:
        return self._straus(((k, P),))

    def muladd(self, a: int, P: GroupElement | PointTable | CombTable,
               b: int, Q: GroupElement | PointTable | CombTable) -> GroupElement:
        """a*P + b*Q."""
        return self._straus(((a, P), (b, Q)))

    def _straus(self, terms) -> GroupElement:
        """The sum of k*P over the (k, P) terms. Each scalar is split into
        two GLV halves. A `PointTable` base's halves are recoded in width-w
        NAF, and one interleaved loop of ~128 doublings adds the digits'
        table entries; a `CombTable` base's entries are added after it."""
        steps: dict[int, list] = {}
        comb: list = []
        for k, base in terms:
            k %= ORDER
            if not k:
                continue
            table = (base if isinstance(base, (PointTable, CombTable))
                     else self.table(base))
            if table.point.is_identity:
                continue
            if isinstance(table, CombTable):
                _comb_entries(k, table, comb)
            else:
                k1, k2 = _split(k)
                _schedule(k1, table.odd, table.width, steps)
                _schedule(k2, table.lam, table.width, steps)
        X, Y, Z = 0, 1, 0
        for i in range(max(steps, default=-1), -1, -1):
            if Z:
                X, Y, Z = _double(X, Y, Z)
            for x2, y2 in steps.get(i, ()):
                X, Y, Z = _madd(X, Y, Z, x2, y2)
        for x2, y2 in comb:
            X, Y, Z = _madd(X, Y, Z, x2, y2)
        if not Z:
            return self.identity
        zinv = pow(Z, -1, FIELD_P)
        zinv2 = zinv * zinv % FIELD_P
        return GroupElement(X * zinv2 % FIELD_P, Y * zinv2 * zinv % FIELD_P)

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


# -- the kernel's parts ---------------------------------------------------

def _split(k: int) -> tuple[int, int]:
    """(k1, k2) with k = k1 + LAMBDA*k2 (mod ORDER) and |k1|, |k2| < 2^129,
    by rounding k's coordinates in the basis (A1, B1), (A2, B2)."""
    c1 = (_B2 * k + ORDER // 2) // ORDER
    c2 = (-_B1 * k + ORDER // 2) // ORDER
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _schedule(k: int, entries: tuple, width: int,
              steps: dict[int, list]) -> None:
    """Append to steps[i] the entry of each nonzero digit d_i of k's
    width-w NAF; k may be negative."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    i = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        i += zeros
        d = k & mask
        if d >= half:
            d -= mask + 1
        steps.setdefault(i, []).append(entries[d])
        k = (k - d) >> width    # k - d ends in `width` zero bits
        i += width


def _double(X1: int, Y1: int, Z1: int) -> tuple[int, int, int]:
    # Jacobian doubling for a = 0. No point has order two, so Y1 = 0 only
    # at the identity, where Z3 = 2 Y1 Z1 stays 0.
    p = FIELD_P
    B = Y1 * Y1 % p
    D = 4 * X1 * B % p
    E = 3 * X1 * X1 % p
    X3 = (E * E - 2 * D) % p
    return X3, (E * (D - X3) - 8 * B * B) % p, 2 * Y1 * Z1 % p


def _madd(X1: int, Y1: int, Z1: int, x2: int, y2: int) -> tuple[int, int, int]:
    """(X1:Y1:Z1) + (x2, y2): EFD madd-2007-bl, with Z3 = 2 Z1 H."""
    p = FIELD_P
    if not Z1:
        return x2, y2, 1
    Z1Z1 = Z1 * Z1 % p
    H = (x2 * Z1Z1 - X1) % p
    r = 2 * (y2 * Z1 * Z1Z1 - Y1) % p
    if not H:   # equal x: the points are equal or opposite
        return _double(X1, Y1, Z1) if not r else (0, 1, 0)
    I = 4 * H * H % p
    J = H * I % p
    V = X1 * I % p
    X3 = (r * r - J - 2 * V) % p
    return X3, (r * (V - X3) - 2 * Y1 * J) % p, 2 * Z1 * H % p


def _comb_entries(k: int, table: CombTable, out: list) -> None:
    """Append to out the affine entries of `table` that sum to k*P, for
    0 < k < ORDER: one per nonzero signed radix-2^w digit of either GLV
    half, negated (y -> p - y) when the digit and the half differ in sign,
    with x -> BETA*x for the LAMBDA half."""
    p = FIELD_P
    width, buf = table.width, table.entries
    mask, half = (1 << width) - 1, 1 << (width - 1)
    column = len(buf) // half           # bytes per column
    for k, lam in zip(_split(k), (False, True)):
        negative = k < 0
        k = abs(k)
        row = 0                         # the digit's row, in bytes
        while k:
            d = k & mask
            k >>= width
            if d > half:                # digits run over (-half, half]
                d -= mask + 1
                k += 1
            if d:
                e = (abs(d) - 1) * column + row
                x = int.from_bytes(buf[e:e + FE_BYTES], "big")
                y = int.from_bytes(buf[e + FE_BYTES:e + 2 * FE_BYTES], "big")
                out.append((BETA * x % p if lam else x,
                            p - y if (d < 0) != negative else y))
            row += 2 * FE_BYTES


def _batch_inverse(values: list[int]) -> list[int]:
    """The inverses mod FIELD_P of nonzero values, with one field inversion
    (Montgomery's trick)."""
    p = FIELD_P
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(values)
    for j in range(len(values) - 1, -1, -1):
        out[j] = inv * prefix[j] % p
        inv = inv * values[j] % p
    return out


def _affine(jac: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Jacobian points, none the identity, made affine with one inversion."""
    p = FIELD_P
    out = []
    for (X, Y, _), zinv in zip(jac, _batch_inverse([Z for _, _, Z in jac])):
        zinv2 = zinv * zinv % p
        out.append((X * zinv2 % p, Y * zinv2 * zinv % p))
    return out


def _chord(x1: int, y1: int, x2: int, s: int) -> tuple[int, int]:
    """(x1, y1) + (x2, y2) in affine form, given the slope s of the line
    through them (the tangent when the points are equal)."""
    p = FIELD_P
    x3 = (s * s - x1 - x2) % p
    return x3, (s * (x1 - x3) - y1) % p


def _build_table(P: GroupElement, width: int) -> PointTable:
    """P, 3P, ..., by mixed additions of 2P, made affine with one batched
    inversion."""
    if P.is_identity:
        return PointTable(P, width, (), ())
    p = FIELD_P
    x, y = P.x, P.y
    # 2P, by the tangent's slope at P
    x2, y2 = _chord(x, y, x, 3 * x * x * pow(2 * y, -1, p) % p)
    jac = [(x, y, 1)]
    for _ in range((1 << (width - 2)) - 1):
        jac.append(_madd(*jac[-1], x2, y2))
    odd = [None] * (1 << width)
    lam = [None] * (1 << width)
    for j, (ax, ay) in enumerate(_affine(jac)):
        bx = BETA * ax % p
        d = 2 * j + 1
        odd[d], odd[-d] = (ax, ay), (ax, p - ay)
        lam[d], lam[-d] = (bx, ay), (bx, p - ay)
    return PointTable(P, width, tuple(odd), tuple(lam))


def _build_comb(P: GroupElement, width: int) -> CombTable:
    """The row bases B_j = 2^(width*j)*P by Jacobian doublings, made affine
    with one inversion; then each column d*B_j, d = 2, 3, ..., as column
    d - 1 plus the row bases, by affine additions with one batched
    inversion per column."""
    if P.is_identity:
        return CombTable(P, width, b"")
    rows = -(-_HALF_BITS // width)
    jac = [(P.x, P.y, 1)]
    for _ in range(rows - 1):
        X, Y, Z = jac[-1]
        for _ in range(width):
            X, Y, Z = _double(X, Y, Z)
        jac.append((X, Y, Z))
    bases = column = _affine(jac)
    entries = bytearray(_packed(column))
    for d in range(2, (1 << (width - 1)) + 1):
        if d == 2:      # B + B: the tangent's slope 3x^2 / 2y
            nums = [3 * x * x for x, _ in column]
            dens = [2 * y for _, y in column]
        else:           # (d-1)B + B, where (d-1)B != +-B
            nums = [by - y for (_, y), (_, by) in zip(column, bases)]
            dens = [bx - x for (x, _), (bx, _) in zip(column, bases)]
        column = [_chord(x, y, bx, num * inv % FIELD_P)
                  for (x, y), (bx, _), num, inv
                  in zip(column, bases, nums, _batch_inverse(dens))]
        entries += _packed(column)
    return CombTable(P, width, bytes(entries))


def _packed(points: list[tuple[int, int]]) -> bytes:
    return b"".join(x.to_bytes(FE_BYTES, "big") + y.to_bytes(FE_BYTES, "big")
                    for x, y in points)


_G_COMB = _build_comb(Group.generator, G_COMB_WIDTH)


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


def sgn_verify(pk: GroupElement | PointTable | CombTable, msg: bytes,
               sig: bytes) -> bool:
    """Check sig on msg under pk. A verifier of one fixed key passes the
    key's table, built once, instead of the bare point."""
    if len(sig) != 16 + SCALAR_BYTES:
        return False
    c = int.from_bytes(sig[:16], "big")
    try:
        s = CURVE.scalar_from_bytes(sig[16:])
    except CryptoError:
        return False
    point = pk.point if isinstance(pk, (PointTable, CombTable)) else pk
    # R = g^s * pk^-c, then the challenge must recompute
    R = CURVE.muladd(s, CURVE.generator, (-c) % ORDER, pk)
    return c == H_int("sgn", R.to_bytes(), point.to_bytes(), msg) >> 128
