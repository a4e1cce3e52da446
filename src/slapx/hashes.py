"""Hash suite: domain-separated SHA-256, expansion, and hash-to-prime.

`hash_to_prime(m)` is next_prime(H(m)) for the SHA-256 digest H(m) < 2^256,
and a proven bound on prime gaps (Dusart 2018; see `PRIME_GAP_BOUND`) puts
it within 2^234 above H(m). So `may_be_next_prime` refuses any other
number outside that window exactly, with one subtraction and no search:
the VDF check (`vdf.vdf_verify`) runs it on a submitted ell before it
searches.
"""
from __future__ import annotations

import hashlib

from .modmath import next_prime


def H(*parts: bytes) -> bytes:
    """Domain-plain SHA-256 over length-prefixed parts (unambiguous)."""
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(4, "big"))
        h.update(p)
    return h.digest()


def H_tagged(tag: str, *parts: bytes) -> bytes:
    return H(tag.encode(), *parts)


def H_int(tag: str, *parts: bytes) -> int:
    return int.from_bytes(H_tagged(tag, *parts), "big")


def H_expand(tag: str, seed: bytes, n_bytes: int) -> bytes:
    """Counter-mode expansion of a seed to n_bytes."""
    out = bytearray()
    ctr = 0
    while len(out) < n_bytes:
        out += H_tagged(tag, seed, ctr.to_bytes(4, "big"))
        ctr += 1
    return bytes(out[:n_bytes])


def hash_to_prime_floor(m: bytes) -> int:
    """H(m) as an integer: `hash_to_prime(m)` is the least prime >= it."""
    return int.from_bytes(hashlib.sha256(m).digest(), "big")


# How far next_prime(h) can lie above a digest h < 2^256. Dusart, "Explicit
# estimates of some functions over primes", Ramanujan J. 45 (2018), Prop.
# 5.4: for x >= 89,693 there is a prime p with x < p <= x (1 + 1/ln^3 x).
# x / ln^3 x increases for x > e^3, so next_prime(h) - h <= 2^256 /
# (256 ln 2)^3 < 2^233.6; below 89,693 every prime gap is under 100.
PRIME_GAP_BOUND = 1 << 234


def may_be_next_prime(h: int, ell: int) -> bool:
    """Is ell in the window [h, h + PRIME_GAP_BOUND] that holds
    next_prime(h) for every h < 2^256? Outside it ell is not
    `hash_to_prime` of any m with `hash_to_prime_floor(m) == h`."""
    return 0 <= ell - h <= PRIME_GAP_BOUND


def hash_to_prime(m: bytes) -> int:
    """next-prime(H(m)): deterministic, always >= the digest value."""
    return next_prime(hash_to_prime_floor(m))


def int_sum_to_bytes(value: int) -> bytes:
    """Canonical big-endian encoding of a non-negative integer (for hashing
    integer sums whose width is not fixed)."""
    if value == 0:
        return b"\x00"
    return value.to_bytes((value.bit_length() + 7) // 8, "big")
