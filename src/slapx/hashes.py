"""Hash suite: domain-separated SHA-256, expansion, and hash-to-prime."""
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


def hash_to_prime(m: bytes) -> int:
    """next-prime(H(m)): deterministic, always >= the digest value."""
    return next_prime(hash_to_prime_floor(m))


def int_sum_to_bytes(value: int) -> bytes:
    """Canonical big-endian encoding of a non-negative integer (for hashing
    integer sums whose width is not fixed)."""
    if value == 0:
        return b"\x00"
    return value.to_bytes((value.bit_length() + 7) // 8, "big")
