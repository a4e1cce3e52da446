"""Integer and modular arithmetic: primality testing, prime search, RSA moduli.

Miller-Rabin round policy. Every number that may come from an adversary
(`next_prime`, and through it `hash_to_prime`, and any caller that relies on
the default) gets `MR_ROUNDS` = 64 rounds with random bases, on top of trial
division by the primes below 256: any composite passes with probability at
most 4^-64 = 2^-128 over the bases. The contract only requires < 2^-64.

`random_prime` tests candidates it drew uniformly itself, and for those the
average case applies (Damgard, Landrock and Pomerance 1993, "Average case
error estimates for the strong probable prime test"; FIPS 186-5 Appendix
B.3). A random odd k-bit integer that passes t rounds is composite with
probability at most

    p(k, t) <= k^(3/2) * 2^t * t^(-1/2) * 4^(2 - sqrt(t*k)),

valid for k >= 21 and 3 <= t <= k/9. `random_prime_rounds` picks the least
valid t with p(k, t) <= 2^-129: forcing the top two bits of a candidate keeps
half of the k-bit integers, which can raise the error by at most a factor of
2, so the error of a returned prime stays below 2^-128. That gives 6 rounds
at 1024 bits and 12 at 512 bits. Where no valid t reaches the target (256
bits and below) the 64 rounds are kept.

Before any round, `random_prime` rejects every candidate that shares a factor
with the odd primes below 2^14 (one gcd with their product). The filter
removes composites only, at widths where every candidate exceeds the largest
sieve prime, so the candidates stay uniform, the primes returned have the
same distribution, and the bound above still holds.
"""
from __future__ import annotations

import math

from .errors import ParameterError
from .rng import SeededRng

MR_ROUNDS = 64
SIEVE_BOUND = 1 << 14
# p(k, t) target for random candidates: 2^-128, halved because random_prime
# also forces the second-highest bit
_RANDOM_ERROR_LOG2 = -129


def _primes_below(n: int) -> list[int]:
    is_p = bytearray([1]) * n
    is_p[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n - 1) + 1):
        if is_p[i]:
            is_p[i * i::i] = bytes(len(range(i * i, n, i)))
    return [i for i in range(n) if is_p[i]]


_SIEVE_PRIMES = _primes_below(SIEVE_BOUND)[1:]      # odd primes only
SIEVE_PRODUCT = math.prod(_SIEVE_PRIMES)
_SMALL_PRIMES = [2] + [p for p in _SIEVE_PRIMES if p < 256]


def is_probable_prime(n: int, rng: SeededRng | None = None, rounds: int = MR_ROUNDS) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # write n-1 = d * 2^s with d odd
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = rng or SeededRng(0xA5A5 ^ (n & 0xFFFFFFFF))
    for _ in range(rounds):
        a = 2 + rng.randrange(n - 3) if n > 4 else 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    if n <= 2:
        return 2
    c = n | 1  # first odd candidate >= n
    if c < n:
        c += 2
    while not is_probable_prime(c):
        c += 2
    return c


def random_prime_rounds(bits: int) -> int:
    """Miller-Rabin rounds for a uniformly random `bits`-bit candidate: the
    least t in [3, bits/9] whose Damgard-Landrock-Pomerance bound is at most
    2^-129, else MR_ROUNDS (see the module docstring)."""
    for t in range(3, bits // 9 + 1):
        log2_p = (1.5 * math.log2(bits) + t - 0.5 * math.log2(t)
                  + 2 * (2 - math.sqrt(t * bits)))
        if log2_p <= _RANDOM_ERROR_LOG2:
            return t
    return MR_ROUNDS


def random_prime(bits: int, rng: SeededRng) -> int:
    """Random prime with exactly `bits` bits. For >= 16 bits the top two
    bits are forced so a product of two such primes reaches the full
    modulus width; tiny widths force only the top bit (the candidate pool
    is too small otherwise)."""
    if bits < 3:
        raise ParameterError("prime size too small")
    top = (1 << (bits - 1)) | (1 << (bits - 2)) if bits >= 16 else 1 << (bits - 1)
    rounds = random_prime_rounds(bits)
    sieve = (1 << (bits - 1)) > _SIEVE_PRIMES[-1]
    for _ in range(40 * bits):
        cand = rng.randint_bits(bits) | top | 1
        if sieve and math.gcd(cand, SIEVE_PRODUCT) != 1:
            continue
        if is_probable_prime(cand, rng, rounds):
            return cand
    raise ParameterError(f"no {bits}-bit prime found within retry bound")


class RsaModulus:
    """Composite modulus N = p*q; the factors are discarded after setup."""

    __slots__ = ("n", "bit_length")

    def __init__(self, n: int):
        self.n = n
        self.bit_length = n.bit_length()

    def __eq__(self, other):
        return isinstance(other, RsaModulus) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"RsaModulus({self.bit_length} bits)"


MIN_MODULUS_BITS = 64


def rsa_setup(bit_length: int, rng: SeededRng, _allow_tiny: bool = False) -> RsaModulus:
    """Generate N = p*q. Moduli below 64 bits are only for brute-force
    oracle tests and must be requested explicitly via _allow_tiny."""
    floor = 8 if _allow_tiny else MIN_MODULUS_BITS
    if bit_length < floor:
        raise ParameterError(f"modulus must be at least {floor} bits, got {bit_length}")
    half = bit_length // 2
    p = random_prime(half, rng)
    q = random_prime(bit_length - half, rng)
    for _ in range(64):
        if q != p:
            break
        q = random_prime(bit_length - half, rng)
    else:
        raise ParameterError("could not find distinct prime factors")
    n = p * q
    del p, q  # factors never persisted
    return RsaModulus(n)
