"""Integer and modular arithmetic: primality testing, prime search, RSA moduli.

Primality of numbers that may come from an adversary. `is_probable_prime`
without an rng (`next_prime`, and through it `hash_to_prime`) runs the
Baillie-PSW test (Baillie and Wagstaff 1980, "Lucas pseudoprimes";
Pomerance, Selfridge and Wagstaff 1980; FIPS 186-5 Appendix B.3): trial
division by the primes below 256, one gcd with the odd primes below 2^14,
then a strong test to base 2 and a strong Lucas test with Selfridge's
method-A parameters (D the first of 5, -7, 9, -11, ... with Jacobi symbol
(D/n) = -1, P = 1, Q = (1 - D)/4). The argument for it:

- BPSW has no proven error bound, unlike random-base Miller-Rabin.
- No composite is known to pass it, and none exists below 2^64 (Feitsma
  and Galway's list of base-2 strong pseudoprimes, all of which fail the
  Lucas test).
- Its input here is a SHA-256 output, H(x + y), that a prover can steer
  only by grinding y, which costs a full evaluation per try.
- The 64 "random" Miller-Rabin rounds it replaces drew their bases from
  `SeededRng(0xA5A5 ^ n)`, a function of n: an adversary who picks n knows
  the bases too, so their 2^-128 bound never held against one either.

`next_prime` returns the same primes as the 64-round test did: a number
on which the two disagree would be a BPSW pseudoprime or a composite that
passed 64 rounds.

`is_strong_base2_probable_prime` is the first half of that test, trial
division, the gcd and the base-2 strong test, and `is_probable_prime` runs
it first. Every prime passes it, so the VDF check (`vdf.vdf_verify`) runs
it alone on a submitted ell to refuse a composite exactly before its
prime search. On a 256-bit number it takes ~11 us for an average
composite and ~0.18 ms for a prime or a composite that survives the gcd,
where the whole test of a prime takes ~0.8 ms.

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

Fixed-base exponentiation. `FixedBase` holds the powers g^(2^(w*i)) mod n
of one public base, and `fixed_base_multiexp` computes a product of tabled
bases raised to non-negative exponents by the bucket method of Brickell,
Gordon, McCurley and Wilson (EUROCRYPT '92, "Fast exponentiation with
precomputation", after Yao): it needs no squaring at all, one
multiplication per non-zero w-bit digit of every exponent, and at most
2(2^w - 1) more for the whole product. Like `pow`, it is not constant-time.

Exponentiation of bases that are new per call. `multiexp` computes a
product of bases raised to non-negative exponents with one shared run of
squarings (Straus's joint exponentiation, as in Moller, SAC 2001): each
base gets a table of its powers below 2^w, and each w-bit window of the
exponents costs w squarings of the one accumulator and one multiplication
per base with a non-zero digit. Two 256-bit exponents then share 256
squarings instead of running 256 each.
"""
from __future__ import annotations

import math

from .errors import ParameterError
from .rng import SeededRng

MR_ROUNDS = 64
FIXED_BASE_WINDOW = 4   # digit width w of the fixed-base tables and of multiexp
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


def _trial_division(n: int) -> bool | None:
    """Whether n is prime, when n < 2 or a prime below 256 divides it;
    else None."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return None


def is_strong_base2_probable_prime(n: int) -> bool:
    """The first half of Baillie-PSW: trial division, the sieve gcd and the
    strong test to base 2. Every prime passes, so False means composite."""
    verdict = _trial_division(n)
    if verdict is not None:
        return verdict
    if n > _SIEVE_PRIMES[-1] and math.gcd(n, SIEVE_PRODUCT) != 1:
        return False
    return _strong_test(n, 2)


def is_probable_prime(n: int, rng: SeededRng | None = None, rounds: int = MR_ROUNDS) -> bool:
    """Baillie-PSW without an rng; with one, `rounds` Miller-Rabin rounds
    whose bases are drawn from it (see the module docstring)."""
    if rng is None:
        # below 256 the trial division alone decides
        return is_strong_base2_probable_prime(n) and (n < 256 or _strong_lucas_test(n))
    verdict = _trial_division(n)
    if verdict is not None:
        return verdict
    for _ in range(rounds):
        if not _strong_test(n, 2 + rng.randrange(n - 3)):
            return False
    return True


def _strong_test(n: int, a: int) -> bool:
    """One Miller-Rabin round: is odd n > 2 a strong probable prime to base a?"""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s        # n - 1 = d * 2^s with d odd
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_test(n: int) -> bool:
    """Is odd n > 2 a strong Lucas probable prime with Selfridge's method-A
    parameters? With n + 1 = d * 2^s, d odd: U_d = 0 or V_(d*2^r) = 0 for
    some r < s (mod n)."""
    if math.isqrt(n) ** 2 == n:     # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # left to right over d's bits from U_1 = V_1 = P = 1, with Qk = Q^k
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n      # k -> 2k
        Qk = Qk * Qk % n
        if bit == "1":                               # 2k -> 2k + 1
            U, V = U + V, D * U + V
            U = ((U + n if U & 1 else U) >> 1) % n  # halve mod odd n
            V = ((V + n if V & 1 else V) >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n                     # V_2k = V_k^2 - 2 Q^k
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


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


MIN_MODULUS_BITS = 64


def random_prime_pair(bit_length: int, rng: SeededRng) -> tuple[int, int]:
    """Distinct primes p, q of bit_length//2 and the remaining bits, so that
    p*q has exactly bit_length bits."""
    half = bit_length // 2
    p = random_prime(half, rng)
    q = random_prime(bit_length - half, rng)
    for _ in range(64):
        if q != p:
            return p, q
        q = random_prime(bit_length - half, rng)
    raise ParameterError("could not find distinct prime factors")


def rsa_setup(bit_length: int, rng: SeededRng) -> int:
    """Generate N = p*q and return N; p and q are discarded. Tests that
    need a modulus below MIN_MODULUS_BITS multiply `random_prime`s."""
    if bit_length < MIN_MODULUS_BITS:
        raise ParameterError(f"modulus must be at least {MIN_MODULUS_BITS} "
                             f"bits, got {bit_length}")
    p, q = random_prime_pair(bit_length, rng)
    return p * q


class FixedBase:
    """The table g^(2^(w*i)) mod n, for i < ceil(max_bits / w), of one base
    g (w = FIXED_BASE_WINDOW). It is never mutated once built."""

    __slots__ = ("powers",)

    def __init__(self, g: int, n: int, max_bits: int):
        powers = [g % n]
        for _ in range(-(-max_bits // FIXED_BASE_WINDOW) - 1):
            powers.append(pow(powers[-1], 1 << FIXED_BASE_WINDOW, n))
        self.powers = tuple(powers)


def fixed_base_multiexp(terms, n: int) -> int:
    """prod g^e mod n over the (FixedBase, e) pairs in `terms`; equal to the
    product of `pow(g, e, n)`. An exponent that is negative or wider than
    its table is raised by `pow`."""
    w = FIXED_BASE_WINDOW
    mask = (1 << w) - 1
    # bucket d collects the table entries whose exponent digit is d
    buckets: list[int | None] = [None] * (mask + 1)
    out = 1
    for table, e in terms:
        powers = table.powers
        if e < 0 or e.bit_length() > w * len(powers):
            out = out * pow(powers[0], e, n) % n
            continue
        i = 0
        while e:
            d = e & mask
            if d:
                b = buckets[d]
                buckets[d] = powers[i] if b is None else b * powers[i] % n
            e >>= w
            i += 1
    # prod_d bucket_d^d = prod over d of (prod of the buckets >= d)
    acc = None
    for d in range(mask, 0, -1):
        b = buckets[d]
        if b is not None:
            acc = b if acc is None else acc * b % n
        if acc is not None:
            out = out * acc % n
    return out


def multiexp(terms, n: int) -> int:
    """prod b^e mod n over the (b, e) pairs in `terms`, every e >= 0; equal
    to the product of `pow(b, e, n)`."""
    w = FIXED_BASE_WINDOW
    mask = (1 << w) - 1
    rows = []
    for b, e in terms:
        row = [1, b % n]                # b^d for d < 2^w
        for _ in range(mask - 1):
            row.append(row[-1] * row[1] % n)
        rows.append((row, e))
    top = max((e.bit_length() for _, e in terms), default=0)
    out = 1
    for shift in range((top - 1) // w * w, -1, -w):
        for _ in range(w):
            out = out * out % n
        for row, e in rows:
            d = (e >> shift) & mask
            if d:
                out = out * row[d] % n
    return out % n
