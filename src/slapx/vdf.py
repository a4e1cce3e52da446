"""Verifiable delay function over an RSA group of unknown order.

Evaluation performs tau dependent modular squarings of x = H(m) mod N and
produces a succinct proof:

    y   = x^(2^tau) mod N
    ell = next-prime(H(x + y))         (integer sum, big-endian bytes)
    pi  = x^floor(2^tau / ell) mod N

Verification refuses a wrong ell at the cheapest step that can tell, and
each step refuses only what next-prime(H(x + y)) cannot be, so it decides
as the prime search alone would:
1. an ell below H(x + y) (`floor_base`, which the service server also
   runs ahead of its costlier checks and whose x and H(x + y) it hands to
   `vdf_verify`);
2. an ell more than `hashes.PRIME_GAP_BOUND` = 2^234 above H(x + y): by
   Dusart's prime-gap bound (2018, Prop. 5.4) next-prime(H(x + y)) lies
   within it (`hashes.may_be_next_prime`), and a valid ell of another
   message lands inside it with probability ~2^-22;
3. an ell inside that window that fails the first half of Baillie-PSW,
   trial division, the sieve gcd and the strong test to base 2
   (`modmath.is_strong_base2_probable_prime`), which every prime passes;
4. any ell other than next-prime(H(x + y)) as the prime search
   (`hashes.hash_to_prime`) recomputes it;
then it checks y == pi^ell * x^r with r = 2^tau mod ell. The recomputed
ell already passed next_prime's Baillie-PSW test (see `modmath`), so a
submitted ell needs no full test of its own. On a 2-core x86-64 host
steps 1 and 2 take under a microsecond, step 3 refuses a composite in
~11 us on average and ~0.18 ms if it survives the sieve gcd, and step 4
refuses a prime in the window in one search, ~2 ms on average; a valid
solution pays one base-2 test, ~0.18 ms, ahead of its search. The
check's cost does not depend on tau: one prime search above H(x + y)
and one joint exponentiation (`modmath.multiexp`) whose two ~256-bit
exponents share one run of squarings. The exponentiation takes ~4.3 ms
at a 2048-bit N, where two `pow` calls take ~6.6 ms, and ~0.48 ms at 512
bits, against ~0.69 ms.

The prover forms pi from its own squarings (Wesolowski 2019, "Efficient
verifiable delay functions", section 4.1): `sequential_square` keeps every
FIXED_BASE_WINDOW-th power x^(2^(4i)) of the chain as a `modmath.FixedBase`,
and `fixed_base_multiexp` raises it to floor(2^tau / ell) with one
multiplication per non-zero 4-bit digit instead of a second pass of tau
squarings. The kept powers cost memory for the length of one eval: tau/4
residues of the modulus width, ~70 KB at kappa = 10^3 and ~6 MB at the
flagged kappa = 8*10^4 on a 2048-bit modulus.

As in the single-group VDFs of Boneh, Bonneau, Bunz and Fisch (2018) and
of Wesolowski (2019), one modulus serves many inputs: the issuer draws it
from `ModulusPool.get` once per epoch (`protocol.MODULUS_EPOCH_WINDOWS`),
keeps p and q to itself, and every puzzle's input x = H(seed || m) carries
that puzzle's own fresh seed. That modulus N, a plain int, is the VDF's one
parameter: every function here takes it as `n`, and the difficulty tau
comes with each challenge.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import wire
from .errors import ParameterError, SlapxError
from .hashes import (H_tagged, hash_to_prime, hash_to_prime_floor,
                     int_sum_to_bytes, may_be_next_prime)
# is_probable_prime is re-exported: perfbench/test_perfbench.py reads it here
from .modmath import (FIXED_BASE_WINDOW, FixedBase,  # noqa: F401
                      fixed_base_multiexp, is_probable_prime,
                      is_strong_base2_probable_prime, multiexp, rsa_setup)
from .rng import SeededRng

DEFAULT_MODULUS_BITS = 2048

# kappa assigned per disclosed device class; the protocol layer picks the
# row and issues it as the challenge's tau. One squaring per difficulty unit.
DIFFICULTY_TABLE = {
    "default": 10 ** 3,
    "high_power": 10 ** 4,
    "flagged": 8 * 10 ** 4,
}


def difficulty_for(device_class: str) -> int:
    return DIFFICULTY_TABLE.get(device_class, DIFFICULTY_TABLE["default"])


@dataclass(frozen=True)
class VdfChallenge:
    m: bytes
    tau: int

    def __post_init__(self):
        if self.tau < 0:
            raise ParameterError("tau must be non-negative")


@dataclass(frozen=True)
class VdfSolution:
    ell: int
    pi: int
    y: int

    def to_bytes(self, modulus_bytes: int) -> bytes:
        return wire.pack_fields(self.ell.to_bytes((self.ell.bit_length() + 7) // 8, "big"),
                                self.pi.to_bytes(modulus_bytes, "big"),
                                self.y.to_bytes(modulus_bytes, "big"))

    @classmethod
    def from_bytes(cls, data: bytes, modulus_bytes: int) -> "VdfSolution":
        """Strict inverse of to_bytes: ell without leading zero bytes, pi and
        y exactly modulus-width, nothing after."""
        ell_b, pi_b, y_b = wire.unpack_fields(data, 3)
        if (ell_b[:1] == b"\x00" or len(pi_b) != modulus_bytes
                or len(y_b) != modulus_bytes):
            raise SlapxError("non-canonical VDF solution")
        return cls(*(int.from_bytes(b, "big") for b in (ell_b, pi_b, y_b)))


def challenge_base(n: int, m: bytes) -> int:
    """x = H(m) reduced into the group, avoiding the trivial fixed points."""
    x = int.from_bytes(H_tagged("vdf/input", m), "big") % n
    while x in (0, 1, n - 1):
        x = (x + 2) % n
    return x


def sequential_square(x: int, tau: int, n: int) -> tuple[int, FixedBase]:
    """x^(2^tau) mod n by tau dependent squarings; returns (result, table).
    The table is FixedBase(x, n, tau + 1): the chain's first 4*floor(tau/4)
    squarings, with every fourth power kept."""
    table = FixedBase(x, n, tau + 1)
    y = table.powers[-1]
    for _ in range(tau % FIXED_BASE_WINDOW):
        y = (y * y) % n
    return y, table


def vdf_eval(n: int, challenge: VdfChallenge) -> VdfSolution:
    x = challenge_base(n, challenge.m)
    y, chain = sequential_square(x, challenge.tau, n)
    ell = hash_to_prime(int_sum_to_bytes(x + y))
    # floor(2^tau / ell) < 2^tau fits the chain's table
    pi = fixed_base_multiexp([(chain, (1 << challenge.tau) // ell)], n)
    return VdfSolution(ell=ell, pi=pi, y=y)


def floor_base(n: int, challenge: VdfChallenge,
               sol: VdfSolution) -> tuple[int, int] | None:
    """The checks of `vdf_verify` that need no prime search and no
    exponentiation: (x, H(x + y)) when pi and y are residues mod N and ell
    is not below H(x + y), else None. hash_to_prime(xy) >=
    hash_to_prime_floor(xy), so a smaller ell is wrong without the prime
    search."""
    if not (0 <= sol.pi < n and 0 <= sol.y < n):
        return None
    x = challenge_base(n, challenge.m)
    h = hash_to_prime_floor(int_sum_to_bytes(x + sol.y))
    return (x, h) if sol.ell >= h else None


def vdf_verify(n: int, challenge: VdfChallenge, sol: VdfSolution,
               floor: tuple[int, int] | None = None) -> bool:
    """Is sol the solution of challenge? A caller that already ran
    `floor_base` on these arguments passes what it returned, and the floor
    step is not run again."""
    if floor is None:
        floor = floor_base(n, challenge, sol)
    if floor is None:
        return False
    x, h = floor
    if not (may_be_next_prime(h, sol.ell)
            and is_strong_base2_probable_prime(sol.ell)
            and sol.ell == hash_to_prime(int_sum_to_bytes(x + sol.y))):
        return False
    r = pow(2, challenge.tau, sol.ell)
    return multiexp(((sol.pi, sol.ell), (x, r)), n) == sol.y


class ModulusPool:
    """Source of the issuer's puzzle moduli: `get` draws a fresh N, which
    the PSD asks for on the first puzzle of each epoch and then reuses for
    every puzzle of that epoch."""

    def __init__(self, bits: int, rng: SeededRng):
        self.bits = bits
        self._rng = rng

    def get(self) -> int:
        return rsa_setup(self.bits, self._rng)
