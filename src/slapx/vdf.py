"""Verifiable delay function over an RSA group of unknown order.

Evaluation performs tau dependent modular squarings of x = H(m) mod N and
produces a succinct proof:

    y   = x^(2^tau) mod N
    ell = next-prime(H(x + y))         (integer sum, big-endian bytes)
    pi  = x^floor(2^tau / ell) mod N

Verification first recomputes ell from x + y and rejects any other value,
then checks y == pi^ell * x^r with r = 2^tau mod ell, so its cost is
O(log tau) modular exponentiations regardless of tau. The recomputed ell
already passed next_prime's 64-round primality test, so a submitted ell is
never tested on its own. Every puzzle is issued on a fresh modulus, which
`ModulusPool.get` generates when it is asked for one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParameterError
from .hashes import H_tagged, hash_to_prime, int_sum_to_bytes
# is_probable_prime is re-exported: perfbench/test_perfbench.py reads it here
from .modmath import RsaModulus, is_probable_prime, rsa_setup  # noqa: F401
from .rng import SeededRng

DEFAULT_MODULUS_BITS = 2048

# kappa assigned per disclosed device class; the protocol layer picks the
# row, vdf only enforces kappa > 0. One squaring per difficulty unit.
DIFFICULTY_TABLE = {
    "default": 10 ** 3,
    "high_power": 10 ** 4,
    "precompute_floor": 2 * 10 ** 4,
    "flagged": 8 * 10 ** 4,
}


def difficulty_for(device_class: str) -> int:
    return DIFFICULTY_TABLE.get(device_class, DIFFICULTY_TABLE["default"])


@dataclass(frozen=True)
class VdfParams:
    modulus: RsaModulus
    kappa: int

    def __post_init__(self):
        if self.kappa <= 0:
            raise ParameterError("kappa must be positive")


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
    squarings: int = field(compare=False, default=0)  # telemetry, not wire


def vdf_setup(security_bits: int, kappa: int, rng: SeededRng,
              _allow_tiny: bool = False) -> VdfParams:
    if kappa <= 0:
        raise ParameterError("kappa must be positive")
    return VdfParams(rsa_setup(security_bits, rng, _allow_tiny=_allow_tiny), kappa)


def challenge_base(params: VdfParams, m: bytes) -> int:
    """x = H(m) reduced into the group, avoiding the trivial fixed points."""
    x = int.from_bytes(H_tagged("vdf/input", m), "big") % params.modulus.n
    while x in (0, 1, params.modulus.n - 1):
        x = (x + 2) % params.modulus.n
    return x


def sequential_square(x: int, tau: int, n: int) -> tuple[int, int]:
    """tau dependent squarings of x mod n; returns (result, count performed)."""
    y = x % n
    for _ in range(tau):
        y = (y * y) % n
    return y, tau


def vdf_eval(params: VdfParams, challenge: VdfChallenge) -> VdfSolution:
    n = params.modulus.n
    x = challenge_base(params, challenge.m)
    y, count = sequential_square(x, challenge.tau, n)
    ell = hash_to_prime(int_sum_to_bytes(x + y))
    pi = pow(x, (1 << challenge.tau) // ell, n)
    return VdfSolution(ell=ell, pi=pi, y=y, squarings=count)


def vdf_verify(params: VdfParams, challenge: VdfChallenge, sol: VdfSolution) -> bool:
    n = params.modulus.n
    if not (0 <= sol.pi < n and 0 <= sol.y < n):
        return False
    x = challenge_base(params, challenge.m)
    if sol.ell != hash_to_prime(int_sum_to_bytes(x + sol.y)):
        return False
    r = pow(2, challenge.tau, sol.ell)
    return (pow(sol.pi, sol.ell, n) * pow(x, r, n)) % n == sol.y


class ModulusPool:
    """Source of the fresh RSA modulus each puzzle is issued on."""

    def __init__(self, bits: int = DEFAULT_MODULUS_BITS,
                 rng: SeededRng | None = None):
        self.bits = bits
        self._rng = rng or SeededRng()

    def get(self) -> RsaModulus:
        return rsa_setup(self.bits, self._rng)
