"""Public-key distance bounding: authenticated key agreement, then a rapid
bit-exchange proximity test with per-round RTT enforcement.

Bit strings are bytes objects whose items are 0/1. RTTs are supplied by the
caller (a simulated clock in the simulator, a monotonic clock in live mode)
so the primitive stays deterministic and testable.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CryptoError, ParameterError
from .group import CURVE, GroupElement, SigningKey
from .hashes import H_expand, H_tagged
from .rng import SeededRng

SPEED_OF_LIGHT_M_S = 299_792_458.0


@dataclass(frozen=True)
class DbpConfig:
    n: int                 # number of rapid bit-exchange rounds
    th: float              # distance threshold, meters
    tolerance: float = 0.0  # fraction of rounds allowed to fail

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("need at least one round")
        if not 0.0 <= self.tolerance < 1.0:
            raise ParameterError("tolerance must be in [0, 1)")
        if self.th <= 0:
            raise ParameterError("threshold must be positive")

    @property
    def max_failures(self) -> int:
        return int(self.tolerance * self.n)

    @property
    def rtt_bound_ns(self) -> float:
        return 2.0 * self.th / SPEED_OF_LIGHT_M_S * 1e9


@dataclass(frozen=True)
class RoundTranscript:
    c: int        # challenge bit
    r: int        # response bit
    rtt_ns: float


def dbp_aka(own: SigningKey, peer_pk: GroupElement, nonce: bytes, n_rounds: int) -> bytes:
    """Diffie-Hellman session secret expanded to 2n bits (one byte per bit).
    Symmetric in roles: both sides derive the identical string."""
    if peer_pk.is_identity:
        raise CryptoError("degenerate peer key")
    shared = CURVE.mul(peer_pk, own.sk)
    seed = H_tagged("dbp/aka", shared.to_bytes(), nonce)
    raw = H_expand("dbp/ss", seed, (2 * n_rounds + 7) // 8)
    bits = bytearray()
    for byte in raw:
        for i in range(8):
            bits.append((byte >> (7 - i)) & 1)
            if len(bits) == 2 * n_rounds:
                return bytes(bits)
    return bytes(bits)


def dbp_response_table(ss: bytes, m: bytes) -> bytes:
    """a = ss XOR m over 2n-bit strings."""
    if len(ss) != len(m):
        raise CryptoError("length mismatch")
    return bytes(x ^ y for x, y in zip(ss, m))


def dbp_respond(a: bytes, i: int, c: int) -> int:
    """Response bit a_(2i+c-1) under 1-based indexing."""
    if not 1 <= i <= len(a) // 2:
        raise CryptoError("round index out of range")
    if c not in (0, 1):
        raise CryptoError("challenge must be a bit")
    return a[2 * i + c - 1 - 1]  # 1-based table index -> 0-based offset


def dbp_verify(cfg: DbpConfig, a: bytes,
               transcripts: list[RoundTranscript]) -> bool:
    """Round i passes iff 0 <= its RTT <= 2*th at light speed and the
    response equals the table bit; accept iff failures <= tolerance*n."""
    if len(transcripts) != cfg.n:
        return False
    failures = 0
    bound = cfg.rtt_bound_ns
    for i, t in enumerate(transcripts, start=1):
        ok = 0 <= t.rtt_ns <= bound and t.r == dbp_respond(a, i, t.c)
        if not ok:
            failures += 1
    return failures <= cfg.max_failures


def run_honest_session(cfg: DbpConfig, ss: bytes, distance_m: float,
                       rng: SeededRng) -> tuple[bytes, list[RoundTranscript]]:
    """Prover at the given true distance answering from its own table;
    RTTs come from the speed-of-light clock model. Returns the verifier's
    challenge mask m together with the round transcripts."""
    m = bytes(rng.randint_bits(1) for _ in range(2 * cfg.n))
    a = dbp_response_table(ss, m)
    rtt = 2.0 * distance_m / SPEED_OF_LIGHT_M_S * 1e9
    out = []
    for i in range(1, cfg.n + 1):
        c = rng.randint_bits(1)
        out.append(RoundTranscript(c=c, r=dbp_respond(a, i, c), rtt_ns=rtt))
    return m, out

