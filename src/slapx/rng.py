"""Deterministic seeded randomness for reproducible runs.

SeededRng wraps the stdlib Mersenne Twister, whose output stream is
documented to be stable across Python versions for a fixed seed. Every
stream has a seed: the caller's, or one `spawn` derives from its parent's;
there is no draw from the operating system. Its output is reproducible only
when one thread draws from it; the roles that share one across threads say
why that stays safe (`Deployment.create`).
"""
from __future__ import annotations

import random


class SeededRng:
    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self._r = random.Random(self.seed)

    def bytes(self, n: int) -> bytes:
        return self._r.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def randint_bits(self, bits: int) -> int:
        """Uniform integer in [0, 2**bits)."""
        return self._r.getrandbits(bits)

    def randrange(self, upper: int) -> int:
        """Uniform integer in [0, upper)."""
        return self._r.randrange(upper)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._r.gauss(mu, sigma)

    def spawn(self, label: str) -> "SeededRng":
        """Derive an independent child stream; deterministic per (seed, label)."""
        h = 0xCBF29CE484222325
        for b in label.encode():
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return SeededRng(self.seed ^ h)
