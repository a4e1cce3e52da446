"""Delay-function correctness against brute-force oracles on factorable
moduli, proof soundness, and the difficulty plumbing."""
import math

import pytest

from slapx.errors import ParameterError
from slapx.hashes import hash_to_prime, int_sum_to_bytes
from slapx.modmath import RsaModulus, is_probable_prime, random_prime
from slapx.rng import SeededRng
from slapx.vdf import (DIFFICULTY_TABLE, ModulusPool, VdfChallenge, VdfParams,
                       VdfSolution, challenge_base, difficulty_for,
                       sequential_square, vdf_eval, vdf_setup, vdf_verify)


def tiny_modulus(rng: SeededRng) -> tuple[int, int, int]:
    p = random_prime(10, rng)
    q = random_prime(11, rng)
    while q == p:
        q = random_prime(11, rng)
    return p * q, p, q


def euler_reduced_power(x: int, tau: int, n: int, p: int, q: int) -> int:
    """Oracle: reduce the exponent 2^tau modulo lambda(n) when possible."""
    if math.gcd(x, n) == 1:
        lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
        return pow(x, pow(2, tau, lam), n)
    return pow(x, pow(2, tau), n)


class TestEvalOracle:
    def test_hundred_seeded_cases_match_oracle(self):
        rng = SeededRng(42)
        for i in range(100):
            n, p, q = tiny_modulus(rng.spawn(f"m{i}"))
            params = VdfParams(RsaModulus(n), kappa=4)
            tau = rng.randrange(2 ** 10 + 1)
            m = rng.bytes(12)
            sol = vdf_eval(params, VdfChallenge(m, tau))
            x = challenge_base(params, m)
            assert sol.y == euler_reduced_power(x, tau, n, p, q)
            assert vdf_verify(params, VdfChallenge(m, tau), sol)

    def test_direct_square_chain(self):
        # 2^(2^3) mod 35 = 256 mod 35
        y, count = sequential_square(2, 3, 35)
        assert (y, count) == (11, 3)

    def test_tau_zero_is_identity(self):
        params = VdfParams(RsaModulus(35), kappa=1)
        sol = vdf_eval(params, VdfChallenge(b"z", 0))
        assert sol.y == challenge_base(params, b"z")
        assert vdf_verify(params, VdfChallenge(b"z", 0), sol)


@pytest.fixture(scope="module")
def setup():
    params = vdf_setup(256, kappa=64, rng=SeededRng(7))
    ch = VdfChallenge(b"input", 200)
    return params, ch, vdf_eval(params, ch)


class TestVerify:

    def test_roundtrip(self, setup):
        params, ch, sol = setup
        assert vdf_verify(params, ch, sol)

    def test_tampered_pi_rejected(self, setup):
        params, ch, sol = setup
        bad = VdfSolution(sol.ell, (sol.pi + 1) % params.modulus.n, sol.y)
        assert not vdf_verify(params, ch, bad)

    def test_tampered_y_rejected(self, setup):
        params, ch, sol = setup
        bad = VdfSolution(sol.ell, sol.pi, (sol.y + 1) % params.modulus.n)
        assert not vdf_verify(params, ch, bad)

    def test_composite_ell_rejected(self, setup):
        params, ch, sol = setup
        assert not vdf_verify(params, ch, VdfSolution(sol.ell + 1, sol.pi, sol.y))

    def test_wrong_message_rejected(self, setup):
        params, ch, sol = setup
        assert not vdf_verify(params, VdfChallenge(b"other", ch.tau), sol)

    def test_out_of_range_rejected(self, setup):
        params, ch, sol = setup
        assert not vdf_verify(params, ch, VdfSolution(sol.ell, -1, sol.y))


class TestUniquenessAndCounters:
    def test_two_evals_identical(self):
        params = vdf_setup(128, kappa=16, rng=SeededRng(9))
        ch = VdfChallenge(b"same", 100)
        a, b = vdf_eval(params, ch), vdf_eval(params, ch)
        assert (a.ell, a.pi, a.y) == (b.ell, b.pi, b.y)

    def test_squaring_counter_matches_tau(self):
        params = vdf_setup(128, kappa=16, rng=SeededRng(9))
        sol = vdf_eval(params, VdfChallenge(b"w", 321))
        assert sol.squarings == 321


class TestSetup:
    def test_kappa_floor(self):
        with pytest.raises(ParameterError):
            vdf_setup(128, 0, SeededRng(1))
        with pytest.raises(ParameterError):
            VdfChallenge(b"x", -1)

    def test_tiny_test_gate(self):
        params = vdf_setup(8, 4, SeededRng(2), _allow_tiny=True)
        assert params.modulus.bit_length <= 9

    def test_fresh_modulus_per_setup(self):
        rng = SeededRng(3)
        assert vdf_setup(128, 4, rng).modulus != vdf_setup(128, 4, rng).modulus

    def test_difficulty_table(self):
        assert difficulty_for("default") == 10 ** 3
        assert difficulty_for("high_power") == 10 ** 4
        assert difficulty_for("flagged") == 8 * 10 ** 4
        assert difficulty_for("unknown-kind") == DIFFICULTY_TABLE["default"]


class TestModulusPool:
    def test_inline_fallback_and_width(self):
        pool = ModulusPool(bits=128, rng=SeededRng(4))
        assert pool.get().bit_length in (127, 128)


def reference_verify(params, challenge, sol) -> bool:
    """vdf_verify as it was before it compared ell first: it tested the
    submitted ell for primality on its own and checked the power equation
    before recomputing ell. vdf_verify must accept exactly what this does."""
    n = params.modulus.n
    if not (0 <= sol.pi < n and 0 <= sol.y < n):
        return False
    if sol.ell < 2 or not is_probable_prime(sol.ell):
        return False
    x = challenge_base(params, challenge.m)
    r = pow(2, challenge.tau, sol.ell)
    y_check = (pow(sol.pi, sol.ell, n) * pow(x, r, n)) % n
    if y_check != sol.y:
        return False
    return sol.ell == hash_to_prime(int_sum_to_bytes(x + y_check))


def tampered_solutions(params, ch, sol, big_prime):
    n = params.modulus.n
    ell, pi, y = sol.ell, sol.pi, sol.y
    x = challenge_base(params, ch.m)

    def forged(e):
        # a proof for exponent e that satisfies pi^e * x^r == y; only the
        # comparison with the recomputed ell can reject it
        return VdfSolution(e, pow(x, (1 << ch.tau) // e, n), y)

    return {
        "forged for ell+2": forged(ell + 2),
        "forged for small prime": forged(3),
        "forged for composite": forged(ell * 3),
        "ell 1, pi = y": VdfSolution(1, y, y),
        "ell+2": VdfSolution(ell + 2, pi, y),
        "other prime ell": VdfSolution(hash_to_prime(b"other"), pi, y),
        "composite ell": VdfSolution(ell * 3, pi, y),
        "ell+1": VdfSolution(ell + 1, pi, y),
        "ell 1": VdfSolution(1, pi, y),
        "huge composite ell": VdfSolution((1 << 4096) + 1, pi, y),
        "huge prime ell": VdfSolution(big_prime, pi, y),
        "pi+1": VdfSolution(ell, (pi + 1) % n, y),
        "y+1": VdfSolution(ell, pi, (y + 1) % n),
        "y out of range": VdfSolution(ell, pi, y + n),
    }


class TestVerifyMatchesReference:
    def test_accept_set_unchanged(self):
        rng = SeededRng(61)
        big_prime = random_prime(512, rng)
        cases = []
        for i in range(3):
            params = vdf_setup(256, kappa=64, rng=rng.spawn(f"full{i}"))
            cases.append((params, VdfChallenge(rng.bytes(8), 50 + 30 * i)))
        for i in range(3):
            n, _, _ = tiny_modulus(rng.spawn(f"tiny{i}"))
            cases.append((VdfParams(RsaModulus(n), kappa=4),
                          VdfChallenge(rng.bytes(8), rng.randrange(300))))
        for params, ch in cases:
            sol = vdf_eval(params, ch)
            assert vdf_verify(params, ch, sol) and reference_verify(params, ch, sol)
            for challenge in (VdfChallenge(ch.m + b"!", ch.tau),
                              VdfChallenge(ch.m, ch.tau + 1)):
                assert vdf_verify(params, challenge, sol) == \
                    reference_verify(params, challenge, sol)
            for name, bad in tampered_solutions(params, ch, sol, big_prime).items():
                assert not reference_verify(params, ch, bad), name
                assert not vdf_verify(params, ch, bad), name
