"""Group laws, hash-to-prime, RSA modulus generation, seeded randomness."""
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slapx.errors import CryptoError, ParameterError
from slapx.group import group_setup
from slapx.hashes import H, H_expand, hash_to_prime
from slapx.modmath import (MR_ROUNDS, SIEVE_BOUND, SIEVE_PRODUCT,
                           is_probable_prime, next_prime, random_prime,
                           random_prime_rounds, rsa_setup)
from slapx.rng import SeededRng

GROUP, GEN = group_setup(128)


class TestGroup:
    def test_supported_levels(self):
        for bits in (128, 192, 256):
            g, gen = group_setup(bits)
            assert g.order.bit_length() >= 2 * bits
            assert gen.mul(g.order).is_identity

    def test_unsupported_level(self):
        with pytest.raises(ParameterError):
            group_setup(100)

    def test_zero_and_order_annihilation(self):
        assert GEN.mul(0).is_identity
        assert GEN.mul(GROUP.order).is_identity

    def test_group_laws_random_triples(self):
        rng = SeededRng(2024)
        pts = [GEN.mul(GROUP.random_scalar(rng)) for _ in range(30)]
        for i in range(1000):
            a = pts[i % 30]
            b = pts[(i * 7 + 1) % 30]
            c = pts[(i * 13 + 2) % 30]
            assert a.add(b).add(c) == a.add(b.add(c))
            assert a.add(GROUP.identity) == a
            assert a.add(a.neg()).is_identity

    def test_commutativity(self):
        rng = SeededRng(5)
        a = GEN.mul(GROUP.random_scalar(rng))
        b = GEN.mul(GROUP.random_scalar(rng))
        assert a.add(b) == b.add(a)

    @given(st.integers(min_value=1, max_value=2 ** 64))
    @settings(max_examples=50, deadline=None)
    def test_serialization_roundtrip(self, k):
        p = GEN.mul(k)
        assert GROUP.from_bytes(p.to_bytes()) == p
        assert len(p.to_bytes()) == GROUP.element_size()

    def test_identity_serialization(self):
        raw = GROUP.identity.to_bytes()
        assert raw == b"\x00" * GROUP.element_size()
        assert GROUP.from_bytes(raw).is_identity

    @given(st.integers(min_value=1, max_value=2 ** 32),
           st.integers(min_value=1, max_value=2 ** 32))
    @settings(max_examples=30, deadline=None)
    def test_muladd_matches_separate(self, a, b):
        P = GEN.mul(3)
        Q = GEN.mul(11)
        assert GROUP.muladd(a, P, b, Q) == P.mul(a).add(Q.mul(b))

    def test_bad_encodings_rejected(self):
        with pytest.raises(CryptoError):
            GROUP.from_bytes(b"\x05" * GROUP.element_size())
        with pytest.raises(CryptoError):
            GROUP.from_bytes(b"\x02")

    def test_hash_to_point_on_curve_and_deterministic(self):
        p1 = GROUP.hash_to_point("t", b"hello")
        p2 = GROUP.hash_to_point("t", b"hello")
        p3 = GROUP.hash_to_point("t", b"other")
        assert p1 == p2 != p3
        assert GROUP.is_on_curve(p1)

    def test_scalar_encoding_bounds(self):
        with pytest.raises(CryptoError):
            GROUP.scalar_to_bytes(GROUP.order)
        assert GROUP.scalar_from_bytes(GROUP.scalar_to_bytes(12345)) == 12345


class TestPrimes:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_next_prime_oracle(self, n):
        # brute-force oracle over small integers
        p = next_prime(n)
        assert p >= max(n, 2)
        assert all(p % d for d in range(2, int(math.isqrt(p)) + 1))
        for q in range(max(n, 2), p):
            assert any(q % d == 0 for d in range(2, int(math.isqrt(q)) + 1))

    def test_next_prime_small_cases(self):
        assert next_prime(8) == 11
        assert next_prime(7) == 7       # already prime
        assert next_prime(0) == 2

    def test_hash_to_prime_properties(self):
        for msg in (b"a", b"b", b"c", b"dd", b"ee"):
            p = hash_to_prime(msg)
            assert is_probable_prime(p)
            assert p >= int.from_bytes(__import__("hashlib").sha256(msg).digest(), "big")
        assert hash_to_prime(b"same") == hash_to_prime(b"same")

    def test_random_prime_width(self):
        # random_prime runs fewer rounds than the 64-round default above
        # 256 bits; its outputs must still pass the 64-round test
        rng = SeededRng(9)
        for bits, count in ((64, 20), (512, 4), (1024, 2)):
            for _ in range(count):
                p = random_prime(bits, rng)
                assert p.bit_length() == bits
                assert p >> (bits - 2) == 0b11          # top two bits forced
                assert is_probable_prime(p, rounds=64)


def brute_force_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def dlp_bound_log2(k: int, t: int) -> float:
    """log2 of k^(3/2) 2^t t^(-1/2) 4^(2 - sqrt(t k))."""
    return 1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k))


class TestRandomPrimeFastPath:
    """random_prime's gcd sieve and its round counts for random candidates."""

    def test_narrow_widths_around_sieve_guard(self):
        # below 15 bits a candidate can equal a sieve prime, so no gcd
        # filter runs; from 15 bits on, every candidate exceeds 16381
        rng = SeededRng(8)
        for bits in (3, 4, 10, 14, 15, 16, 20):
            for _ in range(5):
                p = random_prime(bits, rng)
                assert p.bit_length() == bits
                assert brute_force_prime(p)

    def test_sieve_never_rejects_a_prime(self):
        rng = SeededRng(17)
        for bits in (15, 16, 24, 64, 256, 512):
            for _ in range(10):
                p = next_prime(rng.randint_bits(bits - 1) | 1 << (bits - 1))
                assert p > SIEVE_BOUND
                assert math.gcd(p, SIEVE_PRODUCT) == 1

    def test_sieve_covers_the_odd_primes_below_bound(self):
        odd_primes = [q for q in range(3, SIEVE_BOUND, 2) if brute_force_prime(q)]
        assert SIEVE_PRODUCT == math.prod(odd_primes)

    def test_round_counts(self):
        assert random_prime_rounds(1024) == 6
        assert random_prime_rounds(512) == 12
        for bits in (3, 16, 64, 128, 192, 256):
            assert random_prime_rounds(bits) == MR_ROUNDS
        for bits in (384, 512, 768, 1024, 2048):
            t = random_prime_rounds(bits)
            assert 3 <= t <= bits // 9
            assert dlp_bound_log2(bits, t) <= -129
            assert t == 3 or dlp_bound_log2(bits, t - 1) > -129

    def test_default_rounds_unchanged(self):
        default = inspect.signature(is_probable_prime).parameters["rounds"].default
        assert default == MR_ROUNDS == 64
        # a strong pseudoprime to every prime base up to 23
        assert not is_probable_prime(3825123056546413051)

    def test_hash_to_prime_values_unchanged(self):
        assert hash_to_prime(b"") == int(
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16)
        assert hash_to_prime(b"slapx") == int(
            "28f4556cfcabc833af2c7edc1963ef49269b301df741df0006023ac57434e7e1", 16)
        assert hash_to_prime(b"vdf/ell") == int(
            "9f77436a9b2d4f5ec8dea777cfc916bcd0ef765a8917b1b6c747ee1e3b18c3fb", 16)
        assert hash_to_prime(bytes(range(64))) == int(
            "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d915113f", 16)


class TestRsaSetup:
    def test_standard_width(self):
        n = rsa_setup(256, SeededRng(1))
        assert n.bit_length in (255, 256)
        assert n.n % 2 == 1

    def test_tiny_oracle_mode(self):
        # 8-bit test gate: N can be as small as a product of 4-bit primes
        n = rsa_setup(8, SeededRng(3), _allow_tiny=True)
        assert 4 <= n.bit_length <= 9
        # recoverable factors witness compositeness
        assert any(n.n % d == 0 for d in range(2, n.n))

    def test_below_floor_rejected(self):
        with pytest.raises(ParameterError):
            rsa_setup(63, SeededRng(1))
        with pytest.raises(ParameterError):
            rsa_setup(7, SeededRng(1), _allow_tiny=True)

    def test_deterministic_per_seed(self):
        for bits in (128, 512, 1024):
            assert rsa_setup(bits, SeededRng(5)).n == rsa_setup(bits, SeededRng(5)).n
        assert rsa_setup(1024, SeededRng(5)).n != rsa_setup(1024, SeededRng(6)).n


class TestRngAndHash:
    def test_identical_seed_identical_stream(self):
        a, b = SeededRng(77), SeededRng(77)
        assert [a.bytes(16) for _ in range(20)] == [b.bytes(16) for _ in range(20)]
        assert a.randint_bits(128) == b.randint_bits(128)

    def test_different_seed_differs(self):
        assert SeededRng(1).bytes(32) != SeededRng(2).bytes(32)

    def test_spawn_independent(self):
        r = SeededRng(4)
        assert r.spawn("a").bytes(8) != r.spawn("b").bytes(8)
        assert SeededRng(4).spawn("a").bytes(8) == SeededRng(4).spawn("a").bytes(8)

    def test_hash_length_prefixing(self):
        assert H(b"ab", b"c") != H(b"a", b"bc")

    def test_expand_deterministic_and_sized(self):
        out = H_expand("t", b"seed", 100)
        assert len(out) == 100
        assert out == H_expand("t", b"seed", 100)
