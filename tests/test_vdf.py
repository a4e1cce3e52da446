"""Delay-function correctness against brute-force oracles on factorable
moduli, proof soundness, and the difficulty plumbing."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slapx.errors import ParameterError
from slapx import vdf
from slapx.hashes import (PRIME_GAP_BOUND, hash_to_prime, hash_to_prime_floor,
                          int_sum_to_bytes, may_be_next_prime)
from slapx.modmath import (SIEVE_PRODUCT, is_probable_prime,
                           is_strong_base2_probable_prime, multiexp,
                           next_prime, random_prime, rsa_setup)
from slapx.rng import SeededRng
from slapx.vdf import (DIFFICULTY_TABLE, ModulusPool, VdfChallenge,
                       VdfSolution, challenge_base, difficulty_for,
                       floor_base, sequential_square, vdf_eval, vdf_verify)


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
            tau = rng.randrange(2 ** 10 + 1)
            m = rng.bytes(12)
            sol = vdf_eval(n, VdfChallenge(m, tau))
            x = challenge_base(n, m)
            assert sol.y == euler_reduced_power(x, tau, n, p, q)
            assert vdf_verify(n, VdfChallenge(m, tau), sol)

    def test_direct_square_chain(self):
        # 2^(2^3) mod 35 = 256 mod 35
        y, _ = sequential_square(2, 3, 35)
        assert y == 11

    def test_tau_zero_is_identity(self):
        sol = vdf_eval(35, VdfChallenge(b"z", 0))
        assert sol.y == challenge_base(35, b"z")
        assert vdf_verify(35, VdfChallenge(b"z", 0), sol)


@pytest.fixture(scope="module")
def setup():
    params = rsa_setup(256, SeededRng(7))
    ch = VdfChallenge(b"input", 200)
    return params, ch, vdf_eval(params, ch)


class TestPi:
    """pi is x^floor(2^tau / ell), also for tau that are not a multiple of
    four and for a quotient of 0: the reference any faster way of forming
    pi must keep to."""

    @pytest.mark.parametrize("tau", [0, 1, 3, 4, 5, 255, 256, 257, 1000, 1003])
    def test_pi_equals_pow(self, setup, tau):
        params = setup[0]
        ch = VdfChallenge(b"pi", tau)
        sol = vdf_eval(params, ch)
        x = challenge_base(params, ch.m)
        assert sol.pi == pow(x, (1 << tau) // sol.ell, params)
        assert vdf_verify(params, ch, sol)


class TestVerify:

    def test_roundtrip(self, setup):
        params, ch, sol = setup
        assert vdf_verify(params, ch, sol)

    def test_tampered_pi_rejected(self, setup):
        params, ch, sol = setup
        bad = VdfSolution(sol.ell, (sol.pi + 1) % params, sol.y)
        assert not vdf_verify(params, ch, bad)

    def test_tampered_y_rejected(self, setup):
        params, ch, sol = setup
        bad = VdfSolution(sol.ell, sol.pi, (sol.y + 1) % params)
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
        params = rsa_setup(128, SeededRng(9))
        ch = VdfChallenge(b"same", 100)
        a, b = vdf_eval(params, ch), vdf_eval(params, ch)
        assert (a.ell, a.pi, a.y) == (b.ell, b.pi, b.y)


class TestSetup:
    def test_kappa_floor(self):
        with pytest.raises(ParameterError):
            VdfChallenge(b"x", -1)

    def test_fresh_modulus_per_setup(self):
        rng = SeededRng(3)
        assert rsa_setup(128, rng) != rsa_setup(128, rng)

    def test_difficulty_table(self):
        assert difficulty_for("default") == 10 ** 3
        assert difficulty_for("high_power") == 10 ** 4
        assert difficulty_for("flagged") == 8 * 10 ** 4
        assert difficulty_for("unknown-kind") == DIFFICULTY_TABLE["default"]


class TestModulusPool:
    def test_inline_fallback_and_width(self):
        pool = ModulusPool(bits=128, rng=SeededRng(4))
        assert pool.get().bit_length() in (127, 128)


def reference_verify(n, challenge, sol) -> bool:
    """vdf_verify as it was before it compared ell first: it tested the
    submitted ell for primality on its own and checked the power equation
    before recomputing ell. vdf_verify must accept exactly what this does."""
    if not (0 <= sol.pi < n and 0 <= sol.y < n):
        return False
    if sol.ell < 2 or not is_probable_prime(sol.ell):
        return False
    x = challenge_base(n, challenge.m)
    r = pow(2, challenge.tau, sol.ell)
    y_check = (pow(sol.pi, sol.ell, n) * pow(x, r, n)) % n
    if y_check != sol.y:
        return False
    return sol.ell == hash_to_prime(int_sum_to_bytes(x + y_check))


def tampered_solutions(n, ch, sol, big_prime):
    ell, pi, y = sol.ell, sol.pi, sol.y
    x = challenge_base(n, ch.m)

    def forged(e):
        # a proof for exponent e that satisfies pi^e * x^r == y; only the
        # comparison with the recomputed ell can reject it
        return VdfSolution(e, pow(x, (1 << ch.tau) // e, n), y)

    # ell = next_prime(h): exponents below, at and just above h
    h = hash_to_prime_floor(int_sum_to_bytes(x + y))
    around_h = {
        "forged for prime below H(x+y)": next_prime(h // 2),
        "forged for H(x+y) - 1": h - 1,
        "forged for H(x+y)": h,
        "forged for H(x+y) + 1": h + 1,
        "forged for ell - 1": ell - 1,
    }
    return {
        **{name: forged(e) for name, e in around_h.items() if e != ell},
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
            params = rsa_setup(256, rng.spawn(f"full{i}"))
            cases.append((params, VdfChallenge(rng.bytes(8), 50 + 30 * i)))
        for i in range(3):
            n, _, _ = tiny_modulus(rng.spawn(f"tiny{i}"))
            cases.append((n, VdfChallenge(rng.bytes(8), rng.randrange(300))))
        for params, ch in cases:
            sol = vdf_eval(params, ch)
            assert vdf_verify(params, ch, sol) and reference_verify(params, ch, sol)
            assert vdf_verify(params, ch, sol, floor_base(params, ch, sol))
            for challenge in (VdfChallenge(ch.m + b"!", ch.tau),
                              VdfChallenge(ch.m, ch.tau + 1)):
                assert vdf_verify(params, challenge, sol) == \
                    reference_verify(params, challenge, sol)
            for name, bad in tampered_solutions(params, ch, sol, big_prime).items():
                assert not reference_verify(params, ch, bad), name
                assert not vdf_verify(params, ch, bad), name
                # the server's two steps: the floor's x, then the full check
                x = floor_base(params, ch, bad)
                assert x is None or not vdf_verify(params, ch, bad, x), name

    def test_ell_below_digest_rejected_without_prime_search(self, monkeypatch):
        params = rsa_setup(256, SeededRng(62))
        ch = VdfChallenge(b"m", 40)
        sol = vdf_eval(params, ch)
        h = hash_to_prime_floor(int_sum_to_bytes(
            challenge_base(params, ch.m) + sol.y))

        def no_search(_):
            raise AssertionError("hash_to_prime called")

        monkeypatch.setattr(vdf, "hash_to_prime", no_search)
        assert not vdf_verify(params, ch, VdfSolution(h - 1, sol.pi, sol.y))
        with pytest.raises(AssertionError):
            vdf_verify(params, ch, sol)


# -- the prime-gap window and the base-2 test ahead of the prime search -------

def search_verify(n, challenge, sol) -> bool:
    """vdf_verify as it was before the prime-gap window and the base-2
    test: every ell at or above the floor is compared with the prime that
    hash_to_prime searches for. vdf_verify must decide as this does."""
    if not (0 <= sol.pi < n and 0 <= sol.y < n):
        return False
    x = challenge_base(n, challenge.m)
    if sol.ell < hash_to_prime_floor(int_sum_to_bytes(x + sol.y)):
        return False
    if sol.ell != hash_to_prime(int_sum_to_bytes(x + sol.y)):
        return False
    r = pow(2, challenge.tau, sol.ell)
    return multiexp(((sol.pi, sol.ell), (x, r)), n) == sol.y


def passes_pre_search(h: int, ell: int) -> bool:
    """The checks vdf_verify runs on ell between the floor and the search."""
    return may_be_next_prime(h, ell) and is_strong_base2_probable_prime(ell)


class TestPrimeGapWindow:
    def test_bound_derivation(self):
        # 2^256 / (256 ln 2)^3, Dusart's gap bound at the largest digest,
        # is at most 2^234
        assert PRIME_GAP_BOUND == 2 ** 234
        assert 2 ** 22 <= (256 * math.log(2)) ** 3

    @given(h=st.integers(0, 2 ** 256 - 1), offset=st.integers(0, 2 ** 256))
    @settings(max_examples=60, deadline=None)
    @example(h=0, offset=2)
    @example(h=89_692, offset=1)
    @example(h=2 ** 256 - 1, offset=PRIME_GAP_BOUND + 1)
    def test_refuses_only_what_is_not_the_next_prime(self, h, offset):
        p = next_prime(h)
        gap = p - h
        for off in (0, 1, gap, gap - 2, gap + 2, PRIME_GAP_BOUND,
                    PRIME_GAP_BOUND + 1, offset):
            ell = h + off
            assert may_be_next_prime(h, ell) == (0 <= off <= PRIME_GAP_BOUND)
            assert passes_pre_search(h, ell) or ell != p, off
        assert passes_pre_search(h, p)

    def test_next_prime_below_dusarts_range(self):
        # Dusart's bound starts at 89,693; below it the gaps are small
        primes = [q for q in range(2, 100_200) if is_probable_prime(q)]
        for n in range(0, 100_000, 37):
            p = next_prime(n)
            assert p == min(q for q in primes if q >= n)
            assert p - n < 100 and passes_pre_search(n, p), n

    def test_base2_half_is_not_the_full_test(self):
        # a strong pseudoprime to bases 2..23 with no factor below 2^14
        spsp = 3825123056546413051
        assert is_strong_base2_probable_prime(spsp)
        assert not is_probable_prime(spsp)
        assert not is_strong_base2_probable_prime(spsp + 2)


def ell_kinds(n, ch, sol):
    """A solution of ch under each kind of wrong ell, and the valid one."""
    x = challenge_base(n, ch.m)
    h = hash_to_prime_floor(int_sum_to_bytes(x + sol.y))
    stale = [vdf_eval(n, VdfChallenge(ch.m + b"%d" % i, ch.tau))
             for i in range(6)]
    composite = next(c for c in range(h, h + 10_000)
                     if not is_probable_prime(c))
    survivor = next(c for c in range(h | 1, h + 100_000, 2)
                    if math.gcd(c, SIEVE_PRODUCT) == 1
                    and not is_probable_prime(c))
    other_prime = next_prime(sol.ell + 1)
    return {
        "valid": sol,
        **{f"stale {i}": other for i, other in enumerate(stale)},
        "composite at H(x+y)": VdfSolution(composite, sol.pi, sol.y),
        "odd ell past the sieve": VdfSolution(survivor, sol.pi, sol.y),
        "prime in window": VdfSolution(other_prime, sol.pi, sol.y),
        # pi^e * x^r == y holds, so only the prime search refuses it
        "forged for a prime in window": VdfSolution(
            other_prime, pow(x, (1 << ch.tau) // other_prime, n), sol.y),
        "prime at the window's edge": VdfSolution(
            next_prime(h + PRIME_GAP_BOUND - 10 ** 6), sol.pi, sol.y),
        "prime past the window": VdfSolution(
            next_prime(h + PRIME_GAP_BOUND + 1), sol.pi, sol.y),
        "wrong pi": VdfSolution(sol.ell, (sol.pi + 1) % n, sol.y),
    }


class TestVerifyMatchesSearch:
    @pytest.mark.parametrize("bits", [64, 256])
    def test_every_ell_kind(self, bits, monkeypatch):
        n = rsa_setup(bits, SeededRng(63 + bits))
        ch = VdfChallenge(b"kinds", 30)
        sol = vdf_eval(n, ch)
        searches = []
        monkeypatch.setattr(vdf, "hash_to_prime",
                            lambda m: searches.append(m) or hash_to_prime(m))
        for name, cand in ell_kinds(n, ch, sol).items():
            searches.clear()
            assert vdf_verify(n, ch, cand) == search_verify(n, ch, cand), name
            assert vdf_verify(n, ch, cand) == (name == "valid"), name
            x = challenge_base(n, ch.m)
            h = hash_to_prime_floor(int_sum_to_bytes(x + cand.y))
            # only a probable prime inside the window buys a search
            searched = bool(searches)
            assert searched == passes_pre_search(h, cand.ell), name
