"""Group laws, hash-to-prime, RSA modulus generation, seeded randomness."""
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slapx.errors import CryptoError, ParameterError
from slapx import vdf
from slapx.group import (BETA, COMB_WIDTH, CURVE, ELEMENT_BYTES, FIELD_P,
                         G_COMB_WIDTH, LAMBDA, CombTable, Group, GroupElement,
                         SigningKey, _build_comb, _split, sgn_verify)
from slapx.hashes import (H, H_expand, hash_to_prime, hash_to_prime_floor,
                          int_sum_to_bytes)
from slapx.modmath import (FIXED_BASE_WINDOW, MR_ROUNDS, SIEVE_BOUND,
                           SIEVE_PRODUCT, FixedBase, _SMALL_PRIMES,
                           _strong_lucas_test, _strong_test,
                           fixed_base_multiexp, is_probable_prime, multiexp,
                           next_prime, random_prime, random_prime_rounds,
                           rsa_setup)
from slapx.rng import SeededRng

GROUP, GEN = CURVE, CURVE.generator


def add(a, b):
    return GROUP.muladd(1, a, 1, b)


class TestGroup:
    def test_supported_levels(self):
        assert GROUP.order.bit_length() >= 2 * 128
        assert GROUP.mul(GEN, GROUP.order).is_identity

    def test_zero_and_order_annihilation(self):
        assert GROUP.mul(GEN, 0).is_identity
        assert GROUP.mul(GEN, GROUP.order).is_identity

    def test_group_laws_random_triples(self):
        rng = SeededRng(2024)
        pts = [GROUP.mul(GEN, GROUP.random_scalar(rng)) for _ in range(30)]
        for i in range(1000):
            a = pts[i % 30]
            b = pts[(i * 7 + 1) % 30]
            c = pts[(i * 13 + 2) % 30]
            assert add(add(a, b), c) == add(a, add(b, c))
            assert add(a, GROUP.identity) == a
            assert add(a, REF.neg(a)).is_identity

    def test_commutativity(self):
        rng = SeededRng(5)
        a = GROUP.mul(GEN, GROUP.random_scalar(rng))
        b = GROUP.mul(GEN, GROUP.random_scalar(rng))
        assert add(a, b) == add(b, a)

    @given(st.integers(min_value=1, max_value=2 ** 64))
    @settings(max_examples=50, deadline=None)
    def test_serialization_roundtrip(self, k):
        p = GROUP.mul(GEN, k)
        assert GROUP.from_bytes(p.to_bytes()) == p
        assert len(p.to_bytes()) == ELEMENT_BYTES

    def test_identity_serialization(self):
        raw = GROUP.identity.to_bytes()
        assert raw == b"\x00" * ELEMENT_BYTES
        assert GROUP.from_bytes(raw).is_identity

    @given(st.integers(min_value=1, max_value=2 ** 32),
           st.integers(min_value=1, max_value=2 ** 32))
    @settings(max_examples=30, deadline=None)
    def test_muladd_matches_separate(self, a, b):
        P = GROUP.mul(GEN, 3)
        Q = GROUP.mul(GEN, 11)
        assert GROUP.muladd(a, P, b, Q) == add(GROUP.mul(P, a), GROUP.mul(Q, b))

    def test_bad_encodings_rejected(self):
        with pytest.raises(CryptoError):
            GROUP.from_bytes(b"\x05" * ELEMENT_BYTES)
        with pytest.raises(CryptoError):
            GROUP.from_bytes(b"\x02")

    def test_hash_to_point_on_curve_and_deterministic(self):
        p1 = GROUP.hash_to_point("t", b"hello")
        p2 = GROUP.hash_to_point("t", b"hello")
        p3 = GROUP.hash_to_point("t", b"other")
        assert p1 == p2 != p3
        assert GROUP.from_bytes(p1.to_bytes()) == p1

    def test_scalar_encoding_bounds(self):
        with pytest.raises(CryptoError):
            GROUP.scalar_to_bytes(GROUP.order)
        assert GROUP.scalar_from_bytes(GROUP.scalar_to_bytes(12345)) == 12345


class ReferenceGroup(Group):
    """Bit-by-bit double-and-add in Jacobian coordinates, with a general-a
    doubling, a general addition and separate mul and muladd loops: the
    reference the GLV/wNAF kernel is checked against."""

    A = 0   # secp256k1

    def neg(self, P):
        return P if P.is_identity else GroupElement(P.x, (-P.y) % FIELD_P)

    def _to_jac(self, P):
        if P.is_identity:
            return (0, 1, 0)
        return (P.x, P.y, 1)

    def _from_jac(self, P):
        X, Y, Z = P
        if Z == 0:
            return self.identity
        p = FIELD_P
        zinv = pow(Z, p - 2, p)
        zinv2 = (zinv * zinv) % p
        return GroupElement((X * zinv2) % p, (Y * zinv2 * zinv) % p)

    def _jac_add(self, P, Q):
        p = FIELD_P
        X1, Y1, Z1 = P
        X2, Y2, Z2 = Q
        if Z1 == 0:
            return Q
        if Z2 == 0:
            return P
        Z1s = (Z1 * Z1) % p
        Z2s = (Z2 * Z2) % p
        U1 = (X1 * Z2s) % p
        U2 = (X2 * Z1s) % p
        S1 = (Y1 * Z2s * Z2) % p
        S2 = (Y2 * Z1s * Z1) % p
        if U1 == U2:
            if S1 != S2:
                return (0, 1, 0)
            return self._jac_double(P)
        Hh = (U2 - U1) % p
        I = (4 * Hh * Hh) % p
        J = (Hh * I) % p
        r = (2 * (S2 - S1)) % p
        V = (U1 * I) % p
        X3 = (r * r - J - 2 * V) % p
        Y3 = (r * (V - X3) - 2 * S1 * J) % p
        Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1s - Z2s) % p
        Z3 = (Z3 * Hh) % p
        return (X3, Y3, Z3)

    def _jac_double(self, P):
        X1, Y1, Z1 = P
        p = FIELD_P
        if Y1 == 0:
            return (0, 1, 0)
        A = (X1 * X1) % p
        B = (Y1 * Y1) % p
        C = (B * B) % p
        D = (2 * ((X1 + B) * (X1 + B) - A - C)) % p
        Zsq = (Z1 * Z1) % p
        E = (3 * A + self.A * Zsq % p * Zsq) % p
        X3 = (E * E - 2 * D) % p
        Y3 = (E * (D - X3) - 8 * C) % p
        Z3 = (2 * Y1 * Z1) % p
        return (X3, Y3, Z3)

    def mul(self, P, k):
        k %= self.order
        if k == 0 or P.is_identity:
            return self.identity
        acc = (0, 1, 0)
        base = self._to_jac(P)
        for bit in bin(k)[2:]:
            acc = self._jac_double(acc)
            if bit == "1":
                acc = self._jac_add(acc, base)
        return self._from_jac(acc)

    def muladd(self, a, P, b, Q):
        a %= self.order
        b %= self.order
        if a == 0:
            return self.mul(Q, b)
        if b == 0:
            return self.mul(P, a)
        jp, jq = self._to_jac(P), self._to_jac(Q)
        jpq = self._jac_add(jp, jq)
        acc = (0, 1, 0)
        for i in range(max(a.bit_length(), b.bit_length()) - 1, -1, -1):
            acc = self._jac_double(acc)
            ab = (a >> i) & 1
            bb = (b >> i) & 1
            if ab and bb:
                acc = self._jac_add(acc, jpq)
            elif ab:
                acc = self._jac_add(acc, jp)
            elif bb:
                acc = self._jac_add(acc, jq)
        return self._from_jac(acc)


REF = ReferenceGroup()
N = GROUP.order


def top_row_scalars() -> list[int]:
    """The first seeded scalars with a GLV half of each index and sign that
    carries into the last row of the generator's comb (w = 8, 17 rows):
    |half| > 128 * (2^128 - 1) / 255, the most the first 16 rows' signed
    digits sum to. Such a half also reaches the last row of a w = 5 comb
    (26 rows), which opens above 16 * (2^125 - 1) / 31."""
    bound = 128 * ((1 << 128) - 1) // 255
    rng, found = SeededRng(3), {}
    while len(found) < 4:
        k = rng.randint_bits(256) % N
        for index, half in enumerate(_split(k)):
            if abs(half) > bound:
                found.setdefault((index, half > 0), k)
    return sorted(found.values())


TOP_ROW_SCALARS = top_row_scalars()
# edge scalars: a GLV half of k is zero for small k, LAMBDA and N - LAMBDA,
# and negative for N - LAMBDA and N - 1
SCALARS = st.one_of(st.sampled_from([0, 1, 2, 3, N - 1, N, N + 1, LAMBDA,
                                     N - LAMBDA, LAMBDA + 1, N - LAMBDA - 1,
                                     *TOP_ROW_SCALARS]),
                    st.integers(0, 2 ** 16),
                    st.integers(0, 2 ** 256 - 1),
                    st.integers(-(2 ** 256), -1))     # reduced mod N first


@st.composite
def operands(draw):
    """(P, Q, P', Q') with P random, the generator or the identity and Q
    random, the generator, P, -P or the identity; points built by the
    reference arithmetic. P' and Q' are what the kernel is given: the point,
    its `Group.table` or its `Group.comb`. The generator is an equal but
    distinct GroupElement."""
    def point():
        kind = draw(st.sampled_from(["random", "generator", "identity"]))
        if kind == "identity":
            return REF.identity
        if kind == "generator":
            return GroupElement(REF.generator.x, REF.generator.y)
        return REF.mul(REF.generator, draw(st.integers(1, N - 1)))
    P = point()
    Q = draw(st.sampled_from(["random", "same", "negated", "identity"]))
    Q = {"random": point, "same": lambda: P, "negated": lambda: REF.neg(P),
         "identity": lambda: REF.identity}[Q]()
    P_arg, Q_arg = (draw(st.sampled_from([X, GROUP.table(X), GROUP.comb(X)]))
                    for X in (P, Q))
    return P, Q, P_arg, Q_arg


def comb_tables(P):
    """P's comb tables at both widths the kernel uses."""
    return [GROUP.comb(P), _build_comb(P, G_COMB_WIDTH)]


class TestLadderMatchesReference:
    @given(SCALARS, operands())
    @settings(max_examples=60, deadline=None)
    def test_mul(self, k, points):
        P, _, P_arg, _ = points
        assert GROUP.mul(P_arg, k) == REF.mul(P, k)

    @given(SCALARS, SCALARS, operands())
    @settings(max_examples=120, deadline=None)
    def test_muladd(self, a, b, points):
        P, Q, P_arg, Q_arg = points
        assert GROUP.muladd(a, P_arg, b, Q_arg) == REF.muladd(a, P, b, Q)

    @pytest.mark.parametrize("a", [1, 2, 3, 5, 16, 2 ** 64 + 1, LAMBDA,
                                   *TOP_ROW_SCALARS])
    @pytest.mark.parametrize("base", ["generator", "random"])
    def test_equal_and_opposite_addends(self, a, base):
        # a*P + a*P and a*P + a*(-P) add each digit's entry twice, at one
        # step of the Straus loop or one after the other from comb tables:
        # the mixed addition's equal-points and opposite-points cases
        P = GEN if base == "generator" else REF.mul(REF.generator, 0xC0FFEE)
        for P_arg in (P, GROUP.table(P), *comb_tables(P)):
            for neg_arg in (REF.neg(P), *comb_tables(REF.neg(P))):
                assert GROUP.muladd(a, P_arg, a, P_arg) == REF.mul(P, 2 * a)
                assert GROUP.muladd(a, P_arg, a, neg_arg).is_identity
                assert GROUP.muladd(a + 1, P_arg, a, neg_arg) == P

    def test_comb_tables(self):
        # the generator's is the one built at import; the identity's holds
        # no entry, and its products are the identity
        assert GROUP.table(GEN) is GROUP.comb(GEN) is GROUP.comb(
            GroupElement(GEN.x, GEN.y))
        assert (GROUP.comb(GEN).width, len(GROUP.comb(GEN).entries)) == (
            G_COMB_WIDTH, 17 * 128 * 64)
        P = REF.mul(REF.generator, 0xC0FFEE)
        assert (GROUP.comb(P).width, len(GROUP.comb(P).entries)) == (
            COMB_WIDTH, 26 * 16 * 64)
        empty = GROUP.comb(GROUP.identity)
        assert isinstance(empty, CombTable) and empty.entries == b""
        for k in (0, 1, 2, N - 1, LAMBDA, *TOP_ROW_SCALARS):
            assert GROUP.mul(empty, k).is_identity
            assert GROUP.muladd(k, empty, k, GEN) == REF.mul(GEN, k)

    def test_endomorphism(self):
        assert GROUP.mul(GEN, LAMBDA) == GroupElement(BETA * GEN.x % FIELD_P,
                                                      GEN.y)
        assert REF.mul(GEN, LAMBDA) == GroupElement(BETA * GEN.x % FIELD_P,
                                                    GEN.y)

    @given(st.one_of(st.sampled_from([0, 1, N - 1, LAMBDA, N - LAMBDA]),
                     st.integers(0, N - 1)))
    @settings(max_examples=200, deadline=None)
    def test_split(self, k):
        k1, k2 = _split(k)
        assert (k1 + LAMBDA * k2 - k) % N == 0
        assert abs(k1) < 2 ** 129 and abs(k2) < 2 ** 129


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
        # 256 bits; its outputs must still pass 64 Miller-Rabin rounds
        # (an rng selects the rounds; without one Baillie-PSW runs)
        rng, bases = SeededRng(9), SeededRng(10)
        for bits, count in ((64, 20), (512, 4), (1024, 2)):
            for _ in range(count):
                p = random_prime(bits, rng)
                assert p.bit_length() == bits
                assert p >> (bits - 2) == 0b11          # top two bits forced
                assert is_probable_prime(p, bases, rounds=64)


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


def reference_is_probable_prime(n: int, rng: SeededRng | None = None,
                                rounds: int = MR_ROUNDS) -> bool:
    """The Miller-Rabin test the prime search used before Baillie-PSW:
    `rounds` bases drawn from rng, or from SeededRng(0xA5A5 ^ n) without one."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
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


def reference_next_prime(n: int) -> int:
    """next_prime over the 64-round reference test."""
    if n <= 2:
        return 2
    c = n | 1
    if c < n:
        c += 2
    while not reference_is_probable_prime(c):
        c += 2
    return c


def criterion_1_digests() -> list[int]:
    """H(x + y) of the evals timed by acceptance criterion 1 (b): tau = 2^8
    ... 2^16 on the SeededRng(1002) 2048-bit modulus, message b"lin"."""
    n = rsa_setup(2048, SeededRng(1002))
    x = vdf.challenge_base(n, b"lin")
    y, done, out = x, 0, []
    for k in range(8, 17):
        y, _ = vdf.sequential_square(y, (1 << k) - done, n)
        done = 1 << k
        out.append(hash_to_prime_floor(int_sum_to_bytes(x + y)))
    return out


KNOWN_PRIMES = [257, 16381, 16411, 65537, 2 ** 31 - 1, 2 ** 61 - 1,
                2 ** 89 - 1, 2 ** 127 - 1, 2 ** 255 - 19, FIELD_P, N,
                2 ** 521 - 1]
# strong pseudoprimes to base 2; the last to every prime base up to 23
BASE_2_PSEUDOPRIMES = [2047, 3277, 4033, 4681, 8321, 3825123056546413051]
# strong Lucas pseudoprimes under Selfridge's method A (OEIS A217255)
LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                      40309, 58519]


class TestPrimeSearchReference:
    """Baillie-PSW against the 64-round Miller-Rabin search it replaced."""

    def test_seeded_256_bit_inputs(self):
        rng = SeededRng(256)
        for _ in range(200):
            n = rng.randint_bits(256)
            assert next_prime(n) == reference_next_prime(n)

    def test_criterion_1_inputs(self):
        digests = criterion_1_digests()
        assert len(set(digests)) == 9
        for h in digests:
            assert next_prime(h) == reference_next_prime(h)

    def test_known_primes(self):
        for p in KNOWN_PRIMES:
            assert is_probable_prime(p) and reference_is_probable_prime(p)
            assert next_prime(p) == p
            assert next_prime(p + 1) == reference_next_prime(p + 1)

    def test_rng_path_keeps_rounds_and_draws(self):
        # random_prime's candidates: same verdicts, same draws consumed
        for bits, rounds in ((64, 64), (512, random_prime_rounds(512))):
            draw, new_rng, ref_rng = SeededRng(bits), SeededRng(7), SeededRng(7)
            for _ in range(300):
                c = draw.randint_bits(bits) | 1 << (bits - 1) | 1
                assert (is_probable_prime(c, new_rng, rounds)
                        == reference_is_probable_prime(c, ref_rng, rounds))
            assert new_rng.randint_bits(64) == ref_rng.randint_bits(64)

    def test_base_2_pseudoprimes_rejected(self):
        for n in BASE_2_PSEUDOPRIMES:
            assert _strong_test(n, 2)
            assert not is_probable_prime(n)

    def test_lucas_pseudoprimes_fail_base_2(self):
        for n in LUCAS_PSEUDOPRIMES:
            assert not brute_force_prime(n)
            assert _strong_lucas_test(n)
            assert not _strong_test(n, 2)
            assert not is_probable_prime(n)

    def test_lucas_step_alone(self):
        for p in KNOWN_PRIMES[:-1]:
            assert _strong_lucas_test(p)
        # 5459 is the least strong Lucas pseudoprime: below it the step
        # alone is exact
        small = [n for n in range(3, 5459, 2)
                 if _strong_lucas_test(n) and not brute_force_prime(n)]
        assert small == []

    def test_perfect_squares_rejected(self):
        # 1093^2 and 3511^2 (Wieferich primes) pass the base-2 strong test
        for p in (1093, 3511, 16411, 65537, 2 ** 61 - 1, 2 ** 127 - 1):
            assert not _strong_lucas_test(p * p)
            assert not is_probable_prime(p * p)
        assert _strong_test(1093 ** 2, 2) and _strong_test(3511 ** 2, 2)


MULTIEXP_N = rsa_setup(512, SeededRng(93))
MULTIEXP_BASES = [pow(3 + i, 2, MULTIEXP_N) for i in range(4)]
# 384 bits: the widest credential response (Z_BYTES); 10 bits is not a
# multiple of the window, so that table covers 12
MULTIEXP_TABLES = [FixedBase(g, MULTIEXP_N, bits)
                   for g in MULTIEXP_BASES for bits in (384, 10)]
MULTIEXP_EDGES = [0, 1, (1 << FIXED_BASE_WINDOW) - 1, 1 << FIXED_BASE_WINDOW,
                  (1 << 12) - 1, 1 << 12, (1 << 384) - 1, 1 << 384, -1]


class TestFixedBaseMultiexp:
    @given(st.lists(st.tuples(
        st.integers(0, len(MULTIEXP_TABLES) - 1),
        st.one_of(st.sampled_from(MULTIEXP_EDGES), st.integers(0, 1 << 400),
                  st.integers(-(1 << 64), -1))), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_equals_pow_product(self, terms):
        n = MULTIEXP_N
        want = 1
        for j, e in terms:
            want = want * pow(MULTIEXP_BASES[j // 2], e, n) % n
        got = fixed_base_multiexp([(MULTIEXP_TABLES[j], e) for j, e in terms], n)
        assert got == want

    def test_table_width(self):
        wide, narrow = MULTIEXP_TABLES[:2]
        w = FIXED_BASE_WINDOW
        assert len(wide.powers) == -(-384 // w)
        assert len(narrow.powers) == -(-10 // w)
        for i, power in enumerate(narrow.powers):
            assert power == pow(MULTIEXP_BASES[0], 1 << (w * i), MULTIEXP_N)


MULTIEXP_EXPONENTS = [0, 1, 2, (1 << FIXED_BASE_WINDOW) - 1,
                      1 << FIXED_BASE_WINDOW, (1 << 256) - 1, 1 << 2048]


class TestMultiexp:
    """The shared-squaring product against one `pow` per base."""

    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([0, 1, MULTIEXP_N - 1, MULTIEXP_N,
                                   MULTIEXP_N + 1]),
                  st.integers(0, MULTIEXP_N - 1), st.integers(0, 1 << 600)),
        st.one_of(st.sampled_from(MULTIEXP_EXPONENTS),
                  st.integers(0, 1 << 16), st.integers(0, 1 << 600))),
        max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_equals_pow_product(self, terms):
        n = MULTIEXP_N
        want = 1
        for b, e in terms:
            want = want * pow(b, e, n) % n
        assert multiexp(terms, n) == want

    def test_edges(self):
        for n in (1, 2, 35, MULTIEXP_N):
            for b in (0, 1, n - 1, 7):
                for e, f in ((0, 0), (0, 5), (1, 1 << 300), (3, 2)):
                    want = pow(b, e, n) * pow(b + 1, f, n) % n
                    assert multiexp([(b, e), (b + 1, f)], n) == want
            assert multiexp([], n) == 1 % n


class TestRsaSetup:
    def test_standard_width(self):
        n = rsa_setup(256, SeededRng(1))
        assert n.bit_length() in (255, 256)
        assert n % 2 == 1

    def test_below_floor_rejected(self):
        with pytest.raises(ParameterError):
            rsa_setup(63, SeededRng(1))

    def test_deterministic_per_seed(self):
        for bits in (128, 512, 1024):
            assert rsa_setup(bits, SeededRng(5)) == rsa_setup(bits, SeededRng(5))
        assert rsa_setup(1024, SeededRng(5)) != rsa_setup(1024, SeededRng(6))


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


class TestSgnVerifyTable:
    """A fixed key's PointTable or comb table verifies exactly as the bare
    point does."""

    def test_table_matches_point(self):
        rng = SeededRng(31)
        key, other = SigningKey.generate(rng), SigningKey.generate(rng)
        for table in (GROUP.table(key.pk), GROUP.comb(key.pk)):
            for i in range(6):
                msg = b"puzzle-%d" % i
                sig = key.sign(msg, rng)
                forged = other.sign(msg, rng)
                flipped = bytes([sig[0] ^ 1]) + sig[1:]
                tail = sig[:-1] + bytes([sig[-1] ^ 1])
                for s_, m_ in ((sig, msg), (sig, msg + b"!"), (forged, msg),
                               (flipped, msg), (tail, msg), (sig[:-1], msg),
                               (sig[:16] + b"\xff" * 32, msg)):
                    want = sgn_verify(key.pk, m_, s_)
                    assert sgn_verify(table, m_, s_) == want
                assert sgn_verify(table, msg, sig)
                assert not sgn_verify(table, msg, forged)
