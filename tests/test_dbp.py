"""Distance bounding: key agreement, response table indexing, verification
thresholds, and the fraud acceptance bound."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slapx.dbp import (SPEED_OF_LIGHT_M_S, DbpConfig, RoundTranscript,
                       dbp_aka, dbp_respond, dbp_response_table, dbp_verify,
                       run_honest_session)
from slapx.errors import CryptoError, ParameterError
from slapx.group import CURVE, SigningKey
from slapx.rng import SeededRng


def bits(s: str) -> bytes:
    return bytes(int(c) for c in s)


class TestAka:
    def test_symmetry(self):
        rng = SeededRng(1)
        a = SigningKey.generate(rng)
        b = SigningKey.generate(rng)
        assert dbp_aka(a, b.pk, b"v", 50) == dbp_aka(b, a.pk, b"v", 50)

    def test_nonce_separates(self):
        rng = SeededRng(2)
        a = SigningKey.generate(rng)
        b = SigningKey.generate(rng)
        assert dbp_aka(a, b.pk, b"v1", 50) != dbp_aka(a, b.pk, b"v2", 50)

    def test_identity_peer_rejected(self):
        a = SigningKey.generate(SeededRng(3))
        with pytest.raises(CryptoError):
            dbp_aka(a, CURVE.identity, b"v", 10)

    def test_length_is_2n_bits(self):
        a = SigningKey.generate(SeededRng(4))
        b = SigningKey.generate(SeededRng(5))
        ss = dbp_aka(a, b.pk, b"v", 100)
        assert len(ss) == 200 and set(ss) <= {0, 1}


class TestResponseTable:
    def test_hand_xor(self):
        assert dbp_response_table(bits("1010"), bits("0110")) == bits("1100")

    def test_self_cancellation(self):
        ss = bits("1011")
        assert dbp_response_table(ss, ss) == bits("0000")

    def test_identity_mask(self):
        ss = bits("1011")
        assert dbp_response_table(ss, bits("0000")) == ss

    def test_length_mismatch(self):
        with pytest.raises(CryptoError):
            dbp_response_table(bits("10"), bits("1"))

    @given(st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_xor_involution(self, n):
        rng = SeededRng(n)
        ss = bytes(rng.randint_bits(1) for _ in range(2 * n))
        m = bytes(rng.randint_bits(1) for _ in range(2 * n))
        assert dbp_response_table(dbp_response_table(ss, m), m) == ss


class TestRespond:
    def test_indexing_examples(self):
        a = bits("1100")
        assert dbp_respond(a, 1, 0) == 1   # a_1
        assert dbp_respond(a, 2, 0) == 0   # a_3
        assert dbp_respond(a, 2, 1) == 0   # a_4

    def test_out_of_range(self):
        with pytest.raises(CryptoError):
            dbp_respond(bits("1100"), 3, 0)
        with pytest.raises(CryptoError):
            dbp_respond(bits("1100"), 0, 0)
        with pytest.raises(CryptoError):
            dbp_respond(bits("1100"), 1, 2)


class TestVerify:
    def test_config_validation(self):
        with pytest.raises(ParameterError):
            DbpConfig(n=0, th=50)
        with pytest.raises(ParameterError):
            DbpConfig(n=10, th=50, tolerance=1.0)
        with pytest.raises(ParameterError):
            DbpConfig(n=10, th=0)

    def test_honest_prover_within_threshold_accepts(self):
        cfg = DbpConfig(n=50, th=50.0)
        rng = SeededRng(6)
        ss = bytes(rng.randint_bits(1) for _ in range(100))
        m, transcripts = run_honest_session(cfg, ss, 10.0, rng)
        assert dbp_verify(cfg, dbp_response_table(ss, m), transcripts)

    def test_far_prover_fails_timing(self):
        cfg = DbpConfig(n=20, th=50.0)
        rng = SeededRng(7)
        ss = bytes(rng.randint_bits(1) for _ in range(40))
        m, transcripts = run_honest_session(cfg, ss, 400.0, rng)
        assert not dbp_verify(cfg, dbp_response_table(ss, m), transcripts)

    def test_tolerance_threshold_exact(self):
        # 100 rounds at tolerance 0.2: accept needs >= 80 correct rounds
        cfg = DbpConfig(n=100, th=50.0, tolerance=0.2)
        rng = SeededRng(8)
        ss = bytes(rng.randint_bits(1) for _ in range(200))
        m, transcripts = run_honest_session(cfg, ss, 10.0, rng)
        a = dbp_response_table(ss, m)

        def corrupt(k):
            out = []
            for i, t in enumerate(transcripts):
                if i < k:
                    out.append(RoundTranscript(t.c, 1 - t.r, t.rtt_ns))
                else:
                    out.append(t)
            return out

        assert dbp_verify(cfg, a, corrupt(20))       # exactly 80 correct
        assert not dbp_verify(cfg, a, corrupt(21))   # 79 correct

    # a round answered with the right bit but no measurable distance fails
    @pytest.mark.parametrize("rtt_ns", [-1e-6, -math.inf, math.nan])
    def test_unmeasurable_rtt_fails(self, rtt_ns):
        cfg = DbpConfig(n=1, th=50.0)
        a = bits("01")
        assert dbp_verify(cfg, a, [RoundTranscript(1, dbp_respond(a, 1, 1), 0.0)])
        assert not dbp_verify(cfg, a, [RoundTranscript(1, dbp_respond(a, 1, 1),
                                                       rtt_ns)])

    def test_wrong_round_count_rejected(self):
        cfg = DbpConfig(n=10, th=50.0)
        assert not dbp_verify(cfg, bits("10" * 10), [])

    def test_rtt_bound_is_two_thresholds_at_light_speed(self):
        cfg = DbpConfig(n=1, th=50.0)
        assert cfg.rtt_bound_ns == pytest.approx(
            2 * 50.0 / SPEED_OF_LIGHT_M_S * 1e9)

    def test_far_attacker_binomial_tail(self):
        # early-responder with guess probability 1/2: acceptance over many
        # sessions tracks the (3/4)^n bound for zero tolerance
        n, trials = 20, 20000
        rng = random.Random(9)
        hits = 0
        q = 0.75
        for _ in range(trials):
            ok = all(rng.random() < q for _ in range(n))
            hits += ok
        expected = q ** n
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 3 * sigma + 1e-9

