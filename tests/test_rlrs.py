"""Ring signature life cycle: signing, linking, revocation, tag algebra,
and the fixed-size wire block."""
import pytest

from slapx.errors import CryptoError, ParameterError
from slapx import group, rlrs
from slapx.group import CURVE, ORDER, CombTable
from slapx.rlrs import (MAX_RING, SIGNATURE_BYTES, EventId, decode_signature,
                        encode_signature, event_base, rlrs_extract, rlrs_link,
                        rlrs_revoke, rlrs_setup, rlrs_sign, rlrs_verify)
from slapx.rng import SeededRng

EVENT = EventId(10.0, 20.0, 7, b"beacon-digest-0123456789abcdef..")
EVENT2 = EventId(10.0, 20.0, 8, b"beacon-digest-0123456789abcdef..")


class TestSetupExtract:
    def test_deterministic_setup(self):
        msk_a, _ = rlrs_setup(SeededRng(5))
        msk_b, _ = rlrs_setup(SeededRng(5))
        assert msk_a == msk_b

    def test_extract_deterministic(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        assert rlrs_extract(msk, "AP-1", pp) == keys["AP-1"]

    def test_extract_key_separation(self, rlrs_env):
        msk, pp, *_ = rlrs_env
        other_msk, other_pp = rlrs_setup(SeededRng(99))
        assert rlrs_extract(msk, "X", pp) != rlrs_extract(other_msk, "X", other_pp)

    def test_empty_identity(self, rlrs_env):
        msk, pp, *_ = rlrs_env
        with pytest.raises(ParameterError):
            rlrs_extract(msk, "", pp)


class TestSignVerify:
    def test_roundtrip(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        sig = rlrs_sign(keys["AP-2"], b"msg", ring, EVENT, pp, rng)
        assert rlrs_verify(ring, b"msg", EVENT, sig, pp)

    def test_empty_ring_refused(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        sig = rlrs_sign(keys["AP-2"], b"msg", ring, EVENT, pp, rng)
        with pytest.raises(CryptoError, match="empty ring"):
            rlrs_sign(keys["AP-2"], b"msg", [], EVENT, pp, rng)
        assert not rlrs_verify([], b"msg", EVENT, sig, pp)

    def test_message_binding(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        sig = rlrs_sign(keys["AP-2"], b"msg", ring, EVENT, pp, rng)
        assert not rlrs_verify(ring, b"msh", EVENT, sig, pp)

    def test_ring_binding(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        sig = rlrs_sign(keys["AP-2"], b"msg", ring, EVENT, pp, rng)
        assert not rlrs_verify(ring[1:], b"msg", EVENT, sig, pp)

    def test_event_binding(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        sig = rlrs_sign(keys["AP-2"], b"msg", ring, EVENT, pp, rng)
        assert not rlrs_verify(ring, b"msg", EVENT2, sig, pp)

    def test_signer_not_in_ring(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        outsider = rlrs_extract(msk, "AP-OUT", pp)
        with pytest.raises(CryptoError):
            rlrs_sign(outsider, b"m", ring, EVENT, pp, rng)

    def test_duplicate_ring_member(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        with pytest.raises(CryptoError):
            rlrs_sign(keys["AP-0"], b"m", ["AP-0", "AP-0"], EVENT, pp, rng)


class TestDoublingsCounted:
    """The comb tables' gain pinned as a count of Jacobian doublings, which
    repeats exactly, where a timing would not: a product over comb tables
    runs none, and a ring member's R_i = s_i*u0 + c_i*tau, whose bases are
    new per event, runs one loop of at most 130."""

    @pytest.fixture
    def doublings(self, monkeypatch):
        count = [0]
        real = group._double

        def counted(*args):
            count[0] += 1
            return real(*args)

        monkeypatch.setattr(group, "_double", counted)
        return count

    def test_every_key_tabled_at_extraction(self):
        msk, pp = rlrs_setup(SeededRng(14))
        keys = {i: rlrs_extract(msk, i, pp) for i in ("A", "B", "C")}
        assert set(pp.keys) == set(keys)
        for identity, table in pp.keys.items():
            assert isinstance(table, CombTable) and table.entries
            assert table.point == CURVE.mul(CURVE.generator, keys[identity])

    def test_comb_products_run_no_doubling(self, rlrs_env, doublings):
        msk, pp, ring, keys, rng = rlrs_env
        for k in (1, 2, ORDER - 1, rng.randint_bits(256) % ORDER):
            CURVE.mul(CURVE.generator, k)
            CURVE.muladd(k, CURVE.generator, k + 1, pp.keys["AP-1"])
        assert doublings[0] == 0

    def test_ring_signature_doublings(self, rlrs_env, doublings):
        msk, pp, ring, keys, rng = rlrs_env
        ring4 = ring[:4]
        sig = rlrs_sign(keys["AP-2"], b"msg", ring4, EVENT, pp, SeededRng(5))
        # tau = s*u0, alpha*u0 and the three other members' R_i
        assert doublings[0] <= 5 * 130 + 2
        doublings[0] = 0
        assert rlrs_verify(ring4, b"msg", EVENT, sig, pp)
        assert doublings[0] <= 4 * 130 + 2


class TestTagAlgebra:
    def test_tag_pure_function_of_signer_and_event(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        s1 = rlrs_sign(keys["AP-1"], b"a", ring, EVENT, pp, rng)
        s2 = rlrs_sign(keys["AP-1"], b"b", ring[:3], EVENT, pp, rng)
        assert s1.tau == s2.tau == CURVE.mul(event_base(EVENT), keys["AP-1"])

    def test_event_scoping(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        s1 = rlrs_sign(keys["AP-1"], b"a", ring, EVENT, pp, rng)
        s2 = rlrs_sign(keys["AP-1"], b"a", ring, EVENT2, pp, rng)
        assert s1.tau != s2.tau

    def test_no_tag_collisions_across_signers(self, rlrs_env):
        msk, pp, *_ = rlrs_env
        # tau = u0^s is injective in s over a prime-order group, so tag
        # collisions are exactly exponent collisions; check the exponent
        # population at scale and real tags on a sample
        derive = CURVE.hash_to_scalar
        scalars = {derive("rlrs/extract", msk, f"ID-{i}".encode())
                   for i in range(10_000)}
        assert len(scalars) == 10_000
        for i in range(0, 10_000, 500):
            assert rlrs_extract(msk, f"ID-{i}", pp) == \
                derive("rlrs/extract", msk, f"ID-{i}".encode())
        u0 = event_base(EVENT)
        tags = {CURVE.mul(u0, rlrs_extract(msk, f"ID-{i}", pp)).to_bytes()
                for i in range(200)}
        assert len(tags) == 200

    def test_key_tables_fixed_at_extraction(self, rlrs_env):
        msk, _, ring, keys, rng = rlrs_env
        fresh = rlrs_setup(SeededRng(12))[1]
        for identity in ring[:4]:
            rlrs_extract(msk, identity, fresh)
        assert sorted(fresh.keys) == ring[:4]
        for identity in ring[:4]:
            assert fresh.key_table(identity).point == \
                CURVE.mul(CURVE.generator, keys[identity])
        # AP-4 was never extracted into fresh: it is no ring member there
        with pytest.raises(CryptoError, match="unknown identity"):
            fresh.key_table("AP-4")
        with pytest.raises(CryptoError):
            rlrs_sign(keys["AP-0"], b"m", ring, EVENT, fresh, rng)
        sig = rlrs_sign(keys["AP-0"], b"m", ring, EVENT, rlrs_env[1], rng)
        assert rlrs_verify(ring, b"m", EVENT, sig, rlrs_env[1])
        assert not rlrs_verify(ring, b"m", EVENT, sig, fresh)

    def test_event_encoding_injective_fields(self):
        a = EventId(1.0, 2.0, 3, b"x" * 32)
        b = EventId(1.0, 2.0, 4, b"x" * 32)
        c = EventId(1.0, 2.5, 3, b"x" * 32)
        assert len({a.encode(), b.encode(), c.encode()}) == 3


class TestLinkRevoke:
    def test_same_signer_same_event_links(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        pair_a = (b"m1", rlrs_sign(keys["AP-1"], b"m1", ring, EVENT, pp, rng))
        pair_b = (b"m2", rlrs_sign(keys["AP-1"], b"m2", ring, EVENT, pp, rng))
        assert rlrs_link(ring, EVENT, pair_a, ring, pair_b, pp)

    def test_different_signers_unlinked(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        pair_a = (b"m1", rlrs_sign(keys["AP-1"], b"m1", ring, EVENT, pp, rng))
        pair_b = (b"m2", rlrs_sign(keys["AP-2"], b"m2", ring, EVENT, pp, rng))
        assert not rlrs_link(ring, EVENT, pair_a, ring, pair_b, pp)

    def test_invalid_inputs_rejected(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        pair = (b"m1", rlrs_sign(keys["AP-1"], b"m1", ring, EVENT, pp, rng))
        with pytest.raises(CryptoError):
            rlrs_link(ring, EVENT, (b"tampered", pair[1]), ring, pair, pp)

    def test_revoke_returns_double_signer(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        ring_b = ["AP-1", "AP-3", "AP-4"]
        pair_a = (b"m1", rlrs_sign(keys["AP-1"], b"m1", ring, EVENT, pp, rng))
        pair_b = (b"m2", rlrs_sign(keys["AP-1"], b"m2", ring_b, EVENT, pp, rng))
        assert rlrs_revoke(msk, EVENT, ring, pair_a, ring_b, pair_b, pp) == "AP-1"

    def test_unlinked_pair_revokes_nothing(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        pair_a = (b"m1", rlrs_sign(keys["AP-1"], b"m1", ring, EVENT, pp, rng))
        pair_b = (b"m2", rlrs_sign(keys["AP-2"], b"m2", ring, EVENT, pp, rng))
        assert rlrs_revoke(msk, EVENT, ring, pair_a, ring, pair_b, pp) is None

    def test_revoke_iff_link_over_corpus(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        pairs = [(i, (b"m%d" % j,
                      rlrs_sign(keys[f"AP-{i}"], b"m%d" % j, ring, EVENT, pp, rng)))
                 for i in (1, 2) for j in range(2)]
        for i, pa in pairs:
            for k, pb in pairs:
                if pa is pb:
                    continue
                revoked = rlrs_revoke(msk, EVENT, ring, pa, ring, pb, pp)
                linked = pa[1].tau == pb[1].tau
                assert (revoked is not None) == linked

    def test_disjoint_rings_revoke_nothing(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        ring_b = ["AP-8", "AP-9"]
        for i in ring_b:
            rlrs_extract(msk, i, pp)
        pair_a = (b"m1", rlrs_sign(keys["AP-1"], b"m1", ring, EVENT, pp, rng))
        sk8 = rlrs_extract(msk, "AP-8", pp)
        pair_b = (b"m2", rlrs_sign(sk8, b"m2", ring_b, EVENT, pp, rng))
        assert rlrs_revoke(msk, EVENT, ring, pair_a, ring_b, pair_b, pp) is None


class TestWireBlock:
    def test_size_independent_of_ring(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        sizes = set()
        for n in range(1, MAX_RING + 1):
            r = [f"SZ-{n}-{i}" for i in range(n)]
            sks = [rlrs_extract(msk, i, pp) for i in r]
            sig = rlrs_sign(sks[0], b"x", r, EVENT, pp, rng)
            blk = encode_signature(sig)
            sizes.add(len(blk))
            assert decode_signature(blk) == sig
        assert sizes == {SIGNATURE_BYTES}

    def test_ring_beyond_the_block_refused(self, rlrs_env, monkeypatch):
        # MAX_RING is the block's capacity: one member more is refused by
        # sign and verify, although the chain itself would close
        msk, pp, ring, keys, rng = rlrs_env
        r = [f"BIG-{i}" for i in range(MAX_RING + 1)]
        sk = [rlrs_extract(msk, i, pp) for i in r][0]
        with pytest.raises(CryptoError, match="ring exceeds"):
            rlrs_sign(sk, b"x", r, EVENT, pp, rng)
        with monkeypatch.context() as m:
            m.setattr(rlrs, "_validate_ring", lambda ring: None)
            sig = rlrs_sign(sk, b"x", r, EVENT, pp, rng)
            assert rlrs_verify(r, b"x", EVENT, sig, pp)
        assert not rlrs_verify(r, b"x", EVENT, sig, pp)
        with pytest.raises(CryptoError):
            encode_signature(sig)

    def test_nonzero_padding_rejected(self, rlrs_env):
        msk, pp, ring, keys, rng = rlrs_env
        sig = rlrs_sign(keys["AP-0"], b"x", ring, EVENT, pp, rng)
        blk = bytearray(encode_signature(sig))
        blk[-1] = 1
        with pytest.raises(CryptoError):
            decode_signature(bytes(blk))
