"""Credential issuance, selective disclosure, delegation, and the
unforgeability / unlinkability shape checks."""
import pytest

from slapx.dac import (CRED_WIRE_BYTES, Attribute, Presentation,
                       dac_cred_prove, dac_cred_verify, dac_issue_cred,
                       dac_keygen, dac_nymgen, dac_receive_cred,
                       dac_request_delegation, dac_setup, encode_credential,
                       issue_credential)
from slapx.errors import CryptoError, ParameterError
from slapx.rng import SeededRng

ATTRS = (Attribute("device_id", b"DEV-0007"),
         Attribute("tx_power", (300).to_bytes(2, "big")),
         Attribute("device_type", b"\x01"),
         Attribute("validity", bytes(16)))


@pytest.fixture(scope="module")
def env(dac_env):
    params, root, rng = dac_env
    pk, sk = dac_keygen(params, rng)
    cred = issue_credential(root, sk, ATTRS, max_delegation_level=2, rng=rng)
    return params, root, rng, pk, sk, cred


class TestSetup:
    def test_parameter_floors(self):
        with pytest.raises(ParameterError):
            dac_setup(128, t=8, eta=1, rng=SeededRng(1))
        with pytest.raises(ParameterError):
            dac_setup(128, t=0, eta=2, rng=SeededRng(1))

    def test_valid_setup(self, dac_env):
        params, root, _ = dac_env
        assert params.eta == 2 and params.t == 8
        assert len(root.roots) == 2

    def test_seeded_parameters_pinned(self, deployment):
        # the fixture is Deployment.create(seed=3); its DAC parameters do not
        # depend on the PSD modulus size. Pins the primes dac_setup draws.
        assert deployment.view.dac_params.fingerprint().hex() == (
            "23db402674cdfb54ca903ccbb53731234d3248bdcb9dcc4cfe919cd50516f2cf")


class TestKeysAndNyms:
    def test_fresh_nyms_distinct_and_provable(self, env):
        params, root, rng, pk, sk, cred = env
        n1, a1 = dac_nymgen(params, pk, rng)
        n2, a2 = dac_nymgen(params, pk, rng)
        assert n1 != n2
        for nym, aux in ((n1, a1), (n2, a2)):
            pres = dac_cred_prove(params, sk, nym, aux, cred, (0,), b"c", rng)
            assert dac_cred_verify(params, pres, b"c")

    def test_nym_differs_from_pk(self, env):
        params, root, rng, pk, sk, cred = env
        nym, _ = dac_nymgen(params, pk, rng)
        assert nym != pk

    def test_wrong_aux_fails(self, env):
        params, root, rng, pk, sk, cred = env
        nym, aux = dac_nymgen(params, pk, rng)
        pres = dac_cred_prove(params, sk, nym, aux + 1, cred, (), b"c", rng)
        assert not dac_cred_verify(params, pres, b"c")


class TestIssuanceAndShowing:
    def test_full_disclosure_verifies(self, env):
        params, root, rng, pk, sk, cred = env
        nym, aux = dac_nymgen(params, pk, rng)
        pres = dac_cred_prove(params, sk, nym, aux, cred, (0, 1, 2, 3), b"c", rng)
        assert dac_cred_verify(params, pres, b"c")

    def test_subset_disclosure_verifies(self, env):
        params, root, rng, pk, sk, cred = env
        nym, aux = dac_nymgen(params, pk, rng)
        pres = dac_cred_prove(params, sk, nym, aux, cred, (1,), b"c", rng)
        assert dac_cred_verify(params, pres, b"c")
        assert pres.disclosed[0][1] == ATTRS[1]

    def test_nonmember_disclosure_errors(self, env):
        params, root, rng, pk, sk, cred = env
        nym, aux = dac_nymgen(params, pk, rng)
        with pytest.raises(CryptoError):
            dac_cred_prove(params, sk, nym, aux, cred, (7,), b"c", rng)

    def test_oversized_attribute_set(self, env):
        params, root, rng, pk, sk, cred = env
        too_many = tuple(Attribute("pol", bytes([i]) * 32) for i in range(9))
        _, sk2 = dac_keygen(params, rng)
        with pytest.raises(ParameterError):
            issue_credential(root, sk2, too_many, 1, rng)

    def test_context_binding(self, env):
        params, root, rng, pk, sk, cred = env
        nym, aux = dac_nymgen(params, pk, rng)
        pres = dac_cred_prove(params, sk, nym, aux, cred, (), b"ctx-A", rng)
        assert dac_cred_verify(params, pres, b"ctx-A")
        assert not dac_cred_verify(params, pres, b"ctx-B")

    def test_payload_binding(self, env):
        params, root, rng, pk, sk, cred = env
        nym, aux = dac_nymgen(params, pk, rng)
        pres = dac_cred_prove(params, sk, nym, aux, cred, (), b"c", rng,
                              payload=b"query-1")
        assert dac_cred_verify(params, pres, b"c", b"query-1")
        assert not dac_cred_verify(params, pres, b"c", b"query-2")

    def test_credential_wire_is_224_bytes(self, env):
        params, root, rng, pk, sk, cred = env
        assert len(encode_credential(cred, params)) == CRED_WIRE_BYTES


class TestUnlinkabilityShape:
    def test_hundred_presentations_pairwise_fresh(self, env):
        params, root, rng, pk, sk, cred = env
        seen_nyms, seen_bytes = set(), set()
        for _ in range(100):
            nym, aux = dac_nymgen(params, pk, rng)
            pres = dac_cred_prove(params, sk, nym, aux, cred, (1,), b"c", rng)
            assert dac_cred_verify(params, pres, b"c")
            seen_nyms.add(nym)
            seen_bytes.add(pres.to_bytes(params))
        assert len(seen_nyms) == 100
        assert len(seen_bytes) == 100


class TestUnforgeabilityShape:
    def test_randomized_forger_never_verifies(self):
        # small modulus keeps 10^4 verification attempts affordable; the
        # soundness argument is parameter-independent
        rng = SeededRng(31)
        params, root = dac_setup(128, t=2, eta=2, rng=rng, modulus_bits=384)
        pk, sk = dac_keygen(params, rng)
        cred = issue_credential(root, sk, ATTRS[:2], 1, rng)
        nym, aux = dac_nymgen(params, pk, rng)
        pres = dac_cred_prove(params, sk, nym, aux, cred, (0,), b"c", rng)
        n = params.n
        forgeries = 0
        for i in range(10_000):
            mode = i % 5
            if mode == 0:
                cand = Presentation(pres.level, pres.nym,
                                    2 + rng.randrange(n - 2), pres.c, pres.z_t,
                                    pres.z_u, pres.z_o, pres.z_r, pres.hidden,
                                    pres.disclosed)
            elif mode == 1:
                cand = Presentation(pres.level, pres.nym, pres.sigma_r,
                                    rng.randint_bits(128), pres.z_t, pres.z_u,
                                    pres.z_o, pres.z_r, pres.hidden,
                                    pres.disclosed)
            elif mode == 2:
                cand = Presentation(pres.level, pres.nym, pres.sigma_r, pres.c,
                                    2 + rng.randrange(n - 2), pres.z_u,
                                    pres.z_o, pres.z_r, pres.hidden,
                                    pres.disclosed)
            elif mode == 3:
                cand = Presentation(pres.level, pres.nym, pres.sigma_r, pres.c,
                                    pres.z_t, rng.randint_bits(300), pres.z_o,
                                    pres.z_r, pres.hidden, pres.disclosed)
            else:
                swapped = ((0, Attribute("device_id", rng.bytes(8))),)
                cand = Presentation(pres.level, pres.nym, pres.sigma_r, pres.c,
                                    pres.z_t, pres.z_u, pres.z_o, pres.z_r,
                                    pres.hidden, swapped)
            forgeries += dac_cred_verify(params, cand, b"c")
        assert forgeries == 0


class TestDelegation:
    def test_terminal_delegation_flow(self, env):
        params, root, rng, pk, sk, cred = env
        pk_r, sk_r = dac_keygen(params, rng)
        recipient_cred = issue_credential(root, sk_r, ATTRS, 1, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(12.0, 34.0), Attribute.ts_window(42))
        vk, cert, ext = dac_issue_cred(params, cred, req, a_l, 2, rng)
        dcred = dac_receive_cred(params, recipient_cred, sk_r, r_d, req.nym_d,
                                 a_l, 2, vk, cert, ext)
        assert dcred.dk is None
        nym, aux = dac_nymgen(params, pk_r, rng)
        pres = dac_cred_prove(params, sk_r, nym, aux, dcred, (), b"q", rng)
        assert dac_cred_verify(params, pres, b"q")
        assert tuple(a for a in pres.ext.attrs) == a_l

    def test_terminal_credential_cannot_redelegate(self, env):
        params, root, rng, pk, sk, cred = env
        pk_r, sk_r = dac_keygen(params, rng)
        recipient_cred = issue_credential(root, sk_r, ATTRS, 1, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(1.0, 1.0), Attribute.ts_window(1))
        vk, cert, ext = dac_issue_cred(params, cred, req, a_l, 2, rng)
        dcred = dac_receive_cred(params, recipient_cred, sk_r, r_d, req.nym_d,
                                 a_l, 2, vk, cert, ext)
        with pytest.raises(CryptoError):
            dac_issue_cred(params, dcred, req, a_l, 2, rng)
        with pytest.raises(CryptoError):
            dac_issue_cred(params, recipient_cred, req, a_l, 2, rng)

    def test_depth_beyond_authorization(self, env):
        params, root, rng, pk, sk, cred = env
        _, sk_r = dac_keygen(params, rng)
        req, _ = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(1.0, 1.0),)
        with pytest.raises(CryptoError):
            dac_issue_cred(params, cred, req, a_l, 3, rng)

    def test_tampered_extension_rejected(self, env):
        params, root, rng, pk, sk, cred = env
        pk_r, sk_r = dac_keygen(params, rng)
        recipient_cred = issue_credential(root, sk_r, ATTRS, 1, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(1.0, 1.0), Attribute.ts_window(1))
        vk, cert, ext = dac_issue_cred(params, cred, req, a_l, 2, rng)
        other = (Attribute.location(9.0, 9.0), Attribute.ts_window(1))
        with pytest.raises(CryptoError):
            dac_receive_cred(params, recipient_cred, sk_r, r_d, req.nym_d,
                             other, 2, vk, cert, ext)

    def test_delegated_wire_is_224_bytes(self, env):
        params, root, rng, pk, sk, cred = env
        pk_r, sk_r = dac_keygen(params, rng)
        recipient_cred = issue_credential(root, sk_r, ATTRS, 1, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(2.0, 2.0), Attribute.ts_window(3))
        vk, cert, ext = dac_issue_cred(params, cred, req, a_l, 2, rng)
        dcred = dac_receive_cred(params, recipient_cred, sk_r, r_d, req.nym_d,
                                 a_l, 2, vk, cert, ext)
        assert len(encode_credential(dcred, params)) == CRED_WIRE_BYTES


class TestAttributes:
    def test_fixed_widths_enforced(self):
        with pytest.raises(ParameterError):
            Attribute("location", b"\x00" * 15)
        with pytest.raises(ParameterError):
            Attribute("ts_window", b"\x00" * 4)

    def test_location_encoding_fixed_point(self):
        a = Attribute.location(12.345, -7.5)
        assert len(a.value) == 16
        assert int.from_bytes(a.value[:8], "big", signed=True) == 12345
        assert int.from_bytes(a.value[8:], "big", signed=True) == -7500

    def test_digest_separates_kinds(self):
        a = Attribute("device_id", b"AAAAAAAA")
        b = Attribute("pol", b"AAAAAAAA".ljust(32, b"\x00"))
        assert a.digest() != b.digest()
