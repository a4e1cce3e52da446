"""Credential issuance, selective disclosure, delegation, and the
unforgeability / unlinkability shape checks."""
import dataclasses
import hashlib

import pytest

from slapx.dac import (BASE_S, BASE_SK, CRED_WIRE_BYTES, DELEGATION_DEPTH,
                       MAX_ATTRS, Attribute, DacParams, Presentation,
                       _show_challenge, attrs_digest, dac_create_cred,
                       dac_cred_prove,
                       dac_cred_verify, dac_get_cred, dac_issue_cred,
                       dac_keygen, dac_nymgen, dac_receive_cred, dac_request_cred,
                       dac_request_delegation, dac_setup, encode_credential,
                       issue_credential)
from slapx.errors import CryptoError, ParameterError
from slapx.group import CURVE, SigningKey, sgn_verify
from slapx.hashes import H_tagged
from slapx.modmath import FixedBase
from slapx.rng import SeededRng

ATTRS = (Attribute("device_id", b"DEV-0007"),
         Attribute("tx_power", (300).to_bytes(2, "big")),
         Attribute("device_type", b"\x01"),
         Attribute("validity", bytes(16)))


@pytest.fixture(scope="module")
def env(dac_env):
    params, root, rng = dac_env
    pk, sk = dac_keygen(params, rng)
    cred = issue_credential(root, sk, ATTRS, rng=rng)
    return params, root, rng, pk, sk, cred


class TestSetup:
    def test_valid_setup(self, dac_env):
        params, root, _ = dac_env
        assert len(params.bases) == MAX_ATTRS
        assert pow(pow(5, params.e, params.n), root.root, params.n) == 5

    def test_fingerprint_binds_modulus_exponent_and_cert_key(self, dac_env):
        params, _, _ = dac_env
        other = (DacParams(params.n + 2, params.e, params.cert_pk),
                 DacParams(params.n, params.e + 2, params.cert_pk),
                 DacParams(params.n, params.e, CURVE.generator))
        assert len({params.fingerprint(), *(p.fingerprint() for p in other)}) == 4

    def test_seeded_parameters_pinned(self, deployment):
        # the fixture is Deployment.create(seed=3); its DAC parameters do not
        # depend on the PSD modulus size. Pins the primes dac_setup draws.
        assert deployment.view.dac_params.fingerprint().hex() == (
            "dbaa3e1359432502f2eff1ef7e4989b074d68b0f58ec123a42f961940b75f804")


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
        too_many = tuple(Attribute("pol", bytes([i]) * 32)
                         for i in range(MAX_ATTRS + 1))
        _, sk2 = dac_keygen(params, rng)
        with pytest.raises(ParameterError):
            issue_credential(root, sk2, too_many, rng)

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

    @pytest.mark.parametrize("field", ["X", "c", "z_a", "z_b", "X=0", "X=n"])
    def test_issuer_refuses_a_perturbed_opening_proof(self, env, field):
        # a field moved by +1, or the blinded key X set to 0 or n, which have
        # no inverse mod n
        params, root, _, _, sk, _ = env
        rng = SeededRng(81)
        request, _ = dac_request_cred(params, sk, rng)
        dac_create_cred(root, request, ATTRS, rng)   # the honest one passes
        name, _, to = field.partition("=")
        value = {"": getattr(request, name) + 1, "0": 0, "n": params.n}[to]
        bad = dataclasses.replace(request, **{name: value})
        with pytest.raises(CryptoError):
            dac_create_cred(root, bad, ATTRS, rng)

    def test_holder_refuses_a_wrong_sigma(self, env):
        params, root, _, _, sk, _ = env
        rng = SeededRng(82)
        request, o_u = dac_request_cred(params, sk, rng)
        sigma, o_i, dk = dac_create_cred(root, request, ATTRS, rng)
        assert dac_get_cred(params, sk, o_u, sigma, o_i, ATTRS, dk).sigma == sigma
        with pytest.raises(CryptoError):
            dac_get_cred(params, sk, o_u, sigma + 1, o_i, ATTRS, dk)


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
        params, root = dac_setup(rng, modulus_bits=384)
        pk, sk = dac_keygen(params, rng)
        cred = issue_credential(root, sk, ATTRS[:2], rng)
        nym, aux = dac_nymgen(params, pk, rng)
        pres = dac_cred_prove(params, sk, nym, aux, cred, (0,), b"c", rng)
        n = params.n
        forgeries = 0
        for i in range(10_000):
            mode = i % 5
            if mode == 0:
                cand = Presentation(pres.nym,
                                    2 + rng.randrange(n - 2), pres.c, pres.z_t,
                                    pres.z_u, pres.z_o, pres.z_r, pres.hidden,
                                    pres.disclosed)
            elif mode == 1:
                cand = Presentation(pres.nym, pres.sigma_r,
                                    rng.randint_bits(128), pres.z_t, pres.z_u,
                                    pres.z_o, pres.z_r, pres.hidden,
                                    pres.disclosed)
            elif mode == 2:
                cand = Presentation(pres.nym, pres.sigma_r, pres.c,
                                    2 + rng.randrange(n - 2), pres.z_u,
                                    pres.z_o, pres.z_r, pres.hidden,
                                    pres.disclosed)
            elif mode == 3:
                cand = Presentation(pres.nym, pres.sigma_r, pres.c,
                                    pres.z_t, rng.randint_bits(300), pres.z_o,
                                    pres.z_r, pres.hidden, pres.disclosed)
            else:
                swapped = ((0, Attribute("device_id", rng.bytes(8))),)
                cand = Presentation(pres.nym, pres.sigma_r, pres.c,
                                    pres.z_t, pres.z_u, pres.z_o, pres.z_r,
                                    pres.hidden, swapped)
            forgeries += dac_cred_verify(params, cand, b"c")
        assert forgeries == 0


class TestDelegation:
    def test_terminal_delegation_flow(self, env):
        params, root, rng, pk, sk, cred = env
        pk_r, sk_r = dac_keygen(params, rng)
        recipient_cred = issue_credential(root, sk_r, ATTRS, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(12.0, 34.0), Attribute.ts_window(42))
        ext = dac_issue_cred(params, cred, req, a_l, rng)
        dcred = dac_receive_cred(params, recipient_cred, r_d, ext)
        with pytest.raises(CryptoError, match="terminal"):
            dac_issue_cred(params, dcred, req, a_l, rng)
        nym, aux = dac_nymgen(params, pk_r, rng)
        pres = dac_cred_prove(params, sk_r, nym, aux, dcred, (), b"q", rng)
        assert dac_cred_verify(params, pres, b"q")
        assert pres.ext.ext.attrs == a_l

    def test_terminal_credential_cannot_redelegate(self, env):
        params, root, rng, pk, sk, cred = env
        pk_r, sk_r = dac_keygen(params, rng)
        recipient_cred = issue_credential(root, sk_r, ATTRS, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(1.0, 1.0), Attribute.ts_window(1))
        ext = dac_issue_cred(params, cred, req, a_l, rng)
        dcred = dac_receive_cred(params, recipient_cred, r_d, ext)
        with pytest.raises(CryptoError, match="terminal"):
            dac_issue_cred(params, dcred, req, a_l, rng)

    @pytest.mark.parametrize("field", ["X", "c", "z_a", "z_b"])
    def test_delegator_refuses_a_perturbed_opening_proof(self, env, field):
        params, root, _, _, _, cred = env
        rng = SeededRng(83)
        _, sk_r = dac_keygen(params, rng)
        request, _ = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(1.0, 1.0), Attribute.ts_window(1))
        dac_issue_cred(params, cred, request, a_l, rng)   # the honest one passes
        bad = dataclasses.replace(request, **{field: getattr(request, field) + 1})
        with pytest.raises(CryptoError):
            dac_issue_cred(params, cred, bad, a_l, rng)

    @pytest.mark.parametrize("field", ["nym_d", "vk_bytes", "cert", "ext_sig",
                                       "attrs"])
    def test_tampered_extension_rejected(self, env, field):
        params, root, rng, pk, sk, cred = env
        pk_r, sk_r = dac_keygen(params, rng)
        recipient_cred = issue_credential(root, sk_r, ATTRS, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(1.0, 1.0), Attribute.ts_window(1))
        ext = dac_issue_cred(params, cred, req, a_l, rng)
        dac_receive_cred(params, recipient_cred, r_d, ext)   # the honest one passes
        flip = lambda b: b[:-1] + bytes([b[-1] ^ 1])  # noqa: E731
        other = {"nym_d": ext.nym_d + 1,
                 "vk_bytes": SigningKey.generate(rng).pk.to_bytes(),
                 "cert": flip(ext.cert), "ext_sig": flip(ext.ext_sig),
                 "attrs": (Attribute.location(9.0, 9.0), Attribute.ts_window(1))}
        with pytest.raises(CryptoError):
            dac_receive_cred(params, recipient_cred, r_d,
                             dataclasses.replace(ext, **{field: other[field]}))

    def test_delegated_wire_is_224_bytes(self, env):
        params, root, rng, pk, sk, cred = env
        pk_r, sk_r = dac_keygen(params, rng)
        recipient_cred = issue_credential(root, sk_r, ATTRS, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(2.0, 2.0), Attribute.ts_window(3))
        ext = dac_issue_cred(params, cred, req, a_l, rng)
        dcred = dac_receive_cred(params, recipient_cred, r_d, ext)
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


def reference_verify(params, pres, context, payload=b""):
    """dac_cred_verify as it was before the fixed-base tables: one pow per
    base and exponent. dac_cred_verify must return what this returns. The
    levels are the constants 1 and DELEGATION_DEPTH, which the decoder
    enforces."""
    n = params.n
    if not (0 < pres.sigma_r < n) or not (0 < pres.nym < n):
        return False
    e = params.e
    slots = {i for i, _ in pres.hidden} | {i for i, _ in pres.disclosed}
    if len(slots) != len(pres.hidden) + len(pres.disclosed) or any(
            i >= MAX_ATTRS for i in slots):
        return False
    V = pow(pres.sigma_r, e, n)
    for i, a in pres.disclosed:
        V = (V * pow(params.bases[i], -a.digest(), n)) % n
    T_V = (pow(params.base_sk, pres.z_u, n) * pow(params.base_S, pres.z_o, n)
           * pow(pres.z_t, e, n) * pow(V, -pres.c, n)) % n
    for i, z in pres.hidden:
        T_V = (T_V * pow(params.bases[i], z, n)) % n
    T_nym = (pow(params.base_sk, pres.z_u, n) * pow(params.base_S, pres.z_r, n)
             * pow(pres.nym, -pres.c, n)) % n
    ext_part = b""
    T_ext = None
    if pres.ext is not None:
        ext = pres.ext.ext
        if not 0 < ext.nym_d < n:
            return False
        try:
            vk = CURVE.from_bytes(ext.vk_bytes)
        except CryptoError:
            return False
        cert_body = H_tagged("dac/dkcert", ext.vk_bytes, bytes([DELEGATION_DEPTH]))
        if not sgn_verify(params.cert_pk, cert_body, ext.cert):
            return False
        ext_body = H_tagged("dac/ext", ext.nym_d.to_bytes(params.n_bytes, "big"),
                            attrs_digest(ext.attrs), bytes([DELEGATION_DEPTH]), b"\x01")
        if not sgn_verify(vk, ext_body, ext.ext_sig):
            return False
        ext_part = H_tagged("dac/extpart", ext.vk_bytes, ext.cert, ext.ext_sig,
                            ext.nym_d.to_bytes(params.n_bytes, "big"),
                            attrs_digest(ext.attrs), bytes([DELEGATION_DEPTH]))
        T_ext = (pow(params.base_sk, pres.z_u, n) * pow(params.base_S, pres.ext.z_rd, n)
                 * pow(ext.nym_d, -pres.c, n)) % n
    c = _show_challenge(params, pres.nym, pres.sigma_r,
                        pres.disclosed, context, payload, T_V, T_nym,
                        ext_part, T_ext)
    return c == pres.c


def variants(pres, params, rng):
    """Tampered and randomized copies of `pres`, one field at a time."""
    n = params.n
    rep = dataclasses.replace
    out = [rep(pres, sigma_r=(pres.sigma_r * 2) % n),
           rep(pres, sigma_r=2 + rng.randrange(n - 2)),
           rep(pres, sigma_r=n - 1), rep(pres, nym=(pres.nym + 1) % n),
           rep(pres, c=pres.c ^ 1), rep(pres, c=rng.randint_bits(128)),
           rep(pres, c=0), rep(pres, z_t=(pres.z_t + 1) % n),
           rep(pres, z_t=2 + rng.randrange(n - 2)), rep(pres, z_t=n + 5),
           rep(pres, z_u=pres.z_u + 1), rep(pres, z_u=rng.randint_bits(384)),
           rep(pres, z_u=(1 << 384) + pres.z_u),     # wider than any table
           rep(pres, z_u=0), rep(pres, z_o=pres.z_o ^ (1 << 200)),
           rep(pres, z_r=pres.z_r + 1),
           rep(pres, disclosed=pres.disclosed + pres.disclosed)]
    if pres.hidden:
        (i, z), *rest = pres.hidden
        out += [rep(pres, hidden=((i, z + 1), *rest)),
                rep(pres, hidden=((i, 0), *rest)),
                rep(pres, hidden=((7, z), *rest)),
                rep(pres, hidden=((8, z), *rest)),
                rep(pres, hidden=pres.hidden[1:])]
    if pres.disclosed:
        (i, a), *rest = pres.disclosed
        out += [rep(pres, disclosed=((i, Attribute("device_type", b"\x07")), *rest)),
                rep(pres, disclosed=((i + 4, a), *rest)),
                rep(pres, disclosed=pres.disclosed[1:])]
    if pres.ext is not None:
        show, ext = pres.ext, pres.ext.ext
        out += [rep(pres, ext=rep(show, z_rd=show.z_rd + 1)),
                rep(pres, ext=rep(show, ext=rep(ext, nym_d=(ext.nym_d * 3) % n))),
                rep(pres, ext=rep(show, ext=rep(ext, attrs=ext.attrs[:1]))),
                rep(pres, ext=rep(show, ext=rep(ext, ext_sig=bytes(len(ext.ext_sig))))),
                rep(pres, ext=None)]
    return out


class TestVerifyMatchesReference:
    @pytest.fixture(scope="class")
    def shows(self, env):
        """Presentations of a base and of a delegated credential, with the
        device disclose set (1, 2) and with nothing disclosed."""
        params, root, rng, pk, sk, cred = env
        pk_r, sk_r = dac_keygen(params, rng)
        recipient = issue_credential(root, sk_r, ATTRS, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(3.0, 4.0), Attribute.ts_window(9))
        ext = dac_issue_cred(params, cred, req, a_l, rng)
        dcred = dac_receive_cred(params, recipient, r_d, ext)
        out = []
        for holder_pk, holder_sk, c in ((pk, sk, cred), (pk_r, sk_r, dcred)):
            for disclose in ((1, 2), ()):
                nym, aux = dac_nymgen(params, holder_pk, rng)
                out.append(dac_cred_prove(params, holder_sk, nym, aux, c,
                                          disclose, b"ctx", rng, payload=b"pl"))
        return out

    def test_same_decision_on_every_variant(self, env, shows):
        params, rng = env[0], SeededRng(91)
        checked = 0
        for pres in shows:
            assert dac_cred_verify(params, pres, b"ctx", b"pl")
            assert reference_verify(params, pres, b"ctx", b"pl")
            cases = [(pres, b"ctx", b"pl"), (pres, b"other", b"pl"),
                     (pres, b"ctx", b"")]
            cases += [(v, b"ctx", b"pl") for v in variants(pres, params, rng)]
            for cand, context, payload in cases:
                assert dac_cred_verify(params, cand, context, payload) == \
                    reference_verify(params, cand, context, payload), cand
                checked += 1
        assert checked > 100


class TestFixedBaseTables:
    def test_multiexp_equals_pow_product(self, dac_env):
        params = dac_env[0]
        n = params.n
        bases = {BASE_SK: params.base_sk, BASE_S: params.base_S,
                 **dict(enumerate(params.bases))}
        rng = SeededRng(92)
        for width in (0, 1, 128, 336, 384, 385, 600):
            terms = [(key, rng.randint_bits(width) if width else 0)
                     for key in bases]
            want = 1
            for key, e in terms:
                want = want * pow(bases[key], e, n) % n
            assert params.multiexp(*terms) == want, width
        assert params.multiexp() == 1

    def test_every_table_built_at_setup(self):
        # before any multiexp: one table per base, R_0 .. R_3, R_sk, S
        params, _ = dac_setup(SeededRng(93), modulus_bits=512)
        bases = params.bases + (params.base_sk, params.base_S)
        assert len(params._tables) == MAX_ATTRS + 2
        assert all(isinstance(tb, FixedBase) for tb in params._tables)
        assert [tb.powers[0] for tb in params._tables] == list(bases)


class TestSeededBytesPinned:
    def test_issuance_and_presentations_unchanged(self, dac_env):
        # dac_env's parameters come from dac_setup on SeededRng(11) alone
        params, root, _ = dac_env
        rng = SeededRng(71)
        pk, sk = dac_keygen(params, rng)
        cred = issue_credential(root, sk, ATTRS, rng)
        pk_r, sk_r = dac_keygen(params, rng)
        recipient = issue_credential(root, sk_r, ATTRS, rng)
        req, r_d = dac_request_delegation(params, sk_r, rng)
        a_l = (Attribute.location(12.0, 34.0), Attribute.ts_window(42))
        ext = dac_issue_cred(params, cred, req, a_l, rng)
        dcred = dac_receive_cred(params, recipient, r_d, ext)
        nb = params.n_bytes
        h = hashlib.sha256()
        h.update(pk.to_bytes(nb, "big") + encode_credential(cred, params)
                 + cred.opening.to_bytes(nb, "big"))
        h.update(req.to_bytes(params) + encode_credential(dcred, params))
        for holder_pk, holder_sk, c, disclose in (
                (pk, sk, cred, (1, 2)), (pk, sk, cred, ()),
                (pk_r, sk_r, dcred, (1, 2))):
            nym, aux = dac_nymgen(params, holder_pk, rng)
            h.update(dac_cred_prove(params, holder_sk, nym, aux, c, disclose,
                                    b"ctx", rng, payload=b"pl").to_bytes(params))
        assert h.hexdigest() == (
            "487407246a2a7e3775e55d05a1160a63443bb8f6d583f55f29d30a7d3c9c21cc")
