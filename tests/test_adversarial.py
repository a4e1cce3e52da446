"""Cross-object splicing, transplants, and malformed-input handling:
attacks that reuse valid pieces in the wrong place must fail cleanly."""
import pytest

from slapx import dac, rlrs, vdf, wire
from slapx.errors import (CryptoError, ParameterError, ProtocolReject,
                          RejectReason, SlapxError)
from slapx.protocol import (DISCLOSE_DEVICE, DeviceProfile, LocationProof,
                            Puzzle, decode_presentation, presentation_context,
                            run_pol_ap, run_service_request,
                            run_spectrum_query, window_of)
from slapx.rng import SeededRng

EVENT = rlrs.EventId(1.0, 2.0, 3, b"b" * 32)


@pytest.fixture(scope="module")
def ring_env():
    rng = SeededRng(71)
    msk, pp = rlrs.rlrs_setup(128, 8, rng)
    ring = [f"R-{i}" for i in range(4)]
    keys = {i: rlrs.rlrs_extract(msk, i, pp) for i in ring}
    return pp, ring, keys, rng


@pytest.fixture(scope="module")
def cred_env():
    rng = SeededRng(72)
    params, root = dac.dac_setup(128, t=4, eta=2, rng=rng, modulus_bits=512)
    attrs_a = (dac.Attribute("device_id", b"AAAAAAAA"),)
    attrs_b = (dac.Attribute("device_id", b"BBBBBBBB"),)
    pk_a, sk_a = dac.dac_keygen(params, rng)
    pk_b, sk_b = dac.dac_keygen(params, rng)
    cred_a = dac.issue_credential(root, sk_a, attrs_a, 2, rng)
    cred_b = dac.issue_credential(root, sk_b, attrs_b, 2, rng)
    return params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b)


class TestRlrsSplicing:

    def test_random_signature_rejected(self, ring_env):
        pp, ring, keys, rng = ring_env
        g = pp.group
        fake = rlrs.RlrsSignature(
            c1=g.random_scalar(rng),
            responses=tuple(g.random_scalar(rng) for _ in ring),
            tau=g.mul(g.generator, g.random_scalar(rng)))
        assert not rlrs.rlrs_verify(ring, b"m", EVENT, fake, pp)

    def test_tau_transplant_rejected(self, ring_env):
        pp, ring, keys, rng = ring_env
        sig_a = rlrs.rlrs_sign(keys["R-0"], b"m", ring, EVENT, pp, rng)
        sig_b = rlrs.rlrs_sign(keys["R-1"], b"m", ring, EVENT, pp, rng)
        spliced = rlrs.RlrsSignature(sig_a.c1, sig_a.responses, sig_b.tau)
        assert not rlrs.rlrs_verify(ring, b"m", EVENT, spliced, pp)

    def test_response_swap_rejected(self, ring_env):
        pp, ring, keys, rng = ring_env
        sig = rlrs.rlrs_sign(keys["R-0"], b"m", ring, EVENT, pp, rng)
        r = list(sig.responses)
        r[0], r[1] = r[1], r[0]
        assert not rlrs.rlrs_verify(ring, b"m", EVENT,
                                    rlrs.RlrsSignature(sig.c1, tuple(r),
                                                       sig.tau), pp)

    def test_ring_reordering_rejected(self, ring_env):
        pp, ring, keys, rng = ring_env
        sig = rlrs.rlrs_sign(keys["R-0"], b"m", ring, EVENT, pp, rng)
        assert not rlrs.rlrs_verify(list(reversed(ring)), b"m", EVENT, sig, pp)


class TestDacSplicing:

    def test_disclosed_attribute_substitution_fails(self, cred_env):
        params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b) = cred_env
        nym, aux = dac.dac_nymgen(params, pk_a, rng)
        pres = dac.dac_cred_prove(params, sk_a, nym, aux, cred_a, (0,),
                                  b"c", rng)
        forged = dac.Presentation(
            pres.level, pres.nym, pres.sigma_r, pres.c, pres.z_t, pres.z_u,
            pres.z_o, pres.z_r, pres.hidden,
            ((0, dac.Attribute("device_id", b"BBBBBBBB")),), pres.ext)
        assert not dac.dac_cred_verify(params, forged, b"c")

    def test_sigma_transplant_between_credentials_fails(self, cred_env):
        params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b) = cred_env
        nym, aux = dac.dac_nymgen(params, pk_a, rng)
        pres_a = dac.dac_cred_prove(params, sk_a, nym, aux, cred_a, (0,),
                                    b"c", rng)
        nym_b, aux_b = dac.dac_nymgen(params, pk_b, rng)
        pres_b = dac.dac_cred_prove(params, sk_b, nym_b, aux_b, cred_b, (0,),
                                    b"c", rng)
        spliced = dac.Presentation(
            pres_a.level, pres_a.nym, pres_b.sigma_r, pres_a.c, pres_a.z_t,
            pres_a.z_u, pres_a.z_o, pres_a.z_r, pres_a.hidden,
            pres_a.disclosed, pres_a.ext)
        assert not dac.dac_cred_verify(params, spliced, b"c")

    def test_nym_transplant_fails(self, cred_env):
        params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b) = cred_env
        nym_a, aux_a = dac.dac_nymgen(params, pk_a, rng)
        nym_b, _ = dac.dac_nymgen(params, pk_b, rng)
        pres = dac.dac_cred_prove(params, sk_a, nym_a, aux_a, cred_a, (0,),
                                  b"c", rng)
        forged = dac.Presentation(
            pres.level, nym_b, pres.sigma_r, pres.c, pres.z_t, pres.z_u,
            pres.z_o, pres.z_r, pres.hidden, pres.disclosed, pres.ext)
        assert not dac.dac_cred_verify(params, forged, b"c")

    def test_ext_block_transplant_fails(self, cred_env):
        params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b) = cred_env
        # delegate from A's credential to B, then splice B's extension onto
        # a presentation that never proved nym_d's opening
        req, r_d = dac.dac_request_delegation(params, sk_b, rng)
        a_l = (dac.Attribute.location(1.0, 1.0), dac.Attribute.ts_window(9))
        vk, cert, ext_sig = dac.dac_issue_cred(params, cred_a, req, a_l, 2, rng)
        dcred = dac.dac_receive_cred(params, cred_b, sk_b, r_d, req.nym_d,
                                     a_l, 2, vk, cert, ext_sig)
        nym_b, aux_b = dac.dac_nymgen(params, pk_b, rng)
        honest = dac.dac_cred_prove(params, sk_b, nym_b, aux_b, dcred, (0,),
                                    b"c", rng)
        assert dac.dac_cred_verify(params, honest, b"c")
        # attacker A holds a valid base presentation and grafts B's ext
        nym_a, aux_a = dac.dac_nymgen(params, pk_a, rng)
        base_only = dac.dac_cred_prove(params, sk_a, nym_a, aux_a, cred_a,
                                       (0,), b"c", rng)
        grafted = dac.Presentation(
            base_only.level, base_only.nym, base_only.sigma_r, base_only.c,
            base_only.z_t, base_only.z_u, base_only.z_o, base_only.z_r,
            base_only.hidden, base_only.disclosed, honest.ext)
        assert not dac.dac_cred_verify(params, grafted, b"c")

    def test_forged_delegation_cert_fails(self, cred_env):
        params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b) = cred_env
        from slapx.group import SigningKey
        rogue = SigningKey.generate(params.cert_group, rng)
        req, r_d = dac.dac_request_delegation(params, sk_b, rng)
        a_l = (dac.Attribute.location(1.0, 1.0), dac.Attribute.ts_window(9))
        from slapx.hashes import H_tagged
        bad_cert = rogue.sign(H_tagged("dac/dkcert", rogue.pk.to_bytes(),
                                       bytes([2])), rng)
        ext_body = H_tagged("dac/ext",
                            req.nym_d.to_bytes(params.n_bytes, "big"),
                            dac.attrs_digest(a_l), bytes([2]), b"\x01")
        ext_sig = rogue.sign(ext_body, rng)
        with pytest.raises(CryptoError):
            dac.dac_receive_cred(params, cred_b, sk_b, r_d, req.nym_d, a_l, 2,
                                 rogue.pk.to_bytes(), bad_cert, ext_sig)


class TestVdfTransplants:
    def test_solution_for_other_modulus_rejected(self):
        rng = SeededRng(73)
        pa = vdf.vdf_setup(128, 8, rng)
        pb = vdf.vdf_setup(128, 8, rng)
        ch = vdf.VdfChallenge(b"m", 64)
        sol = vdf.vdf_eval(pa, ch)
        assert vdf.vdf_verify(pa, ch, sol)
        assert not vdf.vdf_verify(pb, ch, sol)

    def test_solution_for_other_tau_rejected(self):
        rng = SeededRng(74)
        params = vdf.vdf_setup(128, 8, rng)
        sol = vdf.vdf_eval(params, vdf.VdfChallenge(b"m", 64))
        assert not vdf.vdf_verify(params, vdf.VdfChallenge(b"m", 65), sol)


class TestMalformedWire:
    """Bit-flipped and truncated messages must reject, never crash."""

    def test_protocol_rejects_flipped_request_bytes(self, deployment, client):
        t = 2000.0
        beacon = deployment.ap.beacon(t)
        nym, aux = client.fresh_nym()
        from slapx.protocol import presentation_context
        loc = dac.Attribute.location(5.0, 5.0).value
        win_b = window_of(t).to_bytes(8, "big")
        ctx = presentation_context("pol-ap", window_of(t), deployment.ap.ap_id)
        pres = dac.dac_cred_prove(client.view.dac_params, client.sk, nym, aux,
                                  client.cred, (), ctx, client.rng,
                                  payload=beacon.encode() + loc + win_b)
        content = wire.pack_fields(beacon.encode(), loc, win_b,
                                   pres.to_bytes(client.view.dac_params))
        rng = SeededRng(75)
        for _ in range(40):
            mutated = bytearray(content)
            pos = rng.randrange(len(mutated))
            mutated[pos] ^= 1 << rng.randrange(8)
            try:
                deployment.ap.issue_pol(bytes(mutated), t, 5.0)
            except (ProtocolReject, SlapxError, CryptoError, ValueError,
                    IndexError, UnicodeDecodeError):
                continue
            # a mutation may leave padding/ignored bytes untouched; if it
            # verified, it must decode to the identical presentation
            assert bytes(mutated) == content or \
                decode_presentation(wire.unpack_fields(bytes(mutated), 4)[3],
                                    client.view.dac_params) == pres

    def test_truncated_frames_reject(self):
        msg = wire.build_message("pol_ap_request", b"x" * 64)
        raw = msg.encode()
        with pytest.raises(SlapxError):
            wire.decode_message(raw[:3])
        with pytest.raises(SlapxError):
            wire.decode_message(raw[:-10])

    def test_garbage_puzzle_blob_rejects(self):
        with pytest.raises((SlapxError, CryptoError, ValueError, IndexError)):
            Puzzle.decode(b"\x02" + b"\x00" * 40)
        with pytest.raises((SlapxError, CryptoError, ValueError, IndexError)):
            Puzzle.decode(b"\x01\xff\xff")

    def test_spliced_proof_between_clients_rejected(self, deployment):
        # a proof issued to one client cannot authorize another's query
        t = 2100.0
        c1 = deployment.new_client(DeviceProfile(b"SPL-0001", 30.0, 0),
                                   seed=7001)
        c2 = deployment.new_client(DeviceProfile(b"SPL-0002", 30.0, 0),
                                   seed=7002)
        proof1, _ = run_pol_ap(c1, deployment.ap, 10.0, 20.0, t)
        # c2 presents its own credential with c1's proof: the query succeeds
        # only once per tag, so c1's later use is refused
        run_spectrum_query(c2, deployment.psd, 10.0, 20.0, t, proof=proof1)
        with pytest.raises(ProtocolReject):
            run_spectrum_query(c1, deployment.psd, 10.0, 20.0, t + 1,
                               proof=proof1)


class _RawPhi:
    """Stands in for a LocationProof whose encoding is the given bytes."""

    def __init__(self, data: bytes):
        self.data = data

    def encode(self, params) -> bytes:
        return self.data


def malformed_phi(proof: LocationProof, params, rng: SeededRng) -> bytes:
    """proof's encoding with its signature block replaced by random bytes of
    the same length, so that it no longer decodes."""
    m_b, sig_b, ev_b = wire.unpack_fields(proof.encode(params), 3)
    for _ in range(20):
        phi = wire.pack_fields(m_b, rng.bytes(len(sig_b)), ev_b)
        try:
            LocationProof.decode(phi, params)
        except SlapxError:
            return phi
    raise AssertionError("no undecodable signature block found")


class TestHandlersRejectCleanly:
    """Malformed parts that decode to a library error must come back as a
    ProtocolReject with the right reason, and a granted request must not be
    granted again."""

    def test_malformed_phi_at_psd_is_bad_pol(self, deployment):
        t = 5000.0
        c = deployment.new_client(DeviceProfile(b"MPH-0001", 30.0, 0), seed=7101)
        proof, _ = run_pol_ap(c, deployment.ap, 4.0, 6.0, t)
        phi = malformed_phi(proof, c.view.rlrs_params, SeededRng(81))
        with pytest.raises(ProtocolReject) as e:
            run_spectrum_query(c, deployment.psd, 4.0, 6.0, t, proof=_RawPhi(phi))
        assert e.value.reason == RejectReason.BAD_POL

    def test_malformed_phi_at_server_is_bad_pol(self, deployment):
        t = 5100.0
        c = deployment.new_client(DeviceProfile(b"MPH-0002", 30.0, 0), seed=7102)
        proof, _ = run_pol_ap(c, deployment.ap, 4.0, 7.0, t)
        _, puzzle, _, _ = run_spectrum_query(c, deployment.psd, 4.0, 7.0, t,
                                             proof=proof)
        phi = malformed_phi(proof, c.view.rlrs_params, SeededRng(82))
        with pytest.raises(ProtocolReject) as e:
            run_service_request(c, deployment.server, b"m", puzzle, t,
                                proof=_RawPhi(phi))
        assert e.value.reason == RejectReason.BAD_POL

    def test_wrong_width_attribute_is_bad_credential(self, deployment):
        t = 5200.0
        c = deployment.new_client(DeviceProfile(b"MPH-0003", 30.0, 0), seed=7103)
        params = c.view.dac_params
        nym, aux = c.fresh_nym()
        pres = dac.dac_cred_prove(params, c.sk, nym, aux, c.cred,
                                  DISCLOSE_DEVICE, b"ctx", c.rng)
        device_type = next(a for _, a in pres.disclosed if a.kind == "device_type")
        enc = device_type.encode()      # kind length, kind, 2-byte length, value
        widened = enc[:-3] + (2).to_bytes(2, "big") + device_type.value * 2
        pres_b = pres.to_bytes(params)
        bad = pres_b.replace(enc, widened)
        assert bad != pres_b
        with pytest.raises(ParameterError):
            decode_presentation(bad, params)
        handlers = [
            (deployment.psd.handle_spectrum_request,
             wire.pack_fields(b"l" * 16, b"c", b"v", bad, b"phi")),
            (deployment.server.handle_service_request,
             wire.pack_fields(b"m", b"p" * 8, b"s", bad, b"phi")),
            (lambda content, now: deployment.ap.issue_pol(content, now, 5.0),
             wire.pack_fields(deployment.ap.beacon(t).encode(), b"l" * 16,
                              window_of(t).to_bytes(8, "big"), bad)),
        ]
        for handle, content in handlers:
            with pytest.raises(ProtocolReject) as e:
                handle(content, t)
            assert e.value.reason == RejectReason.BAD_CREDENTIAL

    def test_service_request_replay_rejected(self, deployment):
        t = 5300.0
        c = deployment.new_client(DeviceProfile(b"RPL-0001", 30.0, 0), seed=7104)
        proof, _ = run_pol_ap(c, deployment.ap, 4.0, 8.0, t)
        _, puzzle, _, _ = run_spectrum_query(c, deployment.psd, 4.0, 8.0, t,
                                             proof=proof)
        token, _, trace = run_service_request(c, deployment.server, b"m",
                                              puzzle, t, proof=proof)
        assert len(token) == 16
        request = wire.message_content(trace.request)
        for later in (t, t + 1.0):
            with pytest.raises(ProtocolReject) as e:
                deployment.server.handle_service_request(request, later)
            assert e.value.reason == RejectReason.BAD_PUZZLE
        assert puzzle.puzzle_id not in deployment.psd.puzzles
