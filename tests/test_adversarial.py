"""Cross-object splicing, transplants, and malformed-input handling:
attacks that reuse valid pieces in the wrong place must fail cleanly."""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slapx import dac, rlrs, vdf, wire
from slapx.errors import (CryptoError, ParameterError, ProtocolReject,
                          RejectReason, SlapxError)
from slapx.group import CURVE
from slapx.hashes import H_tagged
from slapx.protocol import (DISCLOSE_DEVICE, DeviceProfile, LocationProof,
                            NeighborDevice, Puzzle, _binding, _check_presentation,
                            _delegated, _or_reject, _point, _read_presentation,
                            _unpack, presentation_context, run_pol_ap,
                            run_pol_nd, run_service_request, run_spectrum_query,
                            window_of)
from slapx.rng import SeededRng

EVENT = rlrs.EventId(1.0, 2.0, 3, b"b" * 32)
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def ring_env():
    rng = SeededRng(71)
    msk, pp = rlrs.rlrs_setup(8, rng)
    ring = [f"R-{i}" for i in range(4)]
    keys = {i: rlrs.rlrs_extract(msk, i, pp) for i in ring}
    return pp, ring, keys, rng


@pytest.fixture(scope="module")
def cred_env():
    rng = SeededRng(72)
    params, root = dac.dac_setup(t=4, rng=rng, modulus_bits=512)
    attrs_a = (dac.Attribute("device_id", b"AAAAAAAA"),)
    attrs_b = (dac.Attribute("device_id", b"BBBBBBBB"),)
    pk_a, sk_a = dac.dac_keygen(params, rng)
    pk_b, sk_b = dac.dac_keygen(params, rng)
    cred_a = dac.issue_credential(root, sk_a, attrs_a, rng)
    cred_b = dac.issue_credential(root, sk_b, attrs_b, rng)
    return params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b)


class TestRlrsSplicing:

    def test_random_signature_rejected(self, ring_env):
        pp, ring, keys, rng = ring_env
        g = CURVE
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
            pres.nym, pres.sigma_r, pres.c, pres.z_t, pres.z_u,
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
            pres_a.nym, pres_b.sigma_r, pres_a.c, pres_a.z_t,
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
            nym_b, pres.sigma_r, pres.c, pres.z_t, pres.z_u,
            pres.z_o, pres.z_r, pres.hidden, pres.disclosed, pres.ext)
        assert not dac.dac_cred_verify(params, forged, b"c")

    def test_ext_block_transplant_fails(self, cred_env):
        params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b) = cred_env
        # delegate from A's credential to B, then splice B's extension onto
        # a presentation that never proved nym_d's opening
        req, r_d = dac.dac_request_delegation(params, sk_b, rng)
        a_l = (dac.Attribute.location(1.0, 1.0), dac.Attribute.ts_window(9))
        ext = dac.dac_issue_cred(params, cred_a, req, a_l, rng)
        dcred = dac.dac_receive_cred(params, cred_b, r_d, ext)
        nym_b, aux_b = dac.dac_nymgen(params, pk_b, rng)
        honest = dac.dac_cred_prove(params, sk_b, nym_b, aux_b, dcred, (0,),
                                    b"c", rng)
        assert dac.dac_cred_verify(params, honest, b"c")
        # attacker A holds a valid base presentation and grafts B's ext
        nym_a, aux_a = dac.dac_nymgen(params, pk_a, rng)
        base_only = dac.dac_cred_prove(params, sk_a, nym_a, aux_a, cred_a,
                                       (0,), b"c", rng)
        grafted = dac.Presentation(
            base_only.nym, base_only.sigma_r, base_only.c,
            base_only.z_t, base_only.z_u, base_only.z_o, base_only.z_r,
            base_only.hidden, base_only.disclosed, honest.ext)
        assert not dac.dac_cred_verify(params, grafted, b"c")

    def test_forged_delegation_cert_fails(self, cred_env):
        params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b) = cred_env
        from slapx.group import SigningKey
        rogue = SigningKey.generate(rng)
        req, r_d = dac.dac_request_delegation(params, sk_b, rng)
        a_l = (dac.Attribute.location(1.0, 1.0), dac.Attribute.ts_window(9))
        from slapx.hashes import H_tagged
        bad_cert = rogue.sign(H_tagged("dac/dkcert", rogue.pk.to_bytes(),
                                       bytes([2])), rng)
        ext_body = H_tagged("dac/ext",
                            req.X.to_bytes(params.n_bytes, "big"),
                            dac.attrs_digest(a_l), bytes([2]), b"\x01")
        ext_sig = rogue.sign(ext_body, rng)
        with pytest.raises(CryptoError):
            dac.dac_receive_cred(params, cred_b, r_d, dac.Extension(
                req.X, rogue.pk.to_bytes(), bad_cert, ext_sig, a_l))

    def test_delegated_pseudonym_out_of_range_fails_cleanly(self, cred_env):
        # a delegator that signs an extension for nym_d = 0 must not make
        # issuance or verification raise (0 has no inverse mod n)
        params, rng, (pk_a, sk_a, cred_a), (pk_b, sk_b, cred_b) = cred_env
        req, r_d = dac.dac_request_delegation(params, sk_b, rng)
        a_l = (dac.Attribute.location(1.0, 1.0), dac.Attribute.ts_window(9))
        with pytest.raises(CryptoError):
            dac.dac_issue_cred(params, cred_a, dataclasses.replace(req, X=0),
                               a_l, rng)
        ext = dac.dac_issue_cred(params, cred_a, req, a_l, rng)
        ext_sig = cred_a.dk.key.sign(
            H_tagged("dac/ext", bytes(params.n_bytes), dac.attrs_digest(a_l),
                     bytes([2]), b"\x01"), rng)
        dcred = dac.DelegatedCredential(
            dataclasses.replace(ext, nym_d=0, ext_sig=ext_sig), r_d, cred_b)
        nym_b, aux_b = dac.dac_nymgen(params, pk_b, rng)
        pres = dac.dac_cred_prove(params, sk_b, nym_b, aux_b, dcred, (0,), b"c", rng)
        assert not dac.dac_cred_verify(params, pres, b"c")


class TestVdfTransplants:
    def test_solution_for_other_modulus_rejected(self):
        rng = SeededRng(73)
        pa = vdf.rsa_setup(128, rng)
        pb = vdf.rsa_setup(128, rng)
        ch = vdf.VdfChallenge(b"m", 64)
        sol = vdf.vdf_eval(pa, ch)
        assert vdf.vdf_verify(pa, ch, sol)
        assert not vdf.vdf_verify(pb, ch, sol)

    def test_solution_for_other_tau_rejected(self):
        rng = SeededRng(74)
        params = vdf.rsa_setup(128, rng)
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
                dac.Presentation.from_bytes(wire.unpack_fields(bytes(mutated), 4)[3],
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
            dac.Presentation.from_bytes(bad, params)
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


class _Captured(Exception):
    def __init__(self, request: bytes):
        super().__init__("captured")
        self.request = request


class _Capture:
    """Stands in for the PSD or the server: keeps the request, sends nothing."""

    def handle_spectrum_request(self, request: bytes, now_s: float):
        raise _Captured(request)

    handle_service_request = handle_spectrum_request


def _captured(driver, *args, **kwargs) -> bytes:
    with pytest.raises(_Captured) as c:
        driver(*args, **kwargs)
    return c.value.request


# role -> (number of request fields, index of the presentation field)
ROLE_FIELDS = {"ap": (4, 3), "nd": (5, 2), "psd": (5, 3), "server": (5, 3)}


def _one_field_mutated(data, request: bytes, count: int) -> bytes:
    """request with one of its `count` fields flipped in one bit, cut short
    or extended, as hypothesis draws it."""
    fields = wire.unpack_fields(request, count)
    i = data.draw(st.integers(0, len(fields) - 1))
    f = fields[i]
    edit = data.draw(st.sampled_from(["flip", "cut", "extend"]))
    if edit == "flip":
        bit = data.draw(st.integers(0, 8 * len(f) - 1))
        fields[i] = (int.from_bytes(f, "big") ^ (1 << bit)).to_bytes(len(f), "big")
    elif edit == "cut":
        fields[i] = f[:data.draw(st.integers(0, len(f) - 1))]
    else:
        fields[i] = f + data.draw(st.binary(min_size=1, max_size=40))
    return wire.pack_fields(*fields)


@pytest.fixture(scope="module")
def valid_requests(deployment):
    """role -> (handler, a valid request that no handler has seen)."""
    t = 7000.0
    c = deployment.new_client(DeviceProfile(b"FUZ-0001", 30.0, 0), seed=7201)
    _, nd_sk, nd_cred = deployment.authority.enroll(DeviceProfile(b"FUZ-ND01", 30.0, 0))
    nd = NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(7202))
    proof, pol_ap = run_pol_ap(c, deployment.ap, 5.0, 5.0, t)
    _, pol_nd = run_pol_nd(c, nd, 5.0, 5.0, t, 10.0)
    query = _captured(run_spectrum_query, c, _Capture(), 5.0, 5.0, t, proof=proof)
    # the service request redeems a live puzzle bought with a second proof
    proof2, _ = run_pol_ap(c, deployment.ap, 6.0, 5.0, t)
    _, puzzle, _, _ = run_spectrum_query(c, deployment.psd, 6.0, 5.0, t, proof=proof2)
    service = _captured(run_service_request, c, _Capture(), b"m", puzzle, t,
                        proof=proof2)
    return {
        "ap": (lambda r: deployment.ap.issue_pol(r, t, 5.0),
               wire.message_content(pol_ap.request)),
        "nd": (lambda r: nd.issue_delegated(r, t, 10.0),
               wire.message_content(pol_nd.request)),
        "psd": (lambda r: deployment.psd.handle_spectrum_request(r, t), query),
        "server": (lambda r: deployment.server.handle_service_request(r, t), service),
    }


def _psd_state(psd) -> tuple:
    """What a request may leave behind at the PSD: used keys, live puzzles
    and the epoch modulus."""
    return set(psd.links), set(psd.grants), dict(psd.puzzles), psd._modulus


class TestMutatedRequestsRejectCleanly:
    """Outside bytes reach a handler's decision only through its strict
    decoders: whatever one field of a valid request is changed to, the
    handler raises ProtocolReject, and nothing else, and leaves the PSD as
    it was."""

    @pytest.mark.parametrize("role", sorted(ROLE_FIELDS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_field_flipped_cut_or_extended(self, deployment, valid_requests,
                                               role, data):
        handle, request = valid_requests[role]
        before = _psd_state(deployment.psd)
        with pytest.raises(ProtocolReject):
            handle(_one_field_mutated(data, request, ROLE_FIELDS[role][0]))
        assert _psd_state(deployment.psd) == before

    @pytest.mark.parametrize("role", sorted(ROLE_FIELDS))
    def test_presentation_with_trailing_bytes_is_bad_credential(self, valid_requests,
                                                                role):
        handle, request = valid_requests[role]
        count, pres_at = ROLE_FIELDS[role]
        fields = wire.unpack_fields(request, count)
        fields[pres_at] += b"\x00"
        with pytest.raises(ProtocolReject) as e:
            handle(wire.pack_fields(*fields))
        assert e.value.reason == RejectReason.BAD_CREDENTIAL

    @pytest.mark.parametrize("role", sorted(ROLE_FIELDS))
    @pytest.mark.parametrize("level", [0, 2])
    def test_presentation_with_other_level_is_bad_credential(self, valid_requests,
                                                             role, level):
        handle, request = valid_requests[role]
        count, pres_at = ROLE_FIELDS[role]
        fields = wire.unpack_fields(request, count)
        assert fields[pres_at][:2] == b"\x01\x01"    # version, level
        fields[pres_at] = b"\x01" + bytes([level]) + fields[pres_at][2:]
        with pytest.raises(ProtocolReject) as e:
            handle(wire.pack_fields(*fields))
        assert e.value.reason == RejectReason.BAD_CREDENTIAL

    def test_neighbor_device_peer_key_and_delegation_request(self, deployment,
                                                             valid_requests):
        handle, request = valid_requests["nd"]
        loc, win_b, pres_b, peer_b, dreq_b = wire.unpack_fields(request, 5)
        tampered = dreq_b[:-1] + bytes([dreq_b[-1] ^ 1])
        # the presentation binds both fields, so a changed one is refused
        # with it, before the delegator checks the request's opening proof
        cases = [((b"\x02" + b"\xff" * 32, dreq_b), RejectReason.BAD_CREDENTIAL),
                 ((bytes(33), dreq_b), RejectReason.BAD_CREDENTIAL),  # identity
                 ((peer_b, dreq_b[:-1]), RejectReason.BAD_CREDENTIAL),
                 ((peer_b, tampered), RejectReason.BAD_CREDENTIAL)]
        for (peer, dreq), reason in cases:
            with pytest.raises(ProtocolReject) as e:
                handle(wire.pack_fields(loc, win_b, pres_b, peer, dreq))
            assert e.value.reason == reason
        # a presentation that binds a request with a bad opening proof
        c = deployment.new_client(DeviceProfile(b"FUZ-0002", 30.0, 0), seed=7203)
        window = int.from_bytes(win_b, "big")
        pres_bad = c.present(c.cred, "pol-nd", window, "ND", (),
                             loc + win_b + peer_b + tampered)
        with pytest.raises(ProtocolReject) as e:
            handle(wire.pack_fields(loc, win_b, pres_bad, peer_b, tampered))
        assert e.value.reason == RejectReason.DELEGATION_DENIED

    def test_unknown_puzzle_rejected_before_credential_check(self, valid_requests,
                                                            monkeypatch):
        def no_credential_check(*args):
            raise AssertionError("credential verified before the puzzle lookup")

        handle, request = valid_requests["server"]
        m, _, sol_b, pres_b, phi_b = wire.unpack_fields(request, 5)
        monkeypatch.setattr(dac, "dac_cred_verify", no_credential_check)
        with pytest.raises(ProtocolReject) as e:
            handle(wire.pack_fields(m, b"\xff" * 8, sol_b, pres_b, phi_b))
        assert e.value.reason == RejectReason.BAD_PUZZLE


# -- the server's check order against the order it replaced -------------------

def _earlier_order(server, request: bytes, now_s: float) -> bytes:
    """The service server's checks in the order they ran before the server
    trusted the PSD's record of Phi: the credential before the solution,
    and Phi decoded and its ring signature verified last."""
    m, pid, sol_b, pres_b, phi_b = _unpack(request, 5, RejectReason.BAD_SOLUTION)
    window = window_of(now_s)
    pres = _read_presentation(pres_b, server.view.dac_params)
    issued = server.psd.puzzles.get(pid)
    if issued is None:
        raise ProtocolReject(RejectReason.BAD_PUZZLE, "unknown puzzle")
    puzzle = issued.puzzle
    if now_s > puzzle.expires_s:
        raise ProtocolReject(RejectReason.EXPIRED, "puzzle expired")
    _check_presentation(server.view.dac_params, pres,
                        presentation_context("service", window, "SERVER"),
                        m + pid + H_tagged("phi", phi_b))
    sol = _or_reject(RejectReason.BAD_SOLUTION, "solution malformed",
                     vdf.VdfSolution.from_bytes, sol_b, puzzle.modulus_bytes)
    if not vdf.vdf_verify(puzzle.modulus_n, puzzle.challenge_for(m), sol):
        raise ProtocolReject(RejectReason.BAD_SOLUTION, "VDF proof invalid")
    if pres.ext is None:
        proof = _or_reject(RejectReason.BAD_POL, "proof undecodable",
                           LocationProof.decode, phi_b, server.view.rlrs_params)
        if proof.event.ts != window:
            raise ProtocolReject(RejectReason.EXPIRED, "proof outside window")
        if not rlrs.rlrs_verify(server.view.ring, proof.m, proof.event,
                                proof.sig, server.view.rlrs_params):
            raise ProtocolReject(RejectReason.BAD_POL, "ring signature invalid")
    elif _delegated(pres, "ts_window") != window.to_bytes(8, "big"):
        raise ProtocolReject(RejectReason.EXPIRED, "delegated proof expired")
    if server.psd.puzzles.pop(pid, None) is None:
        raise ProtocolReject(RejectReason.BAD_PUZZLE, "puzzle already redeemed")
    return wire.pack_fields(b"\x01", H_tagged("grant", pid, m)[:16])


def _decision(handle, request: bytes, now_s: float) -> str:
    try:
        handle(request, now_s)
    except ProtocolReject as e:
        return e.reason.name
    return "GRANTED"


def _listed_change(server, puzzles: dict, request: bytes, now_s: float,
                   old: str, new: str) -> bool:
    """Whether old -> new is one of the decision changes README lists, for
    the puzzle table `puzzles` both orders ran on, taken in the server's
    order: (1) a solution that is undecodable or fails the VDF check now
    comes before the credential; (2) a binding other than the puzzle's
    record, on either path, is BAD_POL whatever the
    earlier order said: on the AP path a Phi other than the one the PSD
    verified at query time, and a request of one path on a puzzle bought
    on the other; (3) a window fault now comes before the credential and
    the full VDF check; (4) an ND presentation with the puzzle's nym_d
    under a second extension for another window, EXPIRED in the earlier
    order, is decided by the puzzle's issue window."""
    params = server.view.dac_params
    m, pid, sol_b, pres_b, phi_b = wire.unpack_fields(request, 5)
    pres = dac.Presentation.from_bytes(pres_b, params)
    issued = puzzles[pid]
    same_binding = _binding(params, pres, H_tagged("phi", phi_b)) == issued.binding
    if new == "GRANTED":
        return (old == "EXPIRED" and pres.ext is not None and same_binding
                and _delegated(pres, "ts_window")
                != window_of(now_s).to_bytes(8, "big"))
    if new == "BAD_SOLUTION":
        puzzle = issued.puzzle
        try:
            sol = vdf.VdfSolution.from_bytes(sol_b, puzzle.modulus_bytes)
        except SlapxError:
            return old == "BAD_CREDENTIAL"
        return old == "BAD_CREDENTIAL" and not vdf.vdf_verify(
            puzzle.modulus_n, puzzle.challenge_for(m), sol)
    if not same_binding:
        return new == "BAD_POL"
    return new == "EXPIRED" and old in ("BAD_CREDENTIAL", "BAD_SOLUTION")


def _both_orders(server, request: bytes, now_s: float) -> tuple[str, str, bool]:
    """(the earlier order's decision, the server's, whether a change is
    listed), each order run on the same puzzle table; the table is left as
    the server's run leaves it."""
    puzzles = server.psd.puzzles
    before = dict(puzzles)
    old = _decision(lambda r, t: _earlier_order(server, r, t), request, now_s)
    puzzles.clear()
    puzzles.update(before)
    new = _decision(server.handle_service_request, request, now_s)
    return old, new, old != new and _listed_change(server, before, request, now_s,
                                                   old, new)


def _service_request(c, m: bytes, puzzle, sol_b: bytes, phi_b: bytes,
                     now_s: float, dcred=None, good_cred: bool = True) -> bytes:
    """A service request with the given parts; with good_cred False its
    presentation signs another payload, so the credential check fails."""
    params = c.view.dac_params
    nym, aux = c.fresh_nym()
    payload = m + puzzle.puzzle_id + H_tagged("phi", phi_b)
    pres = dac.dac_cred_prove(
        params, c.sk, nym, aux, dcred if dcred is not None else c.cred,
        DISCLOSE_DEVICE, presentation_context("service", window_of(now_s), "SERVER"),
        c.rng, payload=payload if good_cred else b"x" + payload)
    return wire.pack_fields(m, puzzle.puzzle_id, sol_b, pres.to_bytes(params), phi_b)


@pytest.fixture(scope="module")
def flood():
    """perfbench's workloads module and one flood unit of it, so that the
    flood's requests are built by its own code."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        yield workloads, workloads.FloodUnit(seed=1, u=0)


class TestServerCheckOrderReference:
    """The server's cheapest-first order against the order it replaced: the
    same decision on every request, apart from the changes README lists."""

    def test_every_listed_case(self, deployment, monkeypatch):
        t = 11_150.0            # 10 s before the window ends
        later = t + 15.0        # the next window, before any puzzle expires
        c = deployment.new_client(DeviceProfile(b"ORD-0001", 30.0, 0), seed=7301)
        _, nd_sk, nd_cred = deployment.authority.enroll(
            DeviceProfile(b"ORD-ND01", 30.0, 0))
        nd = NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(7302))
        params = c.view.rlrs_params
        proof, _ = run_pol_ap(c, deployment.ap, 5.0, 6.0, t)
        other, _ = run_pol_ap(c, deployment.ap, 5.0, 6.0, t)
        previous, _ = run_pol_ap(c, deployment.ap, 5.0, 6.0, t - 60.0)
        _, puzzle, _, _ = run_spectrum_query(c, deployment.psd, 5.0, 6.0, t,
                                             proof=proof)
        # a delegator that signs twice for one nym_d: a second extension of
        # dcred's delegation request, for the previous window
        dreq = dac.dac_request_delegation(c.view.dac_params, c.sk, c.rng)
        with monkeypatch.context() as mp:
            mp.setattr(dac, "dac_request_delegation", lambda *args: dreq)
            dcred, _ = run_pol_nd(c, nd, 5.0, 6.0, t, 10.0)
            dcred_again, _ = run_pol_nd(c, nd, 5.0, 6.0, t - 60.0, 10.0)
        _, nd_puzzle, _, _ = run_spectrum_query(c, deployment.psd, 5.0, 6.0, t,
                                                dcred=dcred)
        m = b"order"
        n = puzzle.modulus_n
        good = vdf.vdf_eval(puzzle.modulus_n, puzzle.challenge_for(m))
        nd_good = vdf.vdf_eval(nd_puzzle.modulus_n, nd_puzzle.challenge_for(m))
        sols = {
            "good": good,
            "low_ell": vdf.VdfSolution(2, good.pi, good.y),
            # passes the floor, but is not the next prime after H(x + y)
            "wrong_ell": vdf.VdfSolution(good.ell + 2, good.pi, good.y),
            "y_out_of_range": vdf.VdfSolution(good.ell, good.pi, n),
            "wrong_pi": vdf.VdfSolution(good.ell, (good.pi + 1) % n, good.y),
            "nd_good": nd_good,
            "nd_low_ell": vdf.VdfSolution(2, nd_good.pi, nd_good.y),
            "nd_wrong_ell": vdf.VdfSolution(nd_good.ell + 2, nd_good.pi,
                                            nd_good.y),
            "nd_wrong_pi": vdf.VdfSolution(nd_good.ell, (nd_good.pi + 1) % n,
                                           nd_good.y),
        }
        sol_b = {k: s.to_bytes(puzzle.modulus_bytes) for k, s in sols.items()}
        sol_b["undecodable"] = b""
        phis = {"query": proof.encode(params), "other": other.encode(params),
                "previous": previous.encode(params), "garbage": b"\x00" * 40,
                "none": b""}
        # (puzzle, solution, Phi, now, credential valid) -> (old, new)
        cases = [
            # one fault, or none
            ((puzzle, "good", "query", t, True), ("GRANTED", "GRANTED")),
            ((puzzle, "good", "other", t, True), ("GRANTED", "BAD_POL")),
            ((puzzle, "good", "previous", t, True), ("EXPIRED", "BAD_POL")),
            ((puzzle, "good", "garbage", t, True), ("BAD_POL", "BAD_POL")),
            ((puzzle, "good", "query", later, True), ("EXPIRED", "EXPIRED")),
            ((nd_puzzle, "nd_good", "query", t, True), ("GRANTED", "BAD_POL")),
            ((puzzle, "good", "query", t, False),
             ("BAD_CREDENTIAL", "BAD_CREDENTIAL")),
            ((puzzle, "low_ell", "query", t, True),
             ("BAD_SOLUTION", "BAD_SOLUTION")),
            ((puzzle, "wrong_pi", "query", t, True),
             ("BAD_SOLUTION", "BAD_SOLUTION")),
            ((puzzle, "wrong_ell", "query", t, True),
             ("BAD_SOLUTION", "BAD_SOLUTION")),
            # a bad credential and a cheaper solution fault
            ((puzzle, "low_ell", "query", t, False),
             ("BAD_CREDENTIAL", "BAD_SOLUTION")),
            ((puzzle, "y_out_of_range", "query", t, False),
             ("BAD_CREDENTIAL", "BAD_SOLUTION")),
            ((puzzle, "undecodable", "query", t, False),
             ("BAD_CREDENTIAL", "BAD_SOLUTION")),
            ((puzzle, "wrong_ell", "query", t, False),
             ("BAD_CREDENTIAL", "BAD_SOLUTION")),
            ((puzzle, "wrong_pi", "query", t, False),
             ("BAD_CREDENTIAL", "BAD_SOLUTION")),
            # a Phi or window fault and a costlier fault
            ((puzzle, "good", "other", t, False), ("BAD_CREDENTIAL", "BAD_POL")),
            ((puzzle, "good", "query", later, False),
             ("BAD_CREDENTIAL", "EXPIRED")),
            ((puzzle, "wrong_pi", "other", t, True), ("BAD_SOLUTION", "BAD_POL")),
            ((puzzle, "wrong_pi", "query", later, True),
             ("BAD_SOLUTION", "EXPIRED")),
            ((puzzle, "low_ell", "other", t, True),
             ("BAD_SOLUTION", "BAD_SOLUTION")),
            ((puzzle, "wrong_ell", "other", t, True), ("BAD_SOLUTION", "BAD_POL")),
            ((puzzle, "wrong_ell", "other", t, False),
             ("BAD_CREDENTIAL", "BAD_POL")),
        ]
        nd_cases = [
            ((nd_puzzle, "nd_good", "none", t, True), ("GRANTED", "GRANTED")),
            ((nd_puzzle, "nd_good", "none", later, True), ("EXPIRED", "EXPIRED")),
            ((nd_puzzle, "nd_low_ell", "none", t, False),
             ("BAD_CREDENTIAL", "BAD_SOLUTION")),
            ((nd_puzzle, "nd_wrong_ell", "none", t, False),
             ("BAD_CREDENTIAL", "BAD_SOLUTION")),
            ((nd_puzzle, "nd_wrong_pi", "none", t, False),
             ("BAD_CREDENTIAL", "BAD_SOLUTION")),
            ((nd_puzzle, "nd_good", "none", later, False),
             ("BAD_CREDENTIAL", "EXPIRED")),
            ((nd_puzzle, "nd_wrong_pi", "none", later, True),
             ("BAD_SOLUTION", "EXPIRED")),
            ((puzzle, "good", "none", t, True), ("GRANTED", "BAD_POL")),
        ]
        second_extension_cases = [
            ((nd_puzzle, "nd_good", "none", t, True), ("EXPIRED", "GRANTED")),
        ]
        for dc, table in ((None, cases), (dcred, nd_cases),
                          (dcred_again, second_extension_cases)):
            for (pz, sol, phi, now, cred_ok), want in table:
                request = _service_request(c, m, pz, sol_b[sol], phis[phi], now,
                                           dcred=dc, good_cred=cred_ok)
                saved = dict(deployment.psd.puzzles)
                old, new, listed = _both_orders(deployment.server, request, now)
                deployment.psd.puzzles.update(saved)    # a grant spent one
                case = (sol, phi, now, cred_ok, dc is not None)
                assert (old, new) == want, case
                assert listed == (old != new), case

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_requests(self, deployment, valid_requests, data):
        server, t = deployment.server, 7000.0
        request = _one_field_mutated(data, valid_requests["server"][1], 5)
        saved = dict(deployment.psd.puzzles)
        old, new, listed = _both_orders(server, request, t)
        deployment.psd.puzzles.update(saved)
        assert old == new or listed, (old, new)

    def test_flood_classes(self, flood):
        # the requests perfbench's flood sends to the server
        workloads, unit = flood
        server, now = unit.dep.server, workloads.FLOOD_NOW
        seen = {}
        stream = unit.requests()
        while len(seen) < 5 or sum(seen.values()) < 20:
            kind, request = next(stream)
            if kind in workloads.PSD_KINDS:
                continue
            old, new, _ = _both_orders(server, request, now)
            assert old == new, (kind, old, new)
            want = workloads.EXPECTED.get(kind)
            if kind == "grant":
                assert new == "GRANTED"
            else:
                assert new != "GRANTED" and (want is None or new == want.name)
            seen[kind] = seen.get(kind, 0) + 1
        assert set(seen) == {"grant", "bad_solution", "bad_puzzle",
                             "service_replay", "malformed_server"}


# -- the PSD's check order against the order it replaced ----------------------

def _earlier_psd_order(psd, request: bytes, now_s: float) -> bytes:
    """The PSD's checks in the order they ran before a used proof was
    refused at a lookup: the credential first, the ring signature before
    the coordinates, and the used key looked up last, the link tag on the
    AP path and the binding on the ND path. A query it serves records that
    key and issues no puzzle."""
    params = psd.view.dac_params
    loc, ch_b, tv_b, pres_b, phi_b = _unpack(request, 5)
    window = window_of(now_s)
    phi_digest = H_tagged("phi", phi_b)
    pres = _read_presentation(pres_b, params)
    _check_presentation(params, pres,
                        presentation_context("spectrum", window, "PSD"),
                        loc + ch_b + tv_b + phi_digest)
    binding = _binding(params, pres, phi_digest)
    l_x, l_y = _point(loc)
    psd.db.lookup(l_x, l_y)
    if pres.ext is None:
        proof = _or_reject(RejectReason.BAD_POL, "proof undecodable",
                           LocationProof.decode, phi_b, psd.view.rlrs_params)
        if proof.event.ts != window:
            raise ProtocolReject(RejectReason.EXPIRED, "proof outside window")
        if not rlrs.rlrs_verify(psd.view.ring, proof.m, proof.event,
                                proof.sig, psd.view.rlrs_params):
            raise ProtocolReject(RejectReason.BAD_POL, "ring signature invalid")
        if (proof.event.l_x, proof.event.l_y) != (l_x, l_y):
            raise ProtocolReject(RejectReason.BAD_POL, "coordinates differ")
        seen, key = psd.links, (window, proof.sig.tau.to_bytes())
    else:
        if _delegated(pres, "ts_window") != window.to_bytes(8, "big"):
            raise ProtocolReject(RejectReason.EXPIRED, "delegated proof expired")
        if _delegated(pres, "location") != loc:
            raise ProtocolReject(RejectReason.BAD_POL, "coordinates differ")
        seen, key = psd.grants, (window, binding)
    if key in seen:
        raise ProtocolReject(RejectReason.LINKED, "already seen")
    seen.add(key)
    return b""


def _listed_psd_change(psd, grants: set, request: bytes, now_s: float,
                       old: str, new: str) -> bool:
    """Whether old -> new is one of the PSD's decision changes README lists,
    for the recorded bindings `grants` both orders ran on: (1) a proof
    whose binding is recorded for the window is LINKED, whatever else is
    wrong with the request; (2) a bad credential together with an
    out-of-area location, an undecodable Phi, a proof or delegation of
    another window or coordinates other than the proof's is OUT_OF_AREA,
    BAD_POL or EXPIRED."""
    params = psd.view.dac_params
    loc, ch_b, tv_b, pres_b, phi_b = wire.unpack_fields(request, 5)
    pres = dac.Presentation.from_bytes(pres_b, params)
    window = window_of(now_s)
    phi_digest = H_tagged("phi", phi_b)
    if (window, _binding(params, pres, phi_digest)) in grants:
        return new == "LINKED"
    credential_ok = dac.dac_cred_verify(
        params, pres, presentation_context("spectrum", window, "PSD"),
        loc + ch_b + tv_b + phi_digest)
    return (old == "BAD_CREDENTIAL" and not credential_ok
            and new in ("OUT_OF_AREA", "BAD_POL", "EXPIRED"))


def _restore_psd(psd, state: tuple) -> None:
    """Put back what `_psd_state` read."""
    links, grants, puzzles, _ = state
    for table, saved in ((psd.links, links), (psd.grants, grants),
                         (psd.puzzles, puzzles)):
        table.clear()
        table.update(saved)


def _both_psd_orders(psd, request: bytes, now_s: float) -> tuple[str, str, bool]:
    """(the earlier order's decision, the PSD's, whether a change is
    listed), each order run on the same used keys; the PSD is left as its
    own run leaves it."""
    before = _psd_state(psd)
    old = _decision(lambda r, t: _earlier_psd_order(psd, r, t), request, now_s)
    _restore_psd(psd, before)
    new = _decision(psd.handle_spectrum_request, request, now_s)
    return old, new, old != new and _listed_psd_change(psd, before[1], request,
                                                       now_s, old, new)


def _spectrum_request(c, xy: tuple[float, float], phi_b: bytes, now_s: float,
                      dcred=None, good_cred: bool = True) -> bytes:
    """A spectrum query with the given parts; with good_cred False its
    presentation signs another payload, so the credential check fails."""
    params = c.view.dac_params
    loc = wire.encode_point(*xy)
    ch_b = (1).to_bytes(2, "big")
    tv_b = int(now_s).to_bytes(8, "big") + int(now_s + 60).to_bytes(8, "big")
    payload = loc + ch_b + tv_b + H_tagged("phi", phi_b)
    nym, aux = c.fresh_nym()
    pres = dac.dac_cred_prove(
        params, c.sk, nym, aux, dcred if dcred is not None else c.cred,
        DISCLOSE_DEVICE, presentation_context("spectrum", window_of(now_s), "PSD"),
        c.rng, payload=payload if good_cred else b"x" + payload)
    return wire.pack_fields(loc, ch_b, tv_b, pres.to_bytes(params), phi_b)


class TestPsdCheckOrderReference:
    """The PSD's cheapest-first order against the order it replaced: the
    same decision on every request, apart from the changes README lists."""

    def test_every_listed_case(self, deployment):
        t = 13_150.0
        later = t + 60.0
        psd, ap = deployment.psd, deployment.ap
        c = deployment.new_client(DeviceProfile(b"PSD-0001", 30.0, 0), seed=7401)
        _, nd_sk, nd_cred = deployment.authority.enroll(
            DeviceProfile(b"PSD-ND01", 30.0, 0))
        nd = NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(7402))
        params = c.view.rlrs_params
        here, there, elsewhere, outside = (5.0, 6.0), (7.0, 6.0), (8.0, 6.0), \
            (-10.0, 5.0)
        # a proof and a delegated credential that have bought a puzzle
        used, _ = run_pol_ap(c, ap, *here, t)
        run_spectrum_query(c, psd, *here, t, proof=used)
        used_d, _ = run_pol_nd(c, nd, *here, t, 10.0)
        run_spectrum_query(c, psd, *here, t, dcred=used_d)
        # a second proof for the used one's event carries its link tag
        same_tag, _ = run_pol_ap(c, ap, *here, t)
        fresh, _ = run_pol_ap(c, ap, *there, t)
        phis = {
            "used": used.encode(params), "same_tag": same_tag.encode(params),
            "fresh": fresh.encode(params),
            "tampered": dataclasses.replace(
                fresh, m=bytes([fresh.m[0] ^ 1]) + fresh.m[1:]).encode(params),
            "undecodable": malformed_phi(fresh, params, SeededRng(83)),
            "previous": run_pol_ap(c, ap, *there, t - 60.0)[0].encode(params),
            "outside": run_pol_ap(c, ap, *outside, t)[0].encode(params),
        }
        dcreds = {
            "used": used_d,
            "fresh": run_pol_nd(c, nd, *there, t, 10.0)[0],
            "previous": run_pol_nd(c, nd, *there, t - 60.0, 10.0)[0],
            "outside": run_pol_nd(c, nd, *outside, t, 10.0)[0],
        }
        # (path, proof, query coordinates, now, credential valid) -> (old, new)
        cases = [
            # one fault, or none
            (("ap", "fresh", there, t, True), ("GRANTED", "GRANTED")),
            (("ap", "used", here, t, True), ("LINKED", "LINKED")),
            (("ap", "same_tag", here, t, True), ("LINKED", "LINKED")),
            (("ap", "tampered", there, t, True), ("BAD_POL", "BAD_POL")),
            (("ap", "undecodable", there, t, True), ("BAD_POL", "BAD_POL")),
            (("ap", "previous", there, t, True), ("EXPIRED", "EXPIRED")),
            (("ap", "used", here, later, True), ("EXPIRED", "EXPIRED")),
            (("ap", "fresh", elsewhere, t, True), ("BAD_POL", "BAD_POL")),
            (("ap", "outside", outside, t, True), ("OUT_OF_AREA", "OUT_OF_AREA")),
            (("ap", "fresh", there, t, False),
             ("BAD_CREDENTIAL", "BAD_CREDENTIAL")),
            # a used proof and another fault
            (("ap", "used", here, t, False), ("BAD_CREDENTIAL", "LINKED")),
            (("ap", "used", elsewhere, t, True), ("BAD_POL", "LINKED")),
            (("ap", "used", outside, t, True), ("OUT_OF_AREA", "LINKED")),
            # a bad credential and a cheaper fault
            (("ap", "outside", outside, t, False),
             ("BAD_CREDENTIAL", "OUT_OF_AREA")),
            (("ap", "undecodable", there, t, False), ("BAD_CREDENTIAL", "BAD_POL")),
            (("ap", "previous", there, t, False), ("BAD_CREDENTIAL", "EXPIRED")),
            (("ap", "fresh", elsewhere, t, False), ("BAD_CREDENTIAL", "BAD_POL")),
            # a bad credential and a costlier fault, and two faults of a kind
            (("ap", "tampered", there, t, False),
             ("BAD_CREDENTIAL", "BAD_CREDENTIAL")),
            (("ap", "same_tag", here, t, False),
             ("BAD_CREDENTIAL", "BAD_CREDENTIAL")),
            (("ap", "tampered", elsewhere, t, True), ("BAD_POL", "BAD_POL")),
            (("ap", "undecodable", outside, t, True),
             ("OUT_OF_AREA", "OUT_OF_AREA")),
            # the neighbor-device path
            (("nd", "fresh", there, t, True), ("GRANTED", "GRANTED")),
            (("nd", "used", here, t, True), ("LINKED", "LINKED")),
            (("nd", "fresh", elsewhere, t, True), ("BAD_POL", "BAD_POL")),
            (("nd", "previous", there, t, True), ("EXPIRED", "EXPIRED")),
            (("nd", "outside", outside, t, True), ("OUT_OF_AREA", "OUT_OF_AREA")),
            (("nd", "fresh", there, t, False),
             ("BAD_CREDENTIAL", "BAD_CREDENTIAL")),
            (("nd", "used", here, t, False), ("BAD_CREDENTIAL", "LINKED")),
            (("nd", "used", elsewhere, t, True), ("BAD_POL", "LINKED")),
            (("nd", "fresh", elsewhere, t, False), ("BAD_CREDENTIAL", "BAD_POL")),
            (("nd", "previous", there, t, False), ("BAD_CREDENTIAL", "EXPIRED")),
            (("nd", "outside", outside, t, False),
             ("BAD_CREDENTIAL", "OUT_OF_AREA")),
        ]
        for (path, name, xy, now, cred_ok), want in cases:
            if path == "ap":
                request = _spectrum_request(c, xy, phis[name], now,
                                            good_cred=cred_ok)
            else:
                request = _spectrum_request(c, xy, b"", now, dcred=dcreds[name],
                                            good_cred=cred_ok)
            saved = _psd_state(psd)
            old, new, listed = _both_psd_orders(psd, request, now)
            _restore_psd(psd, saved)        # a served query used its proof
            case = (path, name, xy, now, cred_ok)
            assert (old, new) == want, case
            assert listed == (old != new), case

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_requests(self, deployment, valid_requests, data):
        psd, t = deployment.psd, 7000.0
        request = _one_field_mutated(data, valid_requests["psd"][1], 5)
        saved = _psd_state(psd)
        old, new, listed = _both_psd_orders(psd, request, t)
        _restore_psd(psd, saved)
        assert old == new or listed, (old, new)

    def test_flood_classes(self, flood):
        # the requests perfbench's flood sends to the PSD
        workloads, unit = flood
        psd, now = unit.dep.psd, workloads.FLOOD_NOW
        seen = {}
        stream = unit.requests()
        while len(seen) < 4 or sum(seen.values()) < 10:
            kind, request = next(stream)
            if kind not in workloads.PSD_KINDS:
                continue
            old, new, _ = _both_psd_orders(psd, request, now)
            assert old == new, (kind, old, new)
            want = workloads.EXPECTED[kind]
            assert new != "GRANTED" and (want is None or new == want.name), kind
            seen[kind] = seen.get(kind, 0) + 1
        assert set(seen) == workloads.PSD_KINDS


# -- what each request class costs its handler, counted -----------------------

# the costly calls a handler can make, as (module, name) pairs the handlers
# look up at call time
COSTLY = ((dac, "dac_cred_verify"), (rlrs, "rlrs_verify"),
          (vdf, "hash_to_prime"), (vdf, "multiexp"))

# request class -> (decision, calls to each of COSTLY), in the order sent
REFUSAL_COSTS = {
    "query, AP path": ("GRANTED", (1, 1, 0, 0)),
    "query, ND path": ("GRANTED", (1, 0, 0, 0)),
    "linked replay, AP path": ("LINKED", (0, 0, 0, 0)),
    "linked replay, ND path": ("LINKED", (0, 0, 0, 0)),
    "tampered Phi": ("BAD_POL", (1, 1, 0, 0)),
    "malformed Phi": ("BAD_POL", (0, 0, 0, 0)),
    "out of area": ("OUT_OF_AREA", (0, 0, 0, 0)),
    "proof of another window": ("EXPIRED", (0, 0, 0, 0)),
    "unknown puzzle": ("BAD_PUZZLE", (0, 0, 0, 0)),
    "ell below the floor": ("BAD_SOLUTION", (0, 0, 0, 0)),
    "wrong ell above the floor": ("BAD_SOLUTION", (0, 0, 1, 0)),
    "wrong pi": ("BAD_SOLUTION", (0, 0, 1, 1)),
    "service, AP path": ("GRANTED", (1, 0, 1, 1)),
    "service, ND path": ("GRANTED", (1, 0, 1, 1)),
    "service replay": ("BAD_PUZZLE", (0, 0, 0, 0)),
}


class TestRefusalCosts:
    """Each request class's decision and its count of costly calls at the
    handler. A refusal must cost the server less than the request cost its
    sender: a used proof costs a lookup and a wrong ell one prime search."""

    def test_counts_per_class(self, deployment, monkeypatch):
        t = 14_150.0
        psd, server, ap = deployment.psd, deployment.server, deployment.ap
        c = deployment.new_client(DeviceProfile(b"CST-0001", 30.0, 0), seed=7501)
        _, nd_sk, nd_cred = deployment.authority.enroll(
            DeviceProfile(b"CST-ND01", 30.0, 0))
        nd = NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(7502))
        params = c.view.rlrs_params
        proof, _ = run_pol_ap(c, ap, 5.0, 6.0, t)
        dcred, _ = run_pol_nd(c, nd, 5.0, 6.0, t, 10.0)
        other, _ = run_pol_ap(c, ap, 7.0, 6.0, t)
        tampered = dataclasses.replace(other, m=bytes([other.m[0] ^ 1]) + other.m[1:])
        query = _spectrum_request(c, (5.0, 6.0), proof.encode(params), t)
        nd_query = _spectrum_request(c, (5.0, 6.0), b"", t, dcred=dcred)

        counts = dict.fromkeys((name for _, name in COSTLY), 0)

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted

        for module, name in COSTLY:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        measured, responses = {}, {}

        def send(label, handle, request):
            for name in counts:
                counts[name] = 0
            try:
                responses[label] = handle(request, t)
                decision = "GRANTED"
            except ProtocolReject as e:
                decision = e.reason.name
            measured[label] = (decision, tuple(counts.values()))

        to_psd, to_server = psd.handle_spectrum_request, server.handle_service_request
        send("query, AP path", to_psd, query)
        send("query, ND path", to_psd, nd_query)
        send("linked replay, AP path", to_psd, query)
        send("linked replay, ND path", to_psd, nd_query)
        send("tampered Phi", to_psd,
             _spectrum_request(c, (7.0, 6.0), tampered.encode(params), t))
        send("malformed Phi", to_psd, _spectrum_request(
            c, (7.0, 6.0), malformed_phi(other, params, SeededRng(84)), t))
        send("out of area", to_psd, _spectrum_request(
            c, (-10.0, 5.0), run_pol_ap(c, ap, -10.0, 5.0, t)[0].encode(params), t))
        send("proof of another window", to_psd, _spectrum_request(
            c, (7.0, 6.0), run_pol_ap(c, ap, 7.0, 6.0, t - 60.0)[0].encode(params), t))

        puzzle, nd_puzzle = (Puzzle.decode(wire.unpack_fields(responses[k], 3)[1])
                             for k in ("query, AP path", "query, ND path"))
        m, n = b"cost", puzzle.modulus_n
        good = vdf.vdf_eval(n, puzzle.challenge_for(m))
        nd_good = vdf.vdf_eval(nd_puzzle.modulus_n, nd_puzzle.challenge_for(m))
        phi_b = proof.encode(params)

        def service(pz, sol, phi=phi_b, dc=None):
            return _service_request(c, m, pz, sol.to_bytes(pz.modulus_bytes),
                                    phi, t, dcred=dc)

        unknown = dataclasses.replace(puzzle, puzzle_id=b"\xff" * 8)
        send("unknown puzzle", to_server, service(unknown, good))
        send("ell below the floor", to_server,
             service(puzzle, vdf.VdfSolution(2, good.pi, good.y)))
        send("wrong ell above the floor", to_server,
             service(puzzle, vdf.VdfSolution(good.ell + 2, good.pi, good.y)))
        send("wrong pi", to_server,
             service(puzzle, vdf.VdfSolution(good.ell, (good.pi + 1) % n, good.y)))
        granted = service(puzzle, good)
        send("service, AP path", to_server, granted)
        send("service, ND path", to_server, service(nd_puzzle, nd_good, b"", dcred))
        send("service replay", to_server, granted)
        assert measured == REFUSAL_COSTS
