"""Role state machines: proximity gating, proof life cycle, rate limiting,
delegation path, and the anonymity shape of full runs."""
import hashlib
import math
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from slapx import dac, rlrs, vdf, wire
from slapx.errors import CryptoError, ProtocolReject, RejectReason, SlapxError
from slapx.hashes import H_tagged
from slapx.protocol import (AP_IDS, DISCLOSE_DEVICE, MODULUS_EPOCH_WINDOWS,
                            WINDOW_S, AccessPoint, Beacon, Deployment,
                            DeviceProfile, LocationProof, NeighborDevice,
                            SeededRng, Puzzle, distance_from_rss, prox_verify,
                            rss_at, run_pol_ap, run_pol_nd,
                            run_service_request, run_spectrum_query, window_of)

NOW = 120.0


class TestProxVerify:
    def d_for(self, meters):
        rss = rss_at(meters)
        rtt = 2.0 * meters / 299_792_458.0
        return rss, rtt

    def test_consistent_inputs_any_weight(self):
        rss, rtt = self.d_for(30.0)
        for w in (0.0, 0.3, 0.9, 1.0):
            est = prox_verify(rss, rtt, w)
            assert est == pytest.approx(30.0, abs=0.01)

    def test_relay_high_rtt_weight_rejects(self):
        rss, _ = self.d_for(10.0)      # honest relay close to verifier
        _, rtt = self.d_for(70.0)      # true path of the distant attacker
        est = prox_verify(rss, rtt, 0.9)
        assert est == pytest.approx(64.0, abs=0.01)
        assert est > 50.0

    def test_relay_low_rtt_weight_spoofed(self):
        rss, _ = self.d_for(10.0)
        _, rtt = self.d_for(70.0)
        est = prox_verify(rss, rtt, 0.1)
        assert est == pytest.approx(16.0, abs=0.01)
        assert est <= 50.0

    def test_invalid_weight(self):
        with pytest.raises(SlapxError):
            prox_verify(-60, 1e-7, 1.5)


class TestPolAp:
    def test_honest_client_within_threshold(self, deployment, client):
        proof, trace = run_pol_ap(client, deployment.ap, 10.0, 20.0, NOW)
        assert proof.event.ts == window_of(NOW)
        assert trace.total_payload == 2456

    def test_claimed_coords_too_far(self, deployment, client):
        with pytest.raises(ProtocolReject) as e:
            run_pol_ap(client, deployment.ap, 60.0, 60.0, NOW)
        assert e.value.reason == RejectReason.NOT_PROXIMATE

    def test_estimated_distance_too_far(self, deployment, client):
        with pytest.raises(ProtocolReject) as e:
            run_pol_ap(client, deployment.ap, 10.0, 20.0, NOW,
                       true_distance_m=90.0)
        assert e.value.reason == RejectReason.NOT_PROXIMATE

    # NaN measures NaN RSS and RTT; a negative distance, a negative RTT
    @pytest.mark.parametrize("true_distance_m", [math.nan, -1e-6, -math.inf])
    def test_unusable_measurement_not_proximate(self, deployment, client,
                                                true_distance_m):
        with pytest.raises(ProtocolReject) as e:
            run_pol_ap(client, deployment.ap, 10.0, 20.0, NOW,
                       true_distance_m=true_distance_m)
        assert e.value.reason == RejectReason.NOT_PROXIMATE

    def test_stale_beacon(self, deployment, client):
        beacon = deployment.ap.beacon(NOW)
        nym, aux = client.fresh_nym()
        from slapx.protocol import presentation_context
        loc = dac.Attribute.location(5.0, 5.0).value
        win_b = window_of(NOW).to_bytes(8, "big")
        ctx = presentation_context("pol-ap", window_of(NOW), deployment.ap.ap_id)
        pres = dac.dac_cred_prove(client.view.dac_params, client.sk, nym, aux,
                                  client.cred, (), ctx, client.rng,
                                  payload=beacon.encode() + loc + win_b)
        content = wire.pack_fields(beacon.encode(), loc, win_b,
                                   pres.to_bytes(client.view.dac_params))
        with pytest.raises(ProtocolReject) as e:
            deployment.ap.issue_pol(content, NOW + 61.0, 5.0)
        assert e.value.reason == RejectReason.STALE_BEACON

    def test_forged_presentation_rejected(self, deployment, client):
        beacon = deployment.ap.beacon(NOW)
        loc = dac.Attribute.location(5.0, 5.0).value
        win_b = window_of(NOW).to_bytes(8, "big")
        proof, _ = run_pol_ap(client, deployment.ap, 5.0, 5.0, NOW)
        # reuse a presentation bound to a different payload
        nym, aux = client.fresh_nym()
        pres = dac.dac_cred_prove(client.view.dac_params, client.sk, nym, aux,
                                  client.cred, (), b"wrong-context", client.rng)
        content = wire.pack_fields(beacon.encode(), loc, win_b,
                                   pres.to_bytes(client.view.dac_params))
        with pytest.raises(ProtocolReject) as e:
            deployment.ap.issue_pol(content, NOW, 5.0)
        assert e.value.reason == RejectReason.BAD_CREDENTIAL


class TestSpectrumAndService:
    def test_full_happy_path(self, deployment, client):
        t = 300.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        record, puzzle, sig, tr = run_spectrum_query(
            client, deployment.psd, 10.0, 20.0, t, proof=proof)
        assert record.cell_x == 0.0 and record.cell_y == 0.0
        assert puzzle.tau == vdf.difficulty_for("default")
        token, sol, tr2 = run_service_request(
            client, deployment.server, b"report", puzzle, t, proof=proof)
        assert len(token) == 16
        # the granted solution is an evaluation at the puzzle's tau
        assert vdf.vdf_verify(puzzle.modulus_n, puzzle.challenge_for(b"report"),
                              sol)

    def test_replayed_proof_linked(self, deployment, client):
        t = 420.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        run_spectrum_query(client, deployment.psd, 10.0, 20.0, t, proof=proof)
        with pytest.raises(ProtocolReject) as e:
            run_spectrum_query(client, deployment.psd, 10.0, 20.0, t + 1,
                               proof=proof)
        assert e.value.reason == RejectReason.LINKED

    def test_expired_proof(self, deployment, client):
        t = 480.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        with pytest.raises(ProtocolReject) as e:
            run_spectrum_query(client, deployment.psd, 10.0, 20.0, t + 61.0,
                               proof=proof)
        assert e.value.reason == RejectReason.EXPIRED

    def test_query_coords_must_match_proof(self, deployment, client):
        t = 485.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        with pytest.raises(ProtocolReject) as e:
            run_spectrum_query(client, deployment.psd, 30.0, 20.0, t,
                               proof=proof)
        assert e.value.reason == RejectReason.BAD_POL

    def test_delegated_query_coords_must_match(self, deployment):
        _, nd_sk, nd_cred = deployment.authority.enroll(
            DeviceProfile(b"ND-LOCCH", 30.0, 0))
        nd = NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(78))
        c = deployment.new_client(seed=2005)
        t = 490.0
        dcred, _ = run_pol_nd(c, nd, 5.0, 5.0, t, true_distance_m=10.0)
        with pytest.raises(ProtocolReject) as e:
            run_spectrum_query(c, deployment.psd, 25.0, 5.0, t, dcred=dcred)
        assert e.value.reason == RejectReason.BAD_POL

    def test_out_of_area_query(self, deployment, client, monkeypatch):
        # (-10, 5) is 11 m from the AP, which signs it, but outside the
        # database's area; the PSD refuses it before it checks or records
        # the proof, so a retry is refused the same way
        t, x, y = 540.0, -10.0, 5.0
        proof, _ = run_pol_ap(client, deployment.ap, x, y, t)
        _, nd_sk, nd_cred = deployment.authority.enroll(
            DeviceProfile(b"ND-AREA0", 30.0, 0))
        nd = NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(79))
        c = deployment.new_client(seed=2006)
        dcred, _ = run_pol_nd(c, nd, x, y, t, true_distance_m=11.0)
        verified = []
        real_verify = rlrs.rlrs_verify
        monkeypatch.setattr(rlrs, "rlrs_verify",
                            lambda *a: verified.append(a) or real_verify(*a))
        for querier, path in ((client, {"proof": proof}),
                              (c, {"dcred": dcred})):
            for _ in range(2):
                with pytest.raises(ProtocolReject) as e:
                    run_spectrum_query(querier, deployment.psd, x, y, t, **path)
                assert e.value.reason == RejectReason.OUT_OF_AREA
        assert verified == []

    def test_wrong_message_solution_rejected(self, deployment, client):
        t = 600.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        record, puzzle, sig, _ = run_spectrum_query(
            client, deployment.psd, 10.0, 20.0, t, proof=proof)
        sol = vdf.vdf_eval(puzzle.params(), puzzle.challenge_for(b"other"))
        with pytest.raises(ProtocolReject) as e:
            run_service_request(client, deployment.server, b"report", puzzle,
                                t, proof=proof, solution=sol)
        assert e.value.reason == RejectReason.BAD_SOLUTION

    def test_unknown_puzzle_rejected(self, deployment, client):
        t = 660.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        record, puzzle, sig, _ = run_spectrum_query(
            client, deployment.psd, 10.0, 20.0, t, proof=proof)
        forged = Puzzle(puzzle_id=b"\xff" * 8, modulus_n=puzzle.modulus_n,
                        tau=puzzle.tau, seed=puzzle.seed,
                        issued_s=puzzle.issued_s, expires_s=puzzle.expires_s)
        with pytest.raises(ProtocolReject) as e:
            run_service_request(client, deployment.server, b"m", forged, t,
                                proof=proof)
        assert e.value.reason == RejectReason.BAD_PUZZLE

    def test_missing_solution_rejected(self, deployment, client):
        t = 3000.0
        proof, _ = run_pol_ap(client, deployment.ap, 11.0, 20.0, t)
        record, puzzle, sig, _ = run_spectrum_query(
            client, deployment.psd, 11.0, 20.0, t, proof=proof)
        nym, aux = client.fresh_nym()
        pres = dac.dac_cred_prove(
            client.view.dac_params, client.sk, nym, aux,
            client.cred, DISCLOSE_DEVICE, b"junk", client.rng)
        content = wire.pack_fields(
            b"m", puzzle.puzzle_id, b"",  # solution absent
            pres.to_bytes(client.view.dac_params),
            proof.encode(client.view.rlrs_params))
        with pytest.raises(ProtocolReject):
            deployment.server.handle_service_request(content, t)

    def test_expired_puzzle_rejected(self, deployment, client):
        t = 3120.0
        proof, _ = run_pol_ap(client, deployment.ap, 12.0, 20.0, t)
        record, puzzle, sig, _ = run_spectrum_query(
            client, deployment.psd, 12.0, 20.0, t, proof=proof)
        # solving is legal any time; redeeming after expiry is not
        stale = t + 61.0
        fresh_proof, _ = run_pol_ap(client, deployment.ap, 12.0, 20.0, stale)
        with pytest.raises(ProtocolReject) as e:
            run_service_request(client, deployment.server, b"m", puzzle,
                                stale, proof=fresh_proof)
        assert e.value.reason == RejectReason.EXPIRED

    def test_grant_token_is_keyed_per_deployment(self):
        # each deployment's first puzzle has id 1; with one message, only the
        # server's key tells the two tokens apart
        tokens = []
        for seed in (2, 5):
            dep = Deployment.create(seed=seed, psd_modulus_bits=512)
            client = dep.new_client(DeviceProfile(b"DEV-TOKN", 30.0, 0), seed=1401)
            proof, _ = run_pol_ap(client, dep.ap, 10.0, 20.0, 300.0)
            _, puzzle, _, _ = run_spectrum_query(client, dep.psd, 10.0, 20.0,
                                                 300.0, proof=proof)
            assert puzzle.puzzle_id == (1).to_bytes(8, "big")
            token, _, _ = run_service_request(client, dep.server, b"m", puzzle,
                                              300.0, proof=proof)
            assert token != H_tagged("grant", puzzle.puzzle_id, b"m")[:16]
            tokens.append(token)
        assert tokens[0] != tokens[1]

    def test_attacker_difficulty_escalated(self, deployment):
        flagged = deployment.new_client(
            DeviceProfile(b"EVIL-042", 30.0, 2), seed=4242)
        t = 720.0
        proof, _ = run_pol_ap(flagged, deployment.ap, 10.0, 20.0, t)
        record, puzzle, sig, _ = run_spectrum_query(
            flagged, deployment.psd, 10.0, 20.0, t, proof=proof)
        assert puzzle.tau == vdf.difficulty_for("flagged")


class TestServiceTrustsPsdRecord:
    """The server checks the proof against the binding and window the PSD
    recorded when it verified the proof and issued the puzzle; it verifies
    no ring signature and no delegated window itself."""

    def test_other_valid_phi_of_the_window_is_bad_pol(self, deployment, client):
        t = 9000.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        _, puzzle, _, _ = run_spectrum_query(client, deployment.psd, 10.0,
                                             20.0, t, proof=proof)
        other, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        with pytest.raises(ProtocolReject) as e:
            run_service_request(client, deployment.server, b"m", puzzle, t,
                                proof=other)
        assert e.value.reason == RejectReason.BAD_POL
        token, _, _ = run_service_request(client, deployment.server, b"m",
                                          puzzle, t, proof=proof)
        assert len(token) == 16

    def test_ap_request_on_nd_puzzle_is_bad_pol(self, deployment):
        _, nd_sk, nd_cred = deployment.authority.enroll(
            DeviceProfile(b"ND-TRUST", 30.0, 0))
        nd = NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(80))
        c = deployment.new_client(seed=2007)
        t = 9060.0
        dcred, _ = run_pol_nd(c, nd, 5.0, 5.0, t, true_distance_m=10.0)
        _, puzzle, _, _ = run_spectrum_query(c, deployment.psd, 5.0, 5.0, t,
                                             dcred=dcred)
        proof, _ = run_pol_ap(c, deployment.ap, 5.0, 5.0, t)
        with pytest.raises(ProtocolReject) as e:
            run_service_request(c, deployment.server, b"m", puzzle, t,
                                proof=proof)
        assert e.value.reason == RejectReason.BAD_POL

    def test_nd_request_on_ap_puzzle_is_bad_pol(self, deployment, client):
        # a device holding only a delegated credential, which never queried
        # the PSD, solves another device's AP-path puzzle
        _, nd_sk, nd_cred = deployment.authority.enroll(
            DeviceProfile(b"ND-TRST2", 30.0, 0))
        nd = NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(81))
        t = 9120.0
        proof, _ = run_pol_ap(client, deployment.ap, 5.0, 5.0, t)
        _, puzzle, _, _ = run_spectrum_query(client, deployment.psd, 5.0, 5.0,
                                             t, proof=proof)
        thief = deployment.new_client(seed=2008)
        dcred, _ = run_pol_nd(thief, nd, 5.0, 5.0, t, true_distance_m=10.0)
        with pytest.raises(ProtocolReject) as e:
            run_service_request(thief, deployment.server, b"m", puzzle, t,
                                dcred=dcred)
        assert e.value.reason == RejectReason.BAD_POL
        token, _, _ = run_service_request(client, deployment.server, b"m",
                                          puzzle, t, proof=proof)
        assert len(token) == 16

    def test_query_redeemed_in_next_window_expired(self, deployment, client):
        t = 9170.0              # 10 s before the window ends
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        _, puzzle, _, _ = run_spectrum_query(client, deployment.psd, 10.0,
                                             20.0, t, proof=proof)
        later = t + 20.0
        assert window_of(later) == window_of(t) + 1 and later <= puzzle.expires_s
        with pytest.raises(ProtocolReject) as e:
            run_service_request(client, deployment.server, b"m", puzzle,
                                later, proof=proof)
        assert e.value.reason == RejectReason.EXPIRED

    def test_honest_ap_grant_verifies_ring_signature_twice(self, deployment,
                                                           client, monkeypatch):
        calls = []
        real_verify = rlrs.rlrs_verify
        monkeypatch.setattr(rlrs, "rlrs_verify",
                            lambda *a: calls.append(a) or real_verify(*a))
        t = 9240.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        _, puzzle, _, _ = run_spectrum_query(client, deployment.psd, 10.0,
                                             20.0, t, proof=proof)
        token, _, _ = run_service_request(client, deployment.server, b"m",
                                          puzzle, t, proof=proof)
        assert len(token) == 16
        assert len(calls) == 2      # the client's on receipt and the PSD's

    def test_grant_derives_the_vdf_input_once(self, deployment, client,
                                              monkeypatch):
        t = 9300.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        _, puzzle, _, _ = run_spectrum_query(client, deployment.psd, 10.0,
                                             20.0, t, proof=proof)
        sol = vdf.vdf_eval(puzzle.params(), puzzle.challenge_for(b"m"))
        calls, floors = [], []
        real_base, real_floor = vdf.challenge_base, vdf.hash_to_prime_floor
        monkeypatch.setattr(vdf, "challenge_base",
                            lambda *a: calls.append(a) or real_base(*a))
        monkeypatch.setattr(vdf, "hash_to_prime_floor",
                            lambda *a: floors.append(a) or real_floor(*a))
        token, _, _ = run_service_request(client, deployment.server, b"m",
                                          puzzle, t, proof=proof, solution=sol)
        assert len(token) == 16
        # the ell floor ahead of the credential derives x, and the full
        # verify takes that x
        assert len(calls) == len(floors) == 1


class TestNdPath:
    @pytest.fixture()
    def nd(self, deployment):
        _, nd_sk, nd_cred = deployment.authority.enroll(
            DeviceProfile(b"ND-00001", 30.0, 0))
        return NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(77))

    def test_delegated_flow(self, deployment, nd):
        t = 780.0
        c = deployment.new_client(seed=2002)
        dcred, tr = run_pol_nd(c, nd, 5.0, 5.0, t, true_distance_m=10.0)
        assert tr.total_payload == 1944
        params = deployment.view.dac_params
        req, _ = dac.dac_request_delegation(params, c.sk, SeededRng(2005))
        with pytest.raises(CryptoError, match="terminal"):
            dac.dac_issue_cred(params, dcred, req, dcred.ext.attrs, SeededRng(2006))
        record, puzzle, sig, tr2 = run_spectrum_query(
            c, deployment.psd, 5.0, 5.0, t, dcred=dcred)
        token, sol, _ = run_service_request(c, deployment.server, b"m", puzzle,
                                            t, dcred=dcred)
        assert len(token) == 16

    def test_distance_fraud_rejected(self, deployment, nd):
        c = deployment.new_client(seed=2003)
        with pytest.raises(ProtocolReject) as e:
            run_pol_nd(c, nd, 5.0, 5.0, 840.0, true_distance_m=80.0)
        assert e.value.reason == RejectReason.DBP_FAILED

    # as at the AP: NaN, a negative distance, a negative RTT
    @pytest.mark.parametrize("true_distance_m", [math.nan, -1e-6, -math.inf])
    def test_unusable_measurement_dbp_failed(self, deployment, nd,
                                             true_distance_m):
        c = deployment.new_client(seed=2008)
        with pytest.raises(ProtocolReject) as e:
            run_pol_nd(c, nd, 5.0, 5.0, 845.0, true_distance_m=true_distance_m)
        assert e.value.reason == RejectReason.DBP_FAILED

    def test_delegated_grant_rate_limited(self, deployment, nd):
        t = 900.0
        c = deployment.new_client(seed=2004)
        dcred, _ = run_pol_nd(c, nd, 5.0, 5.0, t, true_distance_m=10.0)
        run_spectrum_query(c, deployment.psd, 5.0, 5.0, t, dcred=dcred)
        with pytest.raises(ProtocolReject) as e:
            run_spectrum_query(c, deployment.psd, 5.0, 5.0, t + 1, dcred=dcred)
        assert e.value.reason == RejectReason.LINKED

    @pytest.mark.parametrize("both", [True, False])
    def test_service_request_takes_one_of_proof_and_dcred(self, deployment,
                                                          nd, both):
        # both, or neither, is refused before any request is sent
        t = 9420.0
        c = deployment.new_client(seed=2007)
        creds = {}
        if both:
            creds["proof"], _ = run_pol_ap(c, deployment.ap, 5.0, 5.0, t)
            creds["dcred"], _ = run_pol_nd(c, nd, 5.0, 5.0, t,
                                           true_distance_m=10.0)
        puzzle = Puzzle(puzzle_id=bytes(8), modulus_n=35, tau=3, seed=b"s",
                        issued_s=t, expires_s=t + WINDOW_S)
        with pytest.raises(SlapxError, match="exactly one"):
            run_service_request(c, _Capture(), b"m", puzzle, t, **creds)


def _one_byte_more(handle):
    """handle's answer with one byte appended."""
    return lambda *args: handle(*args) + b"\0"


class TestDriversReadResponsesWhole:
    """Each phase driver refuses a response with a byte after its fields,
    as strictly as the handlers refuse such a request. One window; each
    query has its own location, so no link tag is shared."""
    T = 30000.0

    def test_pol_ap(self, deployment):
        c = deployment.new_client(seed=2101)
        ap = SimpleNamespace(ap_id=deployment.ap.ap_id, beacon=deployment.ap.beacon,
                             issue_pol=_one_byte_more(deployment.ap.issue_pol))
        with pytest.raises(SlapxError, match="trailing"):
            run_pol_ap(c, ap, 5.0, 5.0, self.T)

    def test_pol_nd(self, deployment):
        _, nd_sk, nd_cred = deployment.authority.enroll(
            DeviceProfile(b"ND-WHOLE", 30.0, 0))
        nd = NeighborDevice(deployment.view, nd_sk, nd_cred, SeededRng(2102))
        nd = SimpleNamespace(issue_delegated=_one_byte_more(nd.issue_delegated))
        c = deployment.new_client(seed=2103)
        with pytest.raises(SlapxError, match="trailing"):
            run_pol_nd(c, nd, 5.0, 5.0, self.T, true_distance_m=10.0)

    def test_spectrum_query(self, deployment):
        c = deployment.new_client(seed=2104)
        proof, _ = run_pol_ap(c, deployment.ap, 5.0, 5.0, self.T)
        psd = SimpleNamespace(handle_spectrum_request=_one_byte_more(
            deployment.psd.handle_spectrum_request))
        with pytest.raises(SlapxError, match="trailing"):
            run_spectrum_query(c, psd, 5.0, 5.0, self.T, proof=proof)

    def test_service_request(self, deployment):
        c = deployment.new_client(seed=2105)
        proof, puzzle = _query(deployment, c, self.T, 6.0, 6.0)
        server = SimpleNamespace(handle_service_request=_one_byte_more(
            deployment.server.handle_service_request))
        with pytest.raises(SlapxError, match="trailing"):
            run_service_request(c, server, b"m", puzzle, self.T, proof=proof)


class TestRevocation:
    def test_double_issuing_ap_identified(self, deployment):
        t = 960.0
        a = deployment.new_client(seed=3001)
        b = deployment.new_client(seed=3002)
        # the AP issues two proofs for one event scope (same coords/window)
        proof_a, _ = run_pol_ap(a, deployment.ap, 10.0, 20.0, t)
        proof_b, _ = run_pol_ap(b, deployment.ap, 10.0, 20.0, t)
        assert proof_a.sig.tau == proof_b.sig.tau
        ring = deployment.view.ring
        who = rlrs.rlrs_revoke(deployment.authority.rlrs_msk, proof_a.event,
                               ring, (proof_a.m, proof_a.sig),
                               ring, (proof_b.m, proof_b.sig),
                               deployment.view.rlrs_params)
        assert who == deployment.ap.ap_id

    def test_distinct_events_not_linked(self, deployment):
        t = 1020.0
        a = deployment.new_client(seed=3003)
        proof_a, _ = run_pol_ap(a, deployment.ap, 10.0, 20.0, t)
        proof_b, _ = run_pol_ap(a, deployment.ap, 15.0, 20.0, t)  # other coords
        assert proof_a.sig.tau != proof_b.sig.tau


class TestAnonymityShape:
    def test_two_runs_share_no_crypto_bytes(self, deployment, run_bytes):
        c = deployment.new_client(seed=4001)
        fields = []
        for t in (1080.0, 1140.0):  # consecutive windows
            proof, tr1 = run_pol_ap(c, deployment.ap, 10.0, 20.0, t)
            _, puzzle, _, tr2 = run_spectrum_query(
                c, deployment.psd, 10.0, 20.0, t, proof=proof)
            _, _, tr3 = run_service_request(c, deployment.server, b"m",
                                            puzzle, t, proof=proof)
            fields.append(run_bytes(deployment.view.dac_params, tr1, tr2, tr3))
        assert len(fields[0]) == 9
        for key in fields[0]:
            assert fields[0][key] != fields[1][key], f"{key} repeated across runs"

    def test_proof_encoding_roundtrip(self, deployment, client):
        t = 1200.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        blob = proof.encode(deployment.view.rlrs_params)
        back = LocationProof.decode(blob)
        assert back.sig == proof.sig
        assert back.event == proof.event


class TestWireObjects:
    def test_puzzle_serialization_roundtrip(self, deployment, client):
        t = 1260.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        _, puzzle, _, _ = run_spectrum_query(client, deployment.psd, 10.0,
                                             20.0, t, proof=proof)
        blob = puzzle.encode()
        assert blob[0] == 1  # tag byte, then length-prefixed N, tau, seed
        assert Puzzle.decode(blob) == puzzle

    def test_solution_wire_fields(self, deployment, client):
        t = 1320.0
        proof, _ = run_pol_ap(client, deployment.ap, 10.0, 20.0, t)
        _, puzzle, _, _ = run_spectrum_query(client, deployment.psd, 10.0,
                                             20.0, t, proof=proof)
        _, sol, tr = run_service_request(client, deployment.server, b"m",
                                         puzzle, t, proof=proof)
        sol_b = wire.unpack_fields(wire.message_content(tr.request), 5)[2]
        ell_b, pi_b, y_b = wire.unpack_fields(sol_b, 3)
        assert int.from_bytes(ell_b, "big") == sol.ell
        assert int.from_bytes(pi_b, "big") == sol.pi
        assert int.from_bytes(y_b, "big") == sol.y

    def test_beacon_unique_per_window(self, deployment):
        b1 = deployment.ap.beacon(1380.0)
        b2 = deployment.ap.beacon(1381.0)   # same window
        b3 = deployment.ap.beacon(1440.0)   # next window
        assert b1 == b2
        assert b1.encode() != b3.encode()
        assert len(b1.encode()) == 32

    @staticmethod
    def _fresh_ap(deployment, seed):
        return AccessPoint(AP_IDS[0], deployment.authority.ap_keys[AP_IDS[0]],
                           deployment.view, SeededRng(seed))

    def test_ap_holds_one_beacon(self, deployment):
        ap = self._fresh_ap(deployment, 94)
        for w in range(1000):
            ap.beacon(w * WINDOW_S)
            held = [x for v in vars(ap).values()
                    for x in (v.values() if isinstance(v, dict) else (v,))
                    if isinstance(x, Beacon)]
            assert len(held) == 1, w

    def test_pol_granted_after_the_clock_goes_back(self, deployment, client):
        ap = self._fresh_ap(deployment, 95)
        for window in (3, 2):
            proof, _ = run_pol_ap(client, ap, 10.0, 20.0,
                                  window * WINDOW_S + 1.0)
            assert proof.event.ts == window


def ap_and_nd_session(dep):
    """Enrol three devices and run one AP and one ND session (PoL, query,
    service) on dep; the six traces."""
    t = 300.0
    ap_client = dep.new_client(DeviceProfile(b"DEV-PIN1", 30.0, 0), seed=1301)
    proof, tr_pol = run_pol_ap(ap_client, dep.ap, 10.0, 20.0, t)
    _, puzzle, _, tr_query = run_spectrum_query(ap_client, dep.psd, 10.0,
                                                20.0, t, proof=proof)
    _, _, tr_service = run_service_request(ap_client, dep.server, b"pin",
                                           puzzle, t, proof=proof)
    _, nd_sk, nd_cred = dep.authority.enroll(
        DeviceProfile(b"ND-PIN01", 30.0, 0))
    nd = NeighborDevice(dep.view, nd_sk, nd_cred, SeededRng(1302))
    nd_client = dep.new_client(DeviceProfile(b"DEV-PIN2", 30.0, 0), seed=1303)
    t += WINDOW_S
    dcred, tr_pol_nd = run_pol_nd(nd_client, nd, 5.0, 5.0, t,
                                  true_distance_m=10.0)
    _, puzzle, _, tr_query_nd = run_spectrum_query(nd_client, dep.psd, 5.0,
                                                   5.0, t, dcred=dcred)
    _, _, tr_service_nd = run_service_request(nd_client, dep.server, b"pin",
                                              puzzle, t, dcred=dcred)
    return (tr_pol, tr_query, tr_service,
            tr_pol_nd, tr_query_nd, tr_service_nd)


class TestSeededSessionPinned:
    def test_psd_key_and_session_frames_unchanged(self):
        # a deployment of its own, so the digest does not depend on the order
        # the other tests run in; covers the PSD key and every framed message
        # of one AP and one ND session (PoL, query, service)
        dep = Deployment.create(seed=3, psd_modulus_bits=512)
        h = hashlib.sha256(dep.psd.sgn_key.pk.to_bytes())
        for tr in ap_and_nd_session(dep):
            h.update(tr.request.encode() + tr.response.encode())
        assert h.hexdigest() == (
            "7ac14e76f8b18bdf5e1c7eb18c758de52dd5244587ea08ab8270d681a0c108b3")


class TestSetupBuildsWhatSessionsRead:
    def test_every_credential_table_is_read(self, monkeypatch):
        # enrolment and one AP and one ND session raise every base whose
        # fixed-base table dac_setup builds: keys BASE_SK and BASE_S index
        # the last two tables, 0, 1, ... the attribute bases
        dep = Deployment.create(seed=4, psd_modulus_bits=512)
        read = set()
        multiexp = dac.DacParams.multiexp

        def recording(params, *terms):
            read.update(key for key, _ in terms)
            return multiexp(params, *terms)

        monkeypatch.setattr(dac.DacParams, "multiexp", recording)
        ap_and_nd_session(dep)
        built = set(range(-2, len(dep.view.dac_params._tables) - 2))
        assert read == built == {dac.BASE_SK, dac.BASE_S, 0, 1, 2, 3}


EPOCH_S = MODULUS_EPOCH_WINDOWS * WINDOW_S


@pytest.fixture(scope="module")
def epoch_dep():
    """A deployment of its own: each test below queries in its own epoch."""
    dep = Deployment.create(seed=17, psd_modulus_bits=512)
    return dep, dep.new_client(DeviceProfile(b"DEV-EPCH", 30.0, 0), seed=1701)


@pytest.fixture
def draws(monkeypatch):
    """Counts the puzzle-modulus draws (rsa_setup calls through the pool)."""
    calls = []
    real = vdf.rsa_setup

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(vdf, "rsa_setup", counting)
    return calls


def _query(dep, client, t, x=10.0, y=20.0):
    proof, _ = run_pol_ap(client, dep.ap, x, y, t)
    _, puzzle, _, _ = run_spectrum_query(client, dep.psd, x, y, t, proof=proof)
    return proof, puzzle


class _Captured(Exception):
    pass


class _Capture:
    """Stands in for the PSD or the service server so a client driver
    builds a request only."""

    def handle_spectrum_request(self, request, now_s):
        raise _Captured(request)

    handle_service_request = handle_spectrum_request


class TestEpochModulus:
    def test_building_a_psd_draws_nothing(self, draws):
        Deployment.create(seed=23, psd_modulus_bits=512)
        assert draws == []

    def test_one_epoch_shares_n_not_seed_or_challenge(self, epoch_dep):
        dep, client = epoch_dep
        t = 40 * EPOCH_S + 10.0
        proof_a, a = _query(dep, client, t)
        proof_b, b = _query(dep, client, t + WINDOW_S)    # next window
        assert a.modulus_n == b.modulus_n
        assert a.modulus_n.bit_length() in (511, 512)
        assert a.seed != b.seed and a.puzzle_id != b.puzzle_id
        assert a.challenge_for(b"m") != b.challenge_for(b"m")

        # a's solution, sent on b, is refused; on a it is granted
        sol = vdf.vdf_eval(a.params(), a.challenge_for(b"m"))
        with pytest.raises(ProtocolReject) as e:
            run_service_request(client, dep.server, b"m", b, t + WINDOW_S,
                                proof=proof_b, solution=sol)
        assert e.value.reason == RejectReason.BAD_SOLUTION
        token, _, _ = run_service_request(client, dep.server, b"m", a, t,
                                          proof=proof_a, solution=sol)
        assert len(token) == 16

    def test_next_epoch_draws_a_new_n(self, epoch_dep, draws, monkeypatch):
        dep, client = epoch_dep
        t = 42 * EPOCH_S + 10.0
        _, first = _query(dep, client, t)
        assert len(draws) == 1
        _, later = _query(dep, client, t + (MODULUS_EPOCH_WINDOWS - 1) * WINDOW_S)
        assert len(draws) == 1 and later.modulus_n == first.modulus_n

        # the draw for the next epoch runs outside the lock of puzzle lookups
        real_get, lock_held = dep.psd.pool.get, []

        def get():
            lock_held.append(dep.psd._lock.locked())
            return real_get()

        monkeypatch.setattr(dep.psd.pool, "get", get)
        _, nxt = _query(dep, client, t + EPOCH_S)
        assert len(draws) == 2 and lock_held == [False]
        assert nxt.modulus_n != first.modulus_n

    def test_racing_first_puzzles_share_one_draw(self, epoch_dep, draws,
                                                 monkeypatch):
        dep, client = epoch_dep
        t = 44 * EPOCH_S + 10.0
        requests = []
        for i in range(6):        # more threads than cores
            proof, _ = run_pol_ap(client, dep.ap, 10.0 + i, 20.0, t)
            with pytest.raises(_Captured) as c:
                run_spectrum_query(client, _Capture(), 10.0 + i, 20.0, t,
                                   proof=proof)
            requests.append(c.value.args[0])

        real_get = dep.psd.pool.get

        def slow_get():
            time.sleep(0.5)       # hold the draw open while the others arrive
            return real_get()

        monkeypatch.setattr(dep.psd.pool, "get", slow_get)
        start = threading.Barrier(len(requests))
        responses = [None] * len(requests)

        def issue(i):
            start.wait(timeout=10)
            responses[i] = dep.psd.handle_spectrum_request(requests[i], t)

        threads = [threading.Thread(target=issue, args=(i,))
                   for i in range(len(requests))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(draws) == 1
        puzzles = [Puzzle.decode(wire.unpack_fields(r, 3)[1]) for r in responses]
        assert len({p.modulus_n for p in puzzles}) == 1
        assert len({p.seed for p in puzzles}) == len(puzzles)


class TestRadioModel:
    def test_rss_monotone_decreasing_in_distance(self):
        samples = [rss_at(d) for d in (1, 5, 20, 50, 100, 400)]
        assert samples == sorted(samples, reverse=True)

    def test_rss_inversion_is_consistent(self):
        for d in (0.5, 3.0, 42.0, 180.0):
            assert distance_from_rss(rss_at(d)) == pytest.approx(d)

    def test_rtt_leg_is_light_speed(self):
        est = prox_verify(rss_at(10.0), 2.0 * 75.0 / 299_792_458.0, 1.0)
        assert est == pytest.approx(75.0)


class TestRacingCopies:
    """Copies of one spectrum request that arrive together: one is served
    and every other is LINKED, on both paths."""

    def test_one_copy_served(self, epoch_dep):
        dep, client = epoch_dep
        t = 46 * EPOCH_S + 10.0
        _, nd_sk, nd_cred = dep.authority.enroll(DeviceProfile(b"ND-RACE1", 30.0, 0))
        nd = NeighborDevice(dep.view, nd_sk, nd_cred, SeededRng(1702))
        proof, _ = run_pol_ap(client, dep.ap, 10.0, 20.0, t)
        dcred, _ = run_pol_nd(client, nd, 10.0, 20.0, t, 10.0)
        for creds in ({"proof": proof}, {"dcred": dcred}):
            with pytest.raises(_Captured) as c:
                run_spectrum_query(client, _Capture(), 10.0, 20.0, t, **creds)
            request = c.value.args[0]
            start = threading.Barrier(6)     # more threads than cores
            outcomes = []

            def send():
                start.wait(timeout=10)
                try:
                    dep.psd.handle_spectrum_request(request, t)
                    outcomes.append("served")
                except ProtocolReject as e:
                    outcomes.append(e.reason.name)

            threads = [threading.Thread(target=send) for _ in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(th.is_alive() for th in threads)
            assert sorted(outcomes) == ["LINKED"] * 5 + ["served"], creds
