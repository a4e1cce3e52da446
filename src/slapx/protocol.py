"""Protocol roles and message flows: location-proof acquisition (via access
point or neighboring device), spectrum queries, and puzzle-gated service
requests, over the credential / ring-signature / VDF / distance-bounding
primitives.

All roles take explicit timestamps so runs are deterministic; the time
window index is floor(now / WINDOW_S) and scopes beacons, link checks, and
proof validity. Every exchanged message is built through wire.build_message,
which enforces the byte-exact per-phase payload budgets.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field

from . import dac, dbp, rlrs, vdf, wire
from .errors import (CryptoError, ParameterError, ProtocolReject, RejectReason,
                     SlapxError)
from .group import Group, SigningKey, sgn_verify
from .hashes import H_tagged
from .rng import SeededRng
from .spectrumdb import SpectrumDatabase, SpectrumRecord

WINDOW_S = 60.0            # TS window length; equals the proof validity bound
PROX_THRESHOLD_M = 50.0    # FCC-style proximity threshold
SPEED_OF_LIGHT = dbp.SPEED_OF_LIGHT_M_S


def window_of(now_s: float) -> int:
    return int(now_s // WINDOW_S)


# -- radio propagation and proximity estimation ------------------------------

@dataclass(frozen=True)
class RadioEnv:
    """Log-distance path-loss environment."""
    tx_power_dbm: float = 30.0
    ref_loss_db: float = 40.0      # loss at 1 m
    path_loss_exp: float = 2.7
    shadowing_sigma_db: float = 3.0

    def rss_at(self, distance_m: float, rng: SeededRng | None = None) -> float:
        d = max(distance_m, 1e-9)
        loss = self.ref_loss_db + 10.0 * self.path_loss_exp * math.log10(d)
        if rng is not None and self.shadowing_sigma_db > 0:
            loss += rng.gauss(0.0, self.shadowing_sigma_db)
        return self.tx_power_dbm - loss

    def distance_from_rss(self, rss_dbm: float) -> float:
        exponent = (self.tx_power_dbm - rss_dbm - self.ref_loss_db) \
            / (10.0 * self.path_loss_exp)
        return 10.0 ** exponent


@dataclass(frozen=True)
class ProxEstimate:
    d_hat: float
    d_rss: float
    d_rtt: float
    weight: float
    ci_m: float

    def contains(self, distance_m: float) -> bool:
        return distance_m <= self.d_hat + self.ci_m


def prox_verify(rss_dbm: float, rtt_s: float, env: RadioEnv,
                weight: float) -> ProxEstimate:
    """Weighted RTT/RSS distance estimate: d = w*d_rtt + (1-w)*d_rss."""
    if not 0.0 <= weight <= 1.0:
        raise SlapxError("weight must be in [0, 1]")
    if rtt_s < 0:
        raise SlapxError("negative RTT")
    d_rtt = SPEED_OF_LIGHT * rtt_s / 2.0
    d_rss = env.distance_from_rss(rss_dbm)
    d_hat = weight * d_rtt + (1.0 - weight) * d_rss
    # rough confidence width from the shadowing spread on the RSS leg
    spread = env.distance_from_rss(rss_dbm - env.shadowing_sigma_db) - d_rss
    return ProxEstimate(d_hat=d_hat, d_rss=d_rss, d_rtt=d_rtt,
                        weight=weight, ci_m=(1.0 - weight) * spread)


# -- beacons and location proofs ---------------------------------------------

@dataclass(frozen=True)
class Beacon:
    ap_id: str
    window: int
    nonce: bytes

    def encode(self) -> bytes:
        return (H_tagged("beacon/ap", self.ap_id.encode())[:8]
                + self.window.to_bytes(8, "big") + self.nonce[:16].ljust(16, b"\x00"))


@dataclass(frozen=True)
class LocationProof:
    """Phi: signed message bundle plus its event scope."""
    m: bytes
    sig: rlrs.RlrsSignature
    l_x: float
    l_y: float
    window: int
    beacon_digest: bytes

    def event(self) -> rlrs.EventId:
        return rlrs.EventId(self.l_x, self.l_y, self.window, self.beacon_digest)

    def encode(self, params: rlrs.RlrsParams) -> bytes:
        return wire.pack_fields(
            self.m, rlrs.encode_signature(self.sig, params),
            rlrs.EventId(self.l_x, self.l_y, self.window,
                         self.beacon_digest).encode())

    @classmethod
    def decode(cls, data: bytes, params: rlrs.RlrsParams) -> "LocationProof":
        m, sig_block, ev = wire.unpack_fields(data, 3)
        l_x = int.from_bytes(ev[0:8], "big", signed=True) / 1000
        l_y = int.from_bytes(ev[8:16], "big", signed=True) / 1000
        window = int.from_bytes(ev[16:24], "big")
        return cls(m=m, sig=rlrs.decode_signature(sig_block, params),
                   l_x=l_x, l_y=l_y, window=window, beacon_digest=ev[24:56])


def _decode_proof(data: bytes, params: rlrs.RlrsParams) -> LocationProof:
    """LocationProof.decode for a proof a client presents to a server: a
    malformed one is a BAD_POL reject."""
    try:
        return LocationProof.decode(data, params)
    except SlapxError as e:
        raise ProtocolReject(RejectReason.BAD_POL, "proof undecodable") from e


def pol_message(beacon: Beacon, l_x: float, l_y: float, window: int,
                binding: bytes) -> bytes:
    """m = D_TS || credential-presentation binding digest."""
    d_ts = (beacon.encode()
            + dac.Attribute.location(l_x, l_y).value
            + window.to_bytes(8, "big"))
    return d_ts + binding[:32]


# -- issuer / authority -------------------------------------------------------

DEVICE_CLASSES = {0: "default", 1: "high_power", 2: "flagged"}


@dataclass(frozen=True)
class DeviceProfile:
    device_id: bytes        # 8 bytes
    tx_power_dbm: float
    device_class: int       # index into DEVICE_CLASSES

    def attributes(self) -> tuple[dac.Attribute, ...]:
        return (dac.Attribute("device_id", self.device_id),
                dac.Attribute("tx_power",
                              int(round(self.tx_power_dbm * 10)).to_bytes(2, "big")),
                dac.Attribute("device_type", bytes([self.device_class])),
                dac.Attribute("validity", (0).to_bytes(8, "big") + (2 ** 48).to_bytes(8, "big")))


# base-credential slots disclosed to the PSD (transmit power, device type)
DISCLOSE_DEVICE = (1, 2)


class Authority:
    """Root issuer: device credentials, AP ring keys, puzzle-signer identity."""

    def __init__(self, rng: SeededRng, ring_cap: int = 16, attr_bound: int = 8):
        self.rng = rng
        self.dac_params, self.root_key = dac.dac_setup(128, t=attr_bound,
                                                       eta=2, rng=rng)
        self.rlrs_msk, self.rlrs_params = rlrs.rlrs_setup(128, ring_cap, rng)
        self.group: Group = self.rlrs_params.group
        self.ring: list[str] = []

    def provision_ap(self, ap_id: str) -> int:
        sk = rlrs.rlrs_extract(self.rlrs_msk, ap_id, self.rlrs_params)
        if ap_id not in self.ring:
            self.ring.append(ap_id)
        return sk

    def enroll(self, profile: DeviceProfile, delegable: bool = True):
        pk, sk = dac.dac_keygen(self.dac_params, self.rng)
        cred = dac.issue_credential(self.root_key, sk, profile.attributes(),
                                    max_delegation_level=2 if delegable else 1,
                                    rng=self.rng)
        return pk, sk, cred

    def revoke_double_issuer(self, event: rlrs.EventId,
                             ring_a: list[str], signed_a, ring_b: list[str],
                             signed_b) -> str | None:
        return rlrs.rlrs_revoke(self.rlrs_msk, event, ring_a, signed_a,
                                ring_b, signed_b, self.rlrs_params)


# -- client -------------------------------------------------------------------

class Client:
    def __init__(self, authority_view: "PublicView", sk: int, pk: int,
                 cred: dac.Credential, profile: DeviceProfile, rng: SeededRng):
        self.view = authority_view
        self.sk = sk
        self.pk = pk
        self.cred = cred
        self.profile = profile
        self.rng = rng
        self.dbp_key = dbp.DbpKeyPair.generate(authority_view.group, rng)

    def fresh_nym(self) -> tuple[int, int]:
        return dac.dac_nymgen(self.view.dac_params, self.pk, self.rng)


@dataclass(frozen=True)
class PublicView:
    """What every participant may know: public parameters and keys."""
    dac_params: dac.DacParams
    rlrs_params: rlrs.RlrsParams
    ring: list[str]
    group: Group
    psd_pk: object  # GroupElement of the puzzle signer


# -- access point -------------------------------------------------------------

class AccessPoint:
    def __init__(self, ap_id: str, sk: int, view: PublicView, rng: SeededRng,
                 env: RadioEnv | None = None,
                 prox_threshold_m: float = PROX_THRESHOLD_M,
                 rtt_weight: float = 0.5):
        self.ap_id = ap_id
        self.sk = sk
        self.view = view
        self.rng = rng
        self.env = env or RadioEnv()
        self.prox_threshold_m = prox_threshold_m
        self.rtt_weight = rtt_weight
        self._beacons: dict[int, Beacon] = {}

    def beacon(self, now_s: float) -> Beacon:
        w = window_of(now_s)
        b = self._beacons.get(w)
        if b is None:
            b = Beacon(self.ap_id, w, self.rng.bytes(16))
            self._beacons[w] = b
        return b

    def issue_pol(self, request: bytes, now_s: float, true_distance_m: float,
                  measured: tuple[float, float] | None = None) -> bytes:
        """Alg. steps: credential check, proximity gate, ring-sign the bundle.

        `measured` overrides the (rss_dbm, rtt_s) pair; by default both come
        from the radio model at the true distance.
        """
        try:
            beacon_enc, loc, win_b, pres_b = wire.unpack_fields(request, 4)
        except SlapxError as e:
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL,
                                 "malformed request") from e
        window = int.from_bytes(win_b, "big")
        if window != window_of(now_s) or beacon_enc != self.beacon(now_s).encode():
            raise ProtocolReject(RejectReason.STALE_BEACON, "beacon not current")
        l_x = int.from_bytes(loc[0:8], "big", signed=True) / 1000
        l_y = int.from_bytes(loc[8:16], "big", signed=True) / 1000

        try:
            pres = decode_presentation(pres_b, self.view.dac_params)
        except _DECODE_ERRORS as e:
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL,
                                 "presentation undecodable") from e
        ctx = presentation_context("pol-ap", window, self.ap_id)
        payload = beacon_enc + loc + win_b
        if not dac.dac_cred_verify(self.view.dac_params, pres, ctx, payload):
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL, "presentation invalid")

        if measured is None:
            rss = self.env.rss_at(true_distance_m, self.rng)
            rtt = 2.0 * true_distance_m / SPEED_OF_LIGHT
        else:
            rss, rtt = measured
        est = prox_verify(rss, rtt, self.env, self.rtt_weight)
        claimed_d = math.hypot(l_x, l_y)  # AP at the local origin
        if claimed_d > self.prox_threshold_m or est.d_hat > self.prox_threshold_m:
            raise ProtocolReject(
                RejectReason.NOT_PROXIMATE,
                f"claimed {claimed_d:.0f} m, estimated {est.d_hat:.0f} m")

        binding = H_tagged("pol/bind", pres_b)
        m = pol_message(self.beacon(now_s), l_x, l_y, window, binding)
        event = rlrs.EventId(l_x, l_y, window,
                             H_tagged("beacon", beacon_enc))
        sig = rlrs.rlrs_sign(self.sk, m, self.view.ring, event,
                             self.view.rlrs_params, self.rng)
        proof = LocationProof(m=m, sig=sig, l_x=l_x, l_y=l_y, window=window,
                              beacon_digest=H_tagged("beacon", beacon_enc))
        return proof.encode(self.view.rlrs_params)


def presentation_context(kind: str, window: int, verifier_id: str) -> bytes:
    return H_tagged("ctx", kind.encode(), window.to_bytes(8, "big"),
                    verifier_id.encode())


# what decode_presentation raises on malformed bytes; ParameterError comes
# from an attribute whose value has the wrong width for its kind
_DECODE_ERRORS = (CryptoError, ParameterError, IndexError, UnicodeDecodeError)


def decode_presentation(data: bytes, params: dac.DacParams) -> dac.Presentation:
    """Inverse of Presentation.to_bytes."""
    nb = params.n_bytes
    off = 0
    if data[off] != 1:
        raise CryptoError("bad presentation version")
    level = data[off + 1]
    off += 2
    nym = int.from_bytes(data[off:off + nb], "big"); off += nb
    sigma_r = int.from_bytes(data[off:off + nb], "big"); off += nb
    c = int.from_bytes(data[off:off + 16], "big"); off += 16
    z_t = int.from_bytes(data[off:off + nb], "big"); off += nb
    zs = []
    for _ in range(3):
        zs.append(int.from_bytes(data[off:off + dac.Z_BYTES], "big"))
        off += dac.Z_BYTES
    n_hidden = data[off]; off += 1
    hidden = []
    for _ in range(n_hidden):
        idx = data[off]; off += 1
        hidden.append((idx, int.from_bytes(data[off:off + dac.Z_BYTES], "big")))
        off += dac.Z_BYTES
    n_disc = data[off]; off += 1
    disclosed = []
    for _ in range(n_disc):
        idx = data[off]; off += 1
        klen = data[off]; off += 1
        kind = data[off:off + klen].decode(); off += klen
        vlen = int.from_bytes(data[off:off + 2], "big"); off += 2
        value = data[off:off + vlen]; off += vlen
        disclosed.append((idx, dac.Attribute(kind, value)))
    ext = None
    if data[off] == 1:
        elevel = data[off + 1]; off += 2
        nym_d = int.from_bytes(data[off:off + nb], "big"); off += nb
        z_rd = int.from_bytes(data[off:off + dac.Z_BYTES], "big"); off += dac.Z_BYTES
        esz = params.cert_group.element_size()
        ssz = 16 + params.cert_group.scalar_size()
        vk = data[off:off + esz]; off += esz
        cert = data[off:off + ssz]; off += ssz
        ext_sig = data[off:off + ssz]; off += ssz
        n_attrs = data[off]; off += 1
        attrs = []
        for _ in range(n_attrs):
            klen = data[off]; off += 1
            kind = data[off:off + klen].decode(); off += klen
            vlen = int.from_bytes(data[off:off + 2], "big"); off += 2
            attrs.append(dac.Attribute(kind, data[off:off + vlen])); off += vlen
        ext = dac.ExtShow(nym_d=nym_d, z_rd=z_rd, vk_bytes=vk, cert=cert,
                          ext_sig=ext_sig, attrs=tuple(attrs), level=elevel)
    else:
        off += 1
    return dac.Presentation(level=level, nym=nym, sigma_r=sigma_r, c=c,
                            z_t=z_t, z_u=zs[0], z_o=zs[1], z_r=zs[2],
                            hidden=tuple(hidden), disclosed=tuple(disclosed),
                            ext=ext)


# -- neighbor device ----------------------------------------------------------

class NeighborDevice:
    def __init__(self, view: PublicView, sk: int, cred: dac.Credential,
                 rng: SeededRng, dbp_config: dbp.DbpConfig | None = None):
        if cred.dk is None:
            raise CryptoError("neighbor device needs a delegable credential")
        self.view = view
        self.sk = sk
        self.cred = cred
        self.rng = rng
        self.dbp_key = dbp.DbpKeyPair.generate(view.group, rng)
        self.dbp_config = dbp_config or dbp.DbpConfig(
            n=100, th=PROX_THRESHOLD_M, tolerance=0.2)

    def issue_delegated(self, request: bytes, now_s: float,
                        true_distance_m: float) -> bytes:
        """Verify the requester, bound its distance, delegate the location."""
        params = self.view.dac_params
        try:
            loc, win_b, pres_b, peer_pk_b, dreq_b = wire.unpack_fields(request, 5)
        except SlapxError as e:
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL,
                                 "malformed request") from e
        window = int.from_bytes(win_b, "big")
        if window != window_of(now_s):
            raise ProtocolReject(RejectReason.EXPIRED, "window mismatch")
        try:
            pres = decode_presentation(pres_b, params)
        except _DECODE_ERRORS as e:
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL,
                                 "presentation undecodable") from e
        ctx = presentation_context("pol-nd", window, "ND")
        if not dac.dac_cred_verify(params, pres, ctx, loc + win_b):
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL, "presentation invalid")

        # authenticated key agreement, then the rapid bit exchange
        peer_pk = self.view.group.from_bytes(peer_pk_b)
        nonce = H_tagged("dbp/nonce", win_b, peer_pk_b)
        ss = dbp.dbp_aka(self.dbp_key, peer_pk, nonce, self.dbp_config.n)
        m_bits, transcripts = dbp.run_honest_session(self.dbp_config, ss,
                                                     true_distance_m, self.rng)
        table = dbp.dbp_response_table(ss, m_bits)
        if not dbp.dbp_verify(self.dbp_config, table, transcripts):
            raise ProtocolReject(RejectReason.DBP_FAILED, "distance bound failed")
        l_x = int.from_bytes(loc[0:8], "big", signed=True) / 1000
        l_y = int.from_bytes(loc[8:16], "big", signed=True) / 1000
        if math.hypot(l_x, l_y) > self.dbp_config.th:
            raise ProtocolReject(RejectReason.NOT_PROXIMATE,
                                 "claimed coordinates beyond threshold")

        dreq = dac.DelegationRequest(
            nym_d=int.from_bytes(dreq_b[:params.n_bytes], "big"),
            c=int.from_bytes(dreq_b[params.n_bytes:params.n_bytes + 16], "big"),
            z_u=int.from_bytes(dreq_b[params.n_bytes + 16:params.n_bytes + 16 + dac.Z_BYTES], "big"),
            z_r=int.from_bytes(dreq_b[params.n_bytes + 16 + dac.Z_BYTES:], "big"))
        a_l = (dac.Attribute.location(l_x, l_y), dac.Attribute.ts_window(window))
        vk, cert, ext_sig = dac.dac_issue_cred(params, self.cred, dreq, a_l,
                                               level=2, rng=self.rng)
        return wire.pack_fields(vk, cert, ext_sig, loc, win_b)


# -- PSD and service server ----------------------------------------------------

@dataclass
class Puzzle:
    puzzle_id: bytes
    modulus_n: int
    tau: int
    seed: bytes
    issued_s: float
    expires_s: float

    def encode(self) -> bytes:
        # tag byte || N || tau || seed, length-prefixed
        nb = (self.modulus_n.bit_length() + 7) // 8
        return b"\x01" + wire.pack_fields(
            self.puzzle_id, self.modulus_n.to_bytes(nb, "big"),
            self.tau.to_bytes(4, "big"), self.seed,
            int(self.issued_s * 1000).to_bytes(8, "big"),
            int(self.expires_s * 1000).to_bytes(8, "big"))

    @classmethod
    def decode(cls, data: bytes) -> "Puzzle":
        if data[:1] != b"\x01":
            raise SlapxError("bad puzzle tag")
        pid, n_b, tau_b, seed, iss, exp = wire.unpack_fields(data[1:], 6)
        return cls(puzzle_id=pid, modulus_n=int.from_bytes(n_b, "big"),
                   tau=int.from_bytes(tau_b, "big"), seed=seed,
                   issued_s=int.from_bytes(iss, "big") / 1000,
                   expires_s=int.from_bytes(exp, "big") / 1000)

    def challenge_for(self, message: bytes) -> vdf.VdfChallenge:
        return vdf.VdfChallenge(self.seed + H_tagged("svc", message), self.tau)

    def params(self) -> vdf.VdfParams:
        from .modmath import RsaModulus
        return vdf.VdfParams(RsaModulus(self.modulus_n), max(1, self.tau))


class LinkRegistry:
    """Per-window log of verified proof signatures; detects tag reuse."""

    def __init__(self):
        self._by_window: dict[int, list[tuple[bytes, rlrs.RlrsSignature]]] = {}
        self._lock = threading.Lock()

    def linked(self, window: int, sig: rlrs.RlrsSignature) -> bool:
        with self._lock:
            entries = self._by_window.get(window, [])
            return any(prev.tau == sig.tau for _, prev in entries)

    def register(self, window: int, m: bytes, sig: rlrs.RlrsSignature) -> None:
        with self._lock:
            self._by_window.setdefault(window, []).append((m, sig))

    def entries(self, window: int):
        with self._lock:
            return list(self._by_window.get(window, []))


class Psd:
    """Private spectrum database front end: verifies proofs, rate limits via
    link tags, issues signed device-specific puzzles."""

    def __init__(self, view_factory, authority: Authority, rng: SeededRng,
                 db: SpectrumDatabase | None = None,
                 modulus_bits: int = vdf.DEFAULT_MODULUS_BITS):
        self.rng = rng
        self.db = db or SpectrumDatabase(seed=7)
        self.authority = authority
        self.sgn_key = SigningKey.generate(authority.group, rng)
        self.links = LinkRegistry()
        self.grants: dict[tuple[int, bytes], int] = {}
        self.puzzles: dict[bytes, tuple[Puzzle, bytes]] = {}
        self.pool = vdf.ModulusPool(bits=modulus_bits, rng=rng.spawn("pool"))
        self._view = view_factory(self)
        self._id_counter = itertools.count(1)
        self._lock = threading.Lock()

    @property
    def view(self) -> PublicView:
        return self._view

    def _kappa_for(self, pres: dac.Presentation) -> int:
        device_class = 0
        for _, attr in pres.disclosed:
            if attr.kind == "device_type":
                device_class = attr.value[0]
        return vdf.difficulty_for(DEVICE_CLASSES.get(device_class, "default"))

    def handle_spectrum_request(self, request: bytes, now_s: float) -> bytes:
        try:
            loc, ch_b, tv_b, pres_b, phi_b = wire.unpack_fields(request, 5)
        except SlapxError as e:
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL,
                                 "malformed request") from e
        window = window_of(now_s)
        try:
            pres = decode_presentation(pres_b, self.view.dac_params)
        except _DECODE_ERRORS as e:
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL,
                                 "presentation undecodable") from e
        ctx = presentation_context("spectrum", window, "PSD")
        payload = loc + ch_b + tv_b + H_tagged("phi", phi_b)
        if not dac.dac_cred_verify(self.view.dac_params, pres, ctx, payload):
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL, "presentation invalid")
        l_x = int.from_bytes(loc[0:8], "big", signed=True) / 1000
        l_y = int.from_bytes(loc[8:16], "big", signed=True) / 1000

        if pres.ext is None:
            # AP path: verify the ring signature, then scan the window
            proof = _decode_proof(phi_b, self.view.rlrs_params)
            if proof.window != window:
                raise ProtocolReject(RejectReason.EXPIRED, "proof outside window")
            if (proof.l_x, proof.l_y) != (l_x, l_y):
                raise ProtocolReject(RejectReason.BAD_POL,
                                     "query coordinates differ from the proof")
            if not rlrs.rlrs_verify(self.view.ring, proof.m, proof.event(),
                                    proof.sig, self.view.rlrs_params):
                raise ProtocolReject(RejectReason.BAD_POL, "ring signature invalid")
            with self._lock:
                if self.links.linked(window, proof.sig):
                    raise ProtocolReject(RejectReason.LINKED, "tag already seen")
                self.links.register(window, proof.m, proof.sig)
        else:
            # ND path: the delegated attributes carry the proof of location
            ts_attr = next((a for a in pres.ext.attrs if a.kind == "ts_window"), None)
            if ts_attr is None or int.from_bytes(ts_attr.value, "big") != window:
                raise ProtocolReject(RejectReason.EXPIRED, "delegated proof expired")
            loc_attr = next((a for a in pres.ext.attrs if a.kind == "location"), None)
            if loc_attr is None or loc_attr.value != loc:
                raise ProtocolReject(RejectReason.BAD_POL,
                                     "query coordinates differ from the "
                                     "delegated location")
            key = (window, H_tagged("nymd", pres.ext.nym_d.to_bytes(
                self.view.dac_params.n_bytes, "big")))
            with self._lock:
                if self.grants.get(key, 0) >= 1:
                    raise ProtocolReject(RejectReason.LINKED,
                                         "delegated proof already used")
                self.grants[key] = self.grants.get(key, 0) + 1

        record = self.db.lookup(l_x, l_y)
        kappa = self._kappa_for(pres)
        modulus = self.pool.get()
        puzzle = Puzzle(puzzle_id=next(self._id_counter).to_bytes(8, "big"),
                        modulus_n=modulus.n, tau=kappa,
                        seed=self.rng.bytes(32), issued_s=now_s,
                        expires_s=now_s + WINDOW_S)
        sig = self.sgn_key.sign(puzzle.encode(), self.rng)
        with self._lock:
            self.puzzles[puzzle.puzzle_id] = (puzzle, sig)
        return wire.pack_fields(record.encode(), puzzle.encode(), sig)


class ServiceServer:
    """Grants service after credential, puzzle-signature, VDF, and proof checks."""

    def __init__(self, psd: Psd, rng: SeededRng):
        self.psd = psd
        self.view = psd.view
        self.rng = rng

    def handle_service_request(self, request: bytes, now_s: float) -> bytes:
        try:
            m, pid, sol_b, pres_b, phi_b = wire.unpack_fields(request, 5)
        except SlapxError as e:
            raise ProtocolReject(RejectReason.BAD_SOLUTION,
                                 "malformed request") from e
        window = window_of(now_s)
        try:
            pres = decode_presentation(pres_b, self.view.dac_params)
        except _DECODE_ERRORS as e:
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL,
                                 "presentation undecodable") from e
        ctx = presentation_context("service", window, "SERVER")
        payload = m + pid + H_tagged("phi", phi_b)
        if not dac.dac_cred_verify(self.view.dac_params, pres, ctx, payload):
            raise ProtocolReject(RejectReason.BAD_CREDENTIAL, "presentation invalid")

        with self.psd._lock:
            entry = self.psd.puzzles.get(pid)
        if entry is None:
            raise ProtocolReject(RejectReason.BAD_PUZZLE, "unknown puzzle")
        puzzle, sig = entry
        if not sgn_verify(self.view.group, self.psd.sgn_key.pk,
                          puzzle.encode(), sig):
            raise ProtocolReject(RejectReason.BAD_PUZZLE, "issuer signature invalid")
        if now_s > puzzle.expires_s:
            raise ProtocolReject(RejectReason.EXPIRED, "puzzle expired")

        try:
            ell_b, pi_b, y_b = wire.unpack_fields(sol_b, 3)
        except SlapxError as e:
            raise ProtocolReject(RejectReason.BAD_SOLUTION,
                                 "solution missing or malformed") from e
        sol = vdf.VdfSolution(ell=int.from_bytes(ell_b, "big"),
                              pi=int.from_bytes(pi_b, "big"),
                              y=int.from_bytes(y_b, "big"))
        if not vdf.vdf_verify(puzzle.params(), puzzle.challenge_for(m), sol):
            raise ProtocolReject(RejectReason.BAD_SOLUTION, "VDF proof invalid")

        if pres.ext is None:
            proof = _decode_proof(phi_b, self.view.rlrs_params)
            if proof.window != window:
                raise ProtocolReject(RejectReason.EXPIRED, "proof outside window")
            if not rlrs.rlrs_verify(self.view.ring, proof.m, proof.event(),
                                    proof.sig, self.view.rlrs_params):
                raise ProtocolReject(RejectReason.BAD_POL, "ring signature invalid")
        else:
            ts_attr = next((a for a in pres.ext.attrs if a.kind == "ts_window"), None)
            if ts_attr is None or int.from_bytes(ts_attr.value, "big") != window:
                raise ProtocolReject(RejectReason.EXPIRED, "delegated proof expired")

        # a puzzle buys one grant: a resent request finds it spent
        with self.psd._lock:
            if self.psd.puzzles.pop(pid, None) is None:
                raise ProtocolReject(RejectReason.BAD_PUZZLE, "puzzle already redeemed")
        token = H_tagged("grant", pid, m)[:16]
        return wire.pack_fields(b"\x01", token)


# -- client-side phase drivers -------------------------------------------------

@dataclass
class PhaseTrace:
    """Byte-accurate record of one request/response exchange."""
    phase: str
    request: wire.WireMessage
    response: wire.WireMessage
    fields: dict[str, bytes] = field(default_factory=dict)

    @property
    def total_payload(self) -> int:
        return len(self.request.payload) + len(self.response.payload)


def run_pol_ap(client: Client, ap: AccessPoint, l_x: float, l_y: float,
               now_s: float, true_distance_m: float | None = None,
               measured: tuple[float, float] | None = None
               ) -> tuple[LocationProof, PhaseTrace]:
    window = window_of(now_s)
    beacon = ap.beacon(now_s)
    nym, aux = client.fresh_nym()
    loc = dac.Attribute.location(l_x, l_y).value
    win_b = window.to_bytes(8, "big")
    ctx = presentation_context("pol-ap", window, ap.ap_id)
    pres = dac.dac_cred_prove(client.view.dac_params, client.sk, nym, aux,
                              client.cred, disclose=(), context=ctx,
                              rng=client.rng,
                              payload=beacon.encode() + loc + win_b)
    pres_b = pres.to_bytes(client.view.dac_params)
    content = wire.pack_fields(beacon.encode(), loc, win_b, pres_b)
    req = wire.build_message("pol_ap_request", content)

    if true_distance_m is None:
        true_distance_m = math.hypot(l_x, l_y)
    resp_content = ap.issue_pol(wire.message_content(req), now_s,
                                true_distance_m, measured)
    resp = wire.build_message("pol_ap_response", resp_content)

    proof = LocationProof.decode(resp_content, client.view.rlrs_params)
    if not rlrs.rlrs_verify(client.view.ring, proof.m, proof.event(),
                            proof.sig, client.view.rlrs_params):
        raise ProtocolReject(RejectReason.BAD_POL, "AP returned invalid proof")
    trace = PhaseTrace("pol_ap", req, resp,
                       fields={"nym": pres_b[2:2 + client.view.dac_params.n_bytes],
                               "presentation": pres_b,
                               "pol_sig": rlrs.encode_signature(
                                   proof.sig, client.view.rlrs_params)})
    return proof, trace


def run_pol_nd(client: Client, nd: NeighborDevice, l_x: float, l_y: float,
               now_s: float, true_distance_m: float
               ) -> tuple[dac.DelegatedCredential, PhaseTrace]:
    params = client.view.dac_params
    window = window_of(now_s)
    nym, aux = client.fresh_nym()
    loc = dac.Attribute.location(l_x, l_y).value
    win_b = window.to_bytes(8, "big")
    ctx = presentation_context("pol-nd", window, "ND")
    pres = dac.dac_cred_prove(params, client.sk, nym, aux, client.cred,
                              disclose=(), context=ctx, rng=client.rng,
                              payload=loc + win_b)
    dreq, r_d = dac.dac_request_delegation(params, client.sk, client.rng)
    dreq_b = (dreq.nym_d.to_bytes(params.n_bytes, "big")
              + dreq.c.to_bytes(16, "big")
              + dreq.z_u.to_bytes(dac.Z_BYTES, "big")
              + dreq.z_r.to_bytes(dac.Z_BYTES, "big"))
    content = wire.pack_fields(loc, win_b, pres.to_bytes(params),
                               client.dbp_key.pk.to_bytes(), dreq_b)
    req = wire.build_message("pol_nd_request", content)

    resp_content = nd.issue_delegated(wire.message_content(req), now_s,
                                      true_distance_m)
    resp = wire.build_message("pol_nd_response", resp_content)

    vk, cert, ext_sig, _, _ = wire.unpack_fields(resp_content, 5)
    a_l = (dac.Attribute.location(l_x, l_y), dac.Attribute.ts_window(window))
    dcred = dac.dac_receive_cred(params, client.cred, client.sk, r_d,
                                 dreq.nym_d, a_l, 2, vk, cert, ext_sig)
    trace = PhaseTrace("pol_nd", req, resp)
    return dcred, trace


def run_spectrum_query(client: Client, psd: Psd, l_x: float, l_y: float,
                       now_s: float,
                       proof: LocationProof | None = None,
                       dcred: dac.DelegatedCredential | None = None,
                       channels: int = 1
                       ) -> tuple[SpectrumRecord, Puzzle, bytes, PhaseTrace]:
    if (proof is None) == (dcred is None):
        raise SlapxError("exactly one of proof or delegated credential required")
    params = client.view.dac_params
    window = window_of(now_s)
    nym, aux = client.fresh_nym()
    loc = dac.Attribute.location(l_x, l_y).value
    ch_b = channels.to_bytes(2, "big")
    tv_b = (int(now_s).to_bytes(8, "big") + int(now_s + WINDOW_S).to_bytes(8, "big"))
    phi_b = proof.encode(client.view.rlrs_params) if proof else b""
    ctx = presentation_context("spectrum", window, "PSD")
    payload = loc + ch_b + tv_b + H_tagged("phi", phi_b)
    pres = dac.dac_cred_prove(params, client.sk, nym, aux,
                              dcred if dcred is not None else client.cred,
                              disclose=DISCLOSE_DEVICE, context=ctx,
                              rng=client.rng, payload=payload)
    pres_b = pres.to_bytes(params)
    content = wire.pack_fields(loc, ch_b, tv_b, pres_b, phi_b)
    req = wire.build_message("spectrum_request", content)

    resp_content = psd.handle_spectrum_request(wire.message_content(req), now_s)
    resp = wire.build_message("spectrum_response", resp_content)

    rec_b, puz_b, sig = wire.unpack_fields(resp_content, 3)
    record = SpectrumRecord.decode(rec_b)
    puzzle = Puzzle.decode(puz_b)
    if not sgn_verify(client.view.group, client.view.psd_pk, puz_b, sig):
        raise ProtocolReject(RejectReason.BAD_PUZZLE, "puzzle signature invalid")
    trace = PhaseTrace("spectrum_query", req, resp,
                       fields={"presentation": pres_b, "phi": phi_b,
                               "puzzle": puz_b})
    return record, puzzle, sig, trace


def run_service_request(client: Client, server: ServiceServer, message: bytes,
                        puzzle: Puzzle, now_s: float,
                        proof: LocationProof | None = None,
                        dcred: dac.DelegatedCredential | None = None,
                        solution: vdf.VdfSolution | None = None
                        ) -> tuple[bytes, vdf.VdfSolution, PhaseTrace]:
    params = client.view.dac_params
    window = window_of(now_s)
    if solution is None:
        solution = vdf.vdf_eval(puzzle.params(), puzzle.challenge_for(message))
    sol_b = wire.pack_fields(
        solution.ell.to_bytes((solution.ell.bit_length() + 7) // 8, "big"),
        solution.pi.to_bytes((puzzle.modulus_n.bit_length() + 7) // 8, "big"),
        solution.y.to_bytes((puzzle.modulus_n.bit_length() + 7) // 8, "big"))
    nym, aux = client.fresh_nym()
    phi_b = proof.encode(client.view.rlrs_params) if proof else b""
    ctx = presentation_context("service", window, "SERVER")
    payload = message + puzzle.puzzle_id + H_tagged("phi", phi_b)
    pres = dac.dac_cred_prove(params, client.sk, nym, aux,
                              dcred if dcred is not None else client.cred,
                              disclose=DISCLOSE_DEVICE, context=ctx,
                              rng=client.rng, payload=payload)
    pres_b = pres.to_bytes(params)
    content = wire.pack_fields(message, puzzle.puzzle_id, sol_b, pres_b, phi_b)
    req = wire.build_message("service_request", content)

    resp_content = server.handle_service_request(wire.message_content(req), now_s)
    resp = wire.build_message("service_response", resp_content)

    status, token = wire.unpack_fields(resp_content, 2)
    if status != b"\x01":
        raise ProtocolReject(RejectReason.BAD_SOLUTION, "service denied")
    trace = PhaseTrace("service_request", req, resp,
                       fields={"presentation": pres_b, "solution": sol_b,
                               "token": token})
    return token, solution, trace


# -- deployment helper -----------------------------------------------------

@dataclass
class Deployment:
    authority: Authority
    view: PublicView
    ap: AccessPoint
    psd: Psd
    server: ServiceServer

    @classmethod
    def create(cls, seed: int = 1, n_aps: int = 4,
               psd_modulus_bits: int = vdf.DEFAULT_MODULUS_BITS) -> "Deployment":
        rng = SeededRng(seed)
        authority = Authority(rng.spawn("authority"))
        ap_ids = [f"AP-{i}" for i in range(n_aps)]
        ap_keys = {a: authority.provision_ap(a) for a in ap_ids}

        def view_factory(psd: Psd) -> PublicView:
            return PublicView(dac_params=authority.dac_params,
                              rlrs_params=authority.rlrs_params,
                              ring=list(authority.ring),
                              group=authority.group,
                              psd_pk=psd.sgn_key.pk)

        psd = Psd(view_factory, authority, rng.spawn("psd"),
                  modulus_bits=psd_modulus_bits)
        ap = AccessPoint(ap_ids[0], ap_keys[ap_ids[0]], psd.view,
                         rng.spawn("ap"))
        server = ServiceServer(psd, rng.spawn("server"))
        return cls(authority=authority, view=psd.view, ap=ap, psd=psd,
                   server=server)

    def new_client(self, profile: DeviceProfile | None = None,
                   seed: int = 1000) -> Client:
        profile = profile or DeviceProfile(b"DEV-0001", 30.0, 0)
        pk, sk, cred = self.authority.enroll(profile)
        return Client(self.view, sk, pk, cred, profile, SeededRng(seed))
