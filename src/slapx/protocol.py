"""Protocol roles and message flows: location-proof acquisition (via access
point or neighboring device), spectrum queries, and puzzle-gated service
requests, over the credential / ring-signature / VDF / distance-bounding
primitives.

All roles take explicit timestamps so runs are deterministic; the time
window index is floor(now / WINDOW_S) and scopes beacons, link checks, and
proof validity. Every phase driver frames its request and response through
`exchange`, whose wire.build_message enforces the byte-exact per-phase
payload budgets.
"""
from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

from . import dac, dbp, rlrs, vdf, wire
from .errors import ProtocolReject, RejectReason, SlapxError
from .group import CURVE, PointTable, SigningKey, sgn_verify
from .hashes import H_tagged
from .rng import SeededRng
from .spectrumdb import SpectrumDatabase, SpectrumRecord

WINDOW_S = 60.0            # TS window length; equals the proof validity bound
MODULUS_EPOCH_WINDOWS = 60  # windows per puzzle modulus (1 h); README weighs it
PROX_THRESHOLD_M = 50.0    # FCC-style proximity threshold
AP_IDS = tuple(f"AP-{i}" for i in range(4))  # a deployment's APs, one ring
RTT_WEIGHT = 0.5           # w in the AP's distance estimate w*d_rtt + (1-w)*d_rss
# the neighbor device's rapid bit exchange: 100 rounds, 20 % may fail
DBP_CONFIG = dbp.DbpConfig(n=100, th=PROX_THRESHOLD_M, tolerance=0.2)


def window_of(now_s: float) -> int:
    return int(now_s // WINDOW_S)


# -- radio propagation and proximity estimation ------------------------------

# log-distance path loss
TX_POWER_DBM = 30.0
REF_LOSS_DB = 40.0          # loss at 1 m
PATH_LOSS_EXP = 2.7
SHADOWING_SIGMA_DB = 3.0


def rss_at(distance_m: float, rng: SeededRng | None = None) -> float:
    """Received power at distance_m, with a shadowing draw from rng if given."""
    d = max(distance_m, 1e-9)
    loss = REF_LOSS_DB + 10.0 * PATH_LOSS_EXP * math.log10(d)
    if rng is not None:
        loss += rng.gauss(0.0, SHADOWING_SIGMA_DB)
    return TX_POWER_DBM - loss


def distance_from_rss(rss_dbm: float) -> float:
    exponent = (TX_POWER_DBM - rss_dbm - REF_LOSS_DB) / (10.0 * PATH_LOSS_EXP)
    return 10.0 ** exponent


def prox_verify(rss_dbm: float, rtt_s: float, weight: float) -> float:
    """Weighted RTT/RSS distance estimate: d = w*d_rtt + (1-w)*d_rss."""
    if not 0.0 <= weight <= 1.0:
        raise SlapxError("weight must be in [0, 1]")
    if rtt_s < 0:
        raise SlapxError("negative RTT")
    d_rtt = dbp.SPEED_OF_LIGHT_M_S * rtt_s / 2.0
    return weight * d_rtt + (1.0 - weight) * distance_from_rss(rss_dbm)


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
    """Phi: signed message bundle plus the event (location, window, beacon
    digest) that scopes its link tag."""
    m: bytes
    sig: rlrs.RlrsSignature
    event: rlrs.EventId

    # `params` is unread; perfbench calls `proof.encode(params)`
    def encode(self, params: rlrs.RlrsParams) -> bytes:
        return wire.pack_fields(self.m, rlrs.encode_signature(self.sig),
                                self.event.encode())

    @classmethod
    def decode(cls, data: bytes) -> "LocationProof":
        m, sig_block, ev_b = wire.unpack_fields(data, 3)
        return cls(m, rlrs.decode_signature(sig_block), rlrs.EventId.decode(ev_b))


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
    """Root issuer: device credentials and the ring keys of `AP_IDS`."""

    def __init__(self, rng: SeededRng):
        self.rng = rng
        # at most dac.MAX_ATTRS attributes per credential and rlrs.MAX_RING
        # members per ring; the ring here is the len(AP_IDS) access points
        self.dac_params, self.root_key = dac.dac_setup(rng)
        self.rlrs_msk, self.rlrs_params = rlrs.rlrs_setup(rng)
        self.ap_keys = {a: rlrs.rlrs_extract(self.rlrs_msk, a, self.rlrs_params)
                        for a in AP_IDS}

    # `delegable` is unread (every credential can delegate); perfbench passes it
    def enroll(self, profile: DeviceProfile, delegable: bool = True):
        pk, sk = dac.dac_keygen(self.dac_params, self.rng)
        cred = dac.issue_credential(self.root_key, sk, profile.attributes(),
                                    self.rng)
        return pk, sk, cred


# -- client -------------------------------------------------------------------

class Client:
    def __init__(self, authority_view: "PublicView", sk: int, pk: int,
                 cred: dac.Credential, rng: SeededRng):
        self.view = authority_view
        self.sk = sk
        self.pk = pk
        self.cred = cred
        self.rng = rng
        self.dbp_key = SigningKey.generate(rng)

    def fresh_nym(self) -> tuple[int, int]:
        return dac.dac_nymgen(self.view.dac_params, self.pk, self.rng)

    def present(self, cred: dac.Credential, kind: str, window: int,
                verifier_id: str, disclose: tuple[int, ...],
                payload: bytes) -> bytes:
        """The encoded presentation of cred under a fresh pseudonym, for
        verifier_id's `kind` exchange in window, bound to payload."""
        params = self.view.dac_params
        nym, aux = self.fresh_nym()
        ctx = presentation_context(kind, window, verifier_id)
        return dac.dac_cred_prove(params, self.sk, nym, aux, cred, disclose, ctx,
                                  self.rng, payload=payload).to_bytes(params)


@dataclass(frozen=True)
class PublicView:
    """What every participant may know: public parameters and keys."""
    dac_params: dac.DacParams
    rlrs_params: rlrs.RlrsParams
    ring: list[str]
    psd_table: PointTable  # the puzzle signer's key, tabled for every check


# -- access point -------------------------------------------------------------

class AccessPoint:
    def __init__(self, ap_id: str, sk: int, view: PublicView, rng: SeededRng):
        self.ap_id = ap_id
        self.sk = sk
        self.view = view
        self.rng = rng
        self._beacon: Beacon | None = None

    def beacon(self, now_s: float) -> Beacon:
        """The beacon of now_s's window. Only the latest one is held: a
        caller back in an earlier window gets a fresh beacon for it."""
        b = self._beacon
        w = window_of(now_s)
        if b is None or b.window != w:
            b = self._beacon = Beacon(self.ap_id, w, self.rng.bytes(16))
        return b

    def issue_pol(self, request: bytes, now_s: float, true_distance_m: float) -> bytes:
        """Alg. steps: credential check, proximity gate, ring-sign the bundle.
        The radio model measures RSS and RTT at the true distance."""
        beacon_enc, loc, win_b, pres_b = _unpack(request, 4)
        window = window_of(now_s)
        if win_b != window.to_bytes(8, "big") or beacon_enc != self.beacon(now_s).encode():
            raise ProtocolReject(RejectReason.STALE_BEACON, "beacon not current")
        l_x, l_y = _point(loc)
        d_ts = beacon_enc + loc + win_b   # the time-stamped location claim
        pres = _read_presentation(pres_b, self.view.dac_params)
        _check_presentation(self.view.dac_params, pres,
                            presentation_context("pol-ap", window, self.ap_id), d_ts)

        rss = rss_at(true_distance_m, self.rng)
        rtt = 2.0 * true_distance_m / dbp.SPEED_OF_LIGHT_M_S
        d_hat = _or_reject(RejectReason.NOT_PROXIMATE, "measurement refused",
                           prox_verify, rss, rtt, RTT_WEIGHT)
        claimed_d = math.hypot(l_x, l_y)  # AP at the local origin
        # grant only within the threshold: a NaN distance compares False
        if not (claimed_d <= PROX_THRESHOLD_M and d_hat <= PROX_THRESHOLD_M):
            raise ProtocolReject(
                RejectReason.NOT_PROXIMATE,
                f"claimed {claimed_d:.0f} m, estimated {d_hat:.0f} m")

        m = d_ts + H_tagged("pol/bind", pres_b)
        event = rlrs.EventId(l_x, l_y, window, H_tagged("beacon", beacon_enc))
        sig = rlrs.rlrs_sign(self.sk, m, self.view.ring, event,
                             self.view.rlrs_params, self.rng)
        return LocationProof(m, sig, event).encode(self.view.rlrs_params)


def presentation_context(kind: str, window: int, verifier_id: str) -> bytes:
    return H_tagged("ctx", kind.encode(), window.to_bytes(8, "big"),
                    verifier_id.encode())


# -- request decoding and the checks the role handlers share --------------------

def _or_reject(reason: RejectReason, detail: str, fn, *args):
    """fn(*args), with any SlapxError it raises turned into a `reason` reject."""
    try:
        return fn(*args)
    except SlapxError as e:
        raise ProtocolReject(reason, detail) from e


def _unpack(request: bytes, count: int,
            reason: RejectReason = RejectReason.BAD_CREDENTIAL) -> list[bytes]:
    return _or_reject(reason, "malformed request", wire.unpack_fields,
                      request, count)


def _point(loc: bytes) -> tuple[float, float]:
    return _or_reject(RejectReason.BAD_CREDENTIAL, "malformed coordinates",
                      wire.decode_point, loc)


def _read_presentation(pres_b: bytes, params: dac.DacParams) -> dac.Presentation:
    return _or_reject(RejectReason.BAD_CREDENTIAL, "presentation undecodable",
                      dac.Presentation.from_bytes, pres_b, params)


def _check_presentation(params: dac.DacParams, pres: dac.Presentation,
                        context: bytes, payload: bytes) -> None:
    if not dac.dac_cred_verify(params, pres, context, payload):
        raise ProtocolReject(RejectReason.BAD_CREDENTIAL, "presentation invalid")


def _delegated(pres: dac.Presentation, kind: str) -> bytes | None:
    """Value of the delegated attribute `kind`, None if absent."""
    return next((a.value for a in pres.ext.ext.attrs if a.kind == kind), None)


def _binding(params: dac.DacParams, pres: dac.Presentation,
             phi_digest: bytes) -> bytes:
    """What a puzzle is bought with: H_tagged("phi", Phi) on the AP path, the
    delegated credential's one-time pseudonym H_tagged("nymd", nym_d) on the
    ND path."""
    if pres.ext is None:
        return phi_digest
    return H_tagged("nymd", pres.ext.ext.nym_d.to_bytes(params.n_bytes, "big"))


# -- neighbor device ----------------------------------------------------------

class NeighborDevice:
    # `sk` is unread (the ND delegates with its credential's delegation key);
    # perfbench passes it positionally
    def __init__(self, view: PublicView, sk: int, cred: dac.Credential,
                 rng: SeededRng):
        self.view = view
        self.cred = cred
        self.rng = rng
        self.dbp_key = SigningKey.generate(rng)

    def issue_delegated(self, request: bytes, now_s: float,
                        true_distance_m: float) -> bytes:
        """Verify the requester, bound its distance, delegate the location."""
        params = self.view.dac_params
        loc, win_b, pres_b, peer_pk_b, dreq_b = _unpack(request, 5)
        window = window_of(now_s)
        if win_b != window.to_bytes(8, "big"):
            raise ProtocolReject(RejectReason.EXPIRED, "window mismatch")
        l_x, l_y = _point(loc)
        pres = _read_presentation(pres_b, params)
        peer_pk = _or_reject(RejectReason.BAD_CREDENTIAL, "peer key undecodable",
                             CURVE.from_bytes, peer_pk_b)
        dreq = _or_reject(RejectReason.BAD_CREDENTIAL,
                          "delegation request undecodable",
                          dac.OpeningProof.from_bytes, dreq_b, params)
        # every part has a fixed width, so the concatenation is unambiguous
        _check_presentation(params, pres, presentation_context("pol-nd", window, "ND"),
                            loc + win_b + peer_pk_b + dreq_b)

        # authenticated key agreement, then the rapid bit exchange
        nonce = H_tagged("dbp/nonce", win_b, peer_pk_b)
        ss = _or_reject(RejectReason.BAD_CREDENTIAL, "degenerate peer key",
                        dbp.dbp_aka, self.dbp_key, peer_pk, nonce, DBP_CONFIG.n)
        m_bits, transcripts = dbp.run_honest_session(DBP_CONFIG, ss,
                                                     true_distance_m, self.rng)
        table = dbp.dbp_response_table(ss, m_bits)
        if not dbp.dbp_verify(DBP_CONFIG, table, transcripts):
            raise ProtocolReject(RejectReason.DBP_FAILED, "distance bound failed")
        if math.hypot(l_x, l_y) > DBP_CONFIG.th:
            raise ProtocolReject(RejectReason.NOT_PROXIMATE,
                                 "claimed coordinates beyond threshold")

        a_l = (dac.Attribute.location(l_x, l_y), dac.Attribute.ts_window(window))
        ext = _or_reject(
            RejectReason.DELEGATION_DENIED, "delegation request proof invalid",
            dac.dac_issue_cred, params, self.cred, dreq, a_l, self.rng)
        return wire.pack_fields(ext.vk_bytes, ext.cert, ext.ext_sig)


# -- PSD and service server ----------------------------------------------------

def _seconds_from_ms(data: bytes) -> float:
    """The float s whose int(s * 1000) is this 8-byte millisecond count."""
    ms = int.from_bytes(data, "big")
    # ms / 1000 can round to just below the count; the next float up cannot
    for s in (ms / 1000, math.nextafter(ms / 1000, math.inf)):
        if len(data) == 8 and int(s * 1000) == ms:
            return s
    raise SlapxError("time field is not 8 bytes or beyond float precision")


@dataclass
class Puzzle:
    puzzle_id: bytes
    modulus_n: int
    tau: int
    seed: bytes
    issued_s: float
    expires_s: float

    @property
    def modulus_bytes(self) -> int:
        return (self.modulus_n.bit_length() + 7) // 8

    def encode(self) -> bytes:
        # tag byte || N || tau || seed, length-prefixed
        return b"\x01" + wire.pack_fields(
            self.puzzle_id, self.modulus_n.to_bytes(self.modulus_bytes, "big"),
            self.tau.to_bytes(4, "big"), self.seed,
            int(self.issued_s * 1000).to_bytes(8, "big"),
            int(self.expires_s * 1000).to_bytes(8, "big"))

    @classmethod
    def decode(cls, data: bytes) -> "Puzzle":
        """Inverse of encode; raises SlapxError on any other bytes."""
        r = wire.Reader(data)
        if r.take(1) != b"\x01":
            raise SlapxError("bad puzzle tag")
        pid, n_b, tau_b, seed, iss, exp = (r.field() for _ in range(6))
        r.end()
        if n_b[:1] == b"\x00" or len(tau_b) != 4:
            raise SlapxError("non-canonical puzzle field")
        return cls(puzzle_id=pid, modulus_n=int.from_bytes(n_b, "big"),
                   tau=int.from_bytes(tau_b, "big"), seed=seed,
                   issued_s=_seconds_from_ms(iss), expires_s=_seconds_from_ms(exp))

    def challenge_for(self, message: bytes) -> vdf.VdfChallenge:
        # the seed is this puzzle's own, drawn at issue, so no input on an
        # epoch's shared modulus is known before the puzzle is issued
        return vdf.VdfChallenge(self.seed + H_tagged("svc", message), self.tau)

    # another name for `modulus_n`, kept because perfbench's flood set-up
    # calls it
    def params(self) -> int:
        """The VDF's one parameter: the puzzle's modulus N."""
        return self.modulus_n


@dataclass(frozen=True)
class IssuedPuzzle:
    """A live puzzle in `Psd.puzzles`, with the `_binding` of the proof the
    PSD verified for it: a proof of the window the puzzle was issued in."""
    puzzle: Puzzle
    binding: bytes


class Psd:
    """Private spectrum database front end: verifies proofs, rate limits via
    link tags, issues signed device-specific puzzles.

    A query is checked cheapest refusal first, so the group
    exponentiations run last:
    1. unpack, hash Phi, decode the presentation and form the `_binding`;
    2. a binding already in `grants` for this window is `LINKED`: the
       proof has bought a puzzle, and the refusal costs a set lookup;
    3. decode the coordinates and look up the service area;
    4. on the AP path decode Phi and check its window and coordinates, on
       the ND path check the delegated window and location;
    5. verify the credential;
    6. on the AP path verify the ring signature;
    7. `_use_once` records the link tag (AP path) and the binding.

    A binding is written only after a full check, so step 2 refuses only
    the exact proof that was already used; a forged Phi that copies a seen
    link tag has another digest and goes through every step."""

    def __init__(self, view: PublicView, sgn_key: SigningKey, rng: SeededRng,
                 modulus_bits: int):
        self.view = view
        self.sgn_key = sgn_key
        self.rng = rng
        self.db = SpectrumDatabase()
        self.links: set[tuple[int, bytes]] = set()    # (window, link tag)
        self.grants: set[tuple[int, bytes]] = set()   # (window, binding)
        self.puzzles: dict[bytes, IssuedPuzzle] = {}
        self.pool = vdf.ModulusPool(bits=modulus_bits, rng=rng.spawn("pool"))
        self._modulus: tuple[int, int] | None = None   # (epoch, N)
        self._modulus_lock = threading.Lock()
        self._id_counter = itertools.count(1)
        self._lock = threading.Lock()

    def _kappa_for(self, pres: dac.Presentation) -> int:
        device_class = 0
        for _, attr in pres.disclosed:
            if attr.kind == "device_type":
                device_class = attr.value[0]
        return vdf.difficulty_for(DEVICE_CLASSES.get(device_class, "default"))

    def _use_once(self, *uses: tuple[set, tuple[int, bytes]]) -> None:
        """Record each (table, key) pair, all or none: if any key is already
        in its table, record nothing and refuse as LINKED. Two racing copies
        of one request both pass the lookup ahead of the checks; this is
        where one of them is refused."""
        with self._lock:
            if any(key in seen for seen, key in uses):
                raise ProtocolReject(RejectReason.LINKED, "proof already used")
            for seen, key in uses:
                seen.add(key)

    def _epoch_modulus(self, now_s: float) -> int:
        """The puzzle modulus of now_s's epoch, drawn for its first puzzle.

        The draw holds its own lock, never `_lock`: threads that race on a
        new epoch wait for one shared draw, and puzzle lookups do not wait
        on a prime search."""
        epoch = window_of(now_s) // MODULUS_EPOCH_WINDOWS
        with self._modulus_lock:
            if self._modulus is None or self._modulus[0] != epoch:
                self._modulus = (epoch, self.pool.get())
            return self._modulus[1]

    def handle_spectrum_request(self, request: bytes, now_s: float) -> bytes:
        params = self.view.dac_params
        loc, ch_b, tv_b, pres_b, phi_b = _unpack(request, 5)
        window = window_of(now_s)
        phi_digest = H_tagged("phi", phi_b)
        pres = _read_presentation(pres_b, params)
        binding = _binding(params, pres, phi_digest)
        with self._lock:
            used = (window, binding) in self.grants
        if used:
            raise ProtocolReject(RejectReason.LINKED, "proof already used")
        l_x, l_y = _point(loc)
        record = self.db.lookup(l_x, l_y)

        if pres.ext is None:
            # AP path: a ring-signed proof of location for this window and
            # these coordinates
            proof = _or_reject(RejectReason.BAD_POL, "proof undecodable",
                               LocationProof.decode, phi_b)
            if proof.event.ts != window:
                raise ProtocolReject(RejectReason.EXPIRED, "proof outside window")
            if (proof.event.l_x, proof.event.l_y) != (l_x, l_y):
                raise ProtocolReject(RejectReason.BAD_POL,
                                     "query coordinates differ from the proof")
        else:
            # ND path: the delegated attributes carry the proof of location
            if _delegated(pres, "ts_window") != window.to_bytes(8, "big"):
                raise ProtocolReject(RejectReason.EXPIRED, "delegated proof expired")
            if _delegated(pres, "location") != loc:
                raise ProtocolReject(RejectReason.BAD_POL,
                                     "query coordinates differ from the "
                                     "delegated location")
        _check_presentation(params, pres,
                            presentation_context("spectrum", window, "PSD"),
                            loc + ch_b + tv_b + phi_digest)
        if pres.ext is None:
            if not rlrs.rlrs_verify(self.view.ring, proof.m, proof.event,
                                    proof.sig, self.view.rlrs_params):
                raise ProtocolReject(RejectReason.BAD_POL, "ring signature invalid")
            self._use_once((self.links, (window, proof.sig.tau.to_bytes())),
                           (self.grants, (window, binding)))
        else:
            self._use_once((self.grants, (window, binding)))

        kappa = self._kappa_for(pres)
        puzzle = Puzzle(puzzle_id=next(self._id_counter).to_bytes(8, "big"),
                        modulus_n=self._epoch_modulus(now_s), tau=kappa,
                        seed=self.rng.bytes(32), issued_s=now_s,
                        expires_s=now_s + WINDOW_S)
        sig = self.sgn_key.sign(puzzle.encode(), self.rng)
        with self._lock:
            self.puzzles[puzzle.puzzle_id] = IssuedPuzzle(puzzle, binding)
        return wire.pack_fields(record.encode(), puzzle.encode(), sig)


class ServiceServer:
    """Grants service after puzzle, solution, proof and credential checks,
    cheapest refusal first:
    1. unpack, decode the presentation, look the puzzle up and check its
       expiry;
    2. decode the solution and run `vdf.floor_base`, microseconds;
    3. compare the request's binding with the puzzle's record;
    4. check that the puzzle was issued in this window;
    5. `vdf.vdf_verify` on the floor's x and H(x + y): a wrong ell is
       refused in microseconds by the prime-gap window or the base-2
       strong test unless it is a probable prime within 2^234 above
       H(x + y), which costs one prime search; a wrong pi costs that
       search and one joint exponentiation, and neither reaches the
       credential check;
    6. verify the credential.

    The puzzle is checked one way: it is looked up in the PSD's own table,
    never taken from the request, so its signature needs no second check
    here (the client checks it on receipt). The proof is checked the same
    way on both paths: the PSD verified it in full when it issued the
    puzzle and kept its `_binding`, so the server compares bindings and
    verifies neither the ring signature nor the delegated window again."""

    def __init__(self, psd: Psd):
        self.psd = psd
        self.view = psd.view
        # keys the grant token; a spawned stream leaves the PSD's draws alone
        self._token_key = psd.rng.spawn("grant").bytes(32)

    def handle_service_request(self, request: bytes, now_s: float) -> bytes:
        m, pid, sol_b, pres_b, phi_b = _unpack(request, 5, RejectReason.BAD_SOLUTION)
        window = window_of(now_s)
        pres = _read_presentation(pres_b, self.view.dac_params)
        with self.psd._lock:
            issued = self.psd.puzzles.get(pid)
        if issued is None:
            raise ProtocolReject(RejectReason.BAD_PUZZLE, "unknown puzzle")
        puzzle = issued.puzzle
        if now_s > puzzle.expires_s:
            raise ProtocolReject(RejectReason.EXPIRED, "puzzle expired")

        sol = _or_reject(RejectReason.BAD_SOLUTION, "solution malformed",
                         vdf.VdfSolution.from_bytes, sol_b, puzzle.modulus_bytes)
        n, challenge = puzzle.modulus_n, puzzle.challenge_for(m)
        floor = vdf.floor_base(n, challenge, sol)
        if floor is None:
            raise ProtocolReject(RejectReason.BAD_SOLUTION, "VDF proof invalid")
        # the PSD recorded the binding after checking its proof for the
        # puzzle's issue window; a binding of the other path never matches
        phi_digest = H_tagged("phi", phi_b)
        if _binding(self.view.dac_params, pres, phi_digest) != issued.binding:
            raise ProtocolReject(RejectReason.BAD_POL,
                                 "proof differs from the one queried with")
        if window_of(puzzle.issued_s) != window:
            raise ProtocolReject(RejectReason.EXPIRED, "proof outside window")
        if not vdf.vdf_verify(n, challenge, sol, floor):
            raise ProtocolReject(RejectReason.BAD_SOLUTION, "VDF proof invalid")
        _check_presentation(self.view.dac_params, pres,
                            presentation_context("service", window, "SERVER"),
                            m + pid + phi_digest)

        # a puzzle buys one grant: a resent request finds it spent
        with self.psd._lock:
            if self.psd.puzzles.pop(pid, None) is None:
                raise ProtocolReject(RejectReason.BAD_PUZZLE, "puzzle already redeemed")
        token = H_tagged("grant", self._token_key, pid, m)[:16]
        return wire.pack_fields(b"\x01", token)


# -- client-side phase drivers -------------------------------------------------

@dataclass
class PhaseTrace:
    """Byte-accurate record of one request/response exchange."""
    phase: str
    request: wire.WireMessage
    response: wire.WireMessage

    @property
    def total_payload(self) -> int:
        return len(self.request.payload) + len(self.response.payload)


def exchange(phase: str, handle, content: bytes,
             *world) -> tuple[bytes, PhaseTrace]:
    """Frame content as `phase`'s request, hand it to handle, and frame the
    answer. `world` (the clock, and for a PoL the device's true distance)
    models the physical world, so no frame carries it. handle is called
    here directly, so a tracer sees it as a child of the phase driver."""
    request_name, response_name = wire.PHASE_MESSAGES[phase]
    req = wire.build_message(request_name, content)
    resp_content = handle(wire.message_content(req), *world)
    resp = wire.build_message(response_name, resp_content)
    return resp_content, PhaseTrace(phase, req, resp)


def run_pol_ap(client: Client, ap: AccessPoint, l_x: float, l_y: float,
               now_s: float, true_distance_m: float | None = None
               ) -> tuple[LocationProof, PhaseTrace]:
    window = window_of(now_s)
    beacon_b = ap.beacon(now_s).encode()
    loc = wire.encode_point(l_x, l_y)
    win_b = window.to_bytes(8, "big")
    pres_b = client.present(client.cred, "pol-ap", window, ap.ap_id, (),
                            beacon_b + loc + win_b)
    if true_distance_m is None:
        true_distance_m = math.hypot(l_x, l_y)
    resp_content, trace = exchange(
        "pol_ap", ap.issue_pol, wire.pack_fields(beacon_b, loc, win_b, pres_b),
        now_s, true_distance_m)

    proof = LocationProof.decode(resp_content)
    if not rlrs.rlrs_verify(client.view.ring, proof.m, proof.event,
                            proof.sig, client.view.rlrs_params):
        raise ProtocolReject(RejectReason.BAD_POL, "AP returned invalid proof")
    return proof, trace


def run_pol_nd(client: Client, nd: NeighborDevice, l_x: float, l_y: float,
               now_s: float, true_distance_m: float
               ) -> tuple[dac.DelegatedCredential, PhaseTrace]:
    params = client.view.dac_params
    window = window_of(now_s)
    loc = wire.encode_point(l_x, l_y)
    win_b = window.to_bytes(8, "big")
    peer_pk_b = client.dbp_key.pk.to_bytes()
    dreq, r_d = dac.dac_request_delegation(params, client.sk, client.rng)
    dreq_b = dreq.to_bytes(params)
    pres_b = client.present(client.cred, "pol-nd", window, "ND", (),
                            loc + win_b + peer_pk_b + dreq_b)
    resp_content, trace = exchange(
        "pol_nd", nd.issue_delegated,
        wire.pack_fields(loc, win_b, pres_b, peer_pk_b, dreq_b),
        now_s, true_distance_m)

    vk, cert, ext_sig = wire.unpack_fields(resp_content, 3)
    a_l = (dac.Attribute.location(l_x, l_y), dac.Attribute.ts_window(window))
    ext = dac.Extension(dreq.X, vk, cert, ext_sig, a_l)
    return dac.dac_receive_cred(params, client.cred, r_d, ext), trace


def _credential_and_phi(client: Client, proof: LocationProof | None,
                        dcred: dac.DelegatedCredential | None):
    """The credential a query or service request presents, and the Phi bytes
    it carries: the client's own credential and the AP's proof, or the
    delegated credential and no Phi. Exactly one of proof and dcred."""
    if (proof is None) == (dcred is None):
        raise SlapxError("exactly one of proof or delegated credential required")
    if dcred is not None:
        return dcred, b""
    return client.cred, proof.encode(client.view.rlrs_params)


def run_spectrum_query(client: Client, psd: Psd, l_x: float, l_y: float,
                       now_s: float,
                       proof: LocationProof | None = None,
                       dcred: dac.DelegatedCredential | None = None
                       ) -> tuple[SpectrumRecord, Puzzle, bytes, PhaseTrace]:
    cred, phi_b = _credential_and_phi(client, proof, dcred)
    loc = wire.encode_point(l_x, l_y)
    ch_b = (1).to_bytes(2, "big")  # one channel requested
    tv_b = (int(now_s).to_bytes(8, "big") + int(now_s + WINDOW_S).to_bytes(8, "big"))
    pres_b = client.present(cred, "spectrum", window_of(now_s), "PSD",
                            DISCLOSE_DEVICE, loc + ch_b + tv_b + H_tagged("phi", phi_b))
    resp_content, trace = exchange(
        "spectrum_query", psd.handle_spectrum_request,
        wire.pack_fields(loc, ch_b, tv_b, pres_b, phi_b), now_s)

    rec_b, puz_b, sig = wire.unpack_fields(resp_content, 3)
    record = SpectrumRecord.decode(rec_b)
    puzzle = Puzzle.decode(puz_b)
    if not sgn_verify(client.view.psd_table, puz_b, sig):
        raise ProtocolReject(RejectReason.BAD_PUZZLE, "puzzle signature invalid")
    return record, puzzle, sig, trace


def build_service_request(client: Client, message: bytes, puzzle: Puzzle,
                          now_s: float, proof: LocationProof | None = None,
                          dcred: dac.DelegatedCredential | None = None,
                          solution: vdf.VdfSolution | None = None
                          ) -> tuple[bytes, vdf.VdfSolution]:
    """The content of a service request for puzzle, and its solution: the
    given one, or the client's own evaluation of the puzzle."""
    cred, phi_b = _credential_and_phi(client, proof, dcred)
    if solution is None:
        solution = vdf.vdf_eval(puzzle.modulus_n, puzzle.challenge_for(message))
    sol_b = solution.to_bytes(puzzle.modulus_bytes)
    pres_b = client.present(cred, "service", window_of(now_s), "SERVER",
                            DISCLOSE_DEVICE,
                            message + puzzle.puzzle_id + H_tagged("phi", phi_b))
    return (wire.pack_fields(message, puzzle.puzzle_id, sol_b, pres_b, phi_b),
            solution)


def run_service_request(client: Client, server: ServiceServer, message: bytes,
                        puzzle: Puzzle, now_s: float,
                        proof: LocationProof | None = None,
                        dcred: dac.DelegatedCredential | None = None,
                        solution: vdf.VdfSolution | None = None
                        ) -> tuple[bytes, vdf.VdfSolution, PhaseTrace]:
    content, solution = build_service_request(client, message, puzzle, now_s,
                                              proof, dcred, solution)
    resp_content, trace = exchange("service_request",
                                   server.handle_service_request, content, now_s)

    status, token = wire.unpack_fields(resp_content, 2)
    if status != b"\x01":
        raise ProtocolReject(RejectReason.BAD_SOLUTION, "service denied")
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
    def create(cls, seed: int = 1,
               psd_modulus_bits: int = vdf.DEFAULT_MODULUS_BITS) -> "Deployment":
        """Seeded roles, each with its own rng stream.

        Handlers draw from their role's rng outside any lock: the PSD its
        puzzle seeds and signing nonces, the AP its beacons and shadowing.
        Concurrent calls may share a role all the same: under CPython an
        integer or byte draw takes its bits from atomic `getrandbits`
        calls, so no two draws share bits and no nonce repeats. The seeded
        bytes are reproducible only for a single-threaded caller, because
        threads interleave their draws."""
        rng = SeededRng(seed)
        authority = Authority(rng.spawn("authority"))
        psd_rng = rng.spawn("psd")
        # the PSD's key is the first draw on its stream (seeded tests pin it)
        sgn_key = SigningKey.generate(psd_rng)
        view = PublicView(dac_params=authority.dac_params,
                          rlrs_params=authority.rlrs_params,
                          ring=list(AP_IDS), psd_table=CURVE.table(sgn_key.pk))
        psd = Psd(view, sgn_key, psd_rng, psd_modulus_bits)
        ap = AccessPoint(AP_IDS[0], authority.ap_keys[AP_IDS[0]], view,
                         rng.spawn("ap"))
        return cls(authority=authority, view=view, ap=ap, psd=psd,
                   server=ServiceServer(psd))

    def new_client(self, profile: DeviceProfile | None = None,
                   seed: int = 1000) -> Client:
        profile = profile or DeviceProfile(b"DEV-0001", 30.0, 0)
        pk, sk, cred = self.authority.enroll(profile)
        return Client(self.view, sk, pk, cred, SeededRng(seed))
