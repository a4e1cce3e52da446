"""The three workloads: honest sessions, a DoS flood and the simulator.

Each workload builds its inputs from the run's seed in `setup_unit`, once
for each of its `units` independent units (a deployment each), so that
set-up time can be reported as a median (flood's attack requests are the
exception: `run` builds each one, from the same seeded generators, just
before it is sent). `run` then drives the real slapx entry points in one
thread, as a closed loop, and returns one `Op` per operation with its
timings and the outcome of its output check.

Outcomes: `ok` (the expected decision and output), `known_defect` (exactly
the wrong decision a documented open defect gives), `failed` (anything
else, raw exceptions included).
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import pathlib
import random
import time

from slapx import protocol as P
from slapx import simnet, vdf, wire
from slapx.errors import ProtocolReject, RejectReason, SlapxError

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


@dataclasses.dataclass
class Op:
    kind: str                    # operation class
    outcome: str = "ok"          # ok | known_defect | failed
    reason: str | None = None    # RejectReason name, "GRANTED" or "RAW:<type>"
    ms: dict = dataclasses.field(default_factory=dict)      # timings
    counts: dict = dataclasses.field(default_factory=dict)  # work done
    detail: str = ""
    t: float = 0.0               # perf_counter at the operation's midpoint


def _ms(t0: float, t1: float) -> float:
    return (t1 - t0) * 1e3


def _timed_loop(seconds: float, n_ops: int | None, min_ops: int, step,
                probe):
    """Run `step(i)` until `seconds` have passed (at least `min_ops` times),
    or exactly `n_ops` times when given, sampling the host-speed probe
    between operations. Returns the operations."""
    ops = []
    t0 = time.perf_counter()
    for i in itertools.count():
        if (i >= n_ops if n_ops is not None else
                i >= min_ops and time.perf_counter() - t0 >= seconds):
            break
        probe.maybe_sample()
        start = time.perf_counter()
        op = step(i)
        op.t = (start + time.perf_counter()) / 2
        ops.append(op)
    probe.maybe_sample()
    return ops


def _check_phase_bytes(op: Op, traces) -> None:
    for tr in traces:
        got, want = tr.total_payload, wire.phase_total(tr.phase)
        op.counts[f"bytes.{tr.phase}"] = got
        if got != want and op.outcome == "ok":
            op.outcome = "failed"
            op.detail = f"{tr.phase} carried {got} bytes, budget {want}"


def _coord(rng: random.Random, lo_m: float, hi_m: float) -> tuple[float, float]:
    """A point lo..hi metres from the AP at the origin, inside the service
    area (which starts at the origin) and on the millimetre grid the location
    attribute encodes."""
    r = rng.uniform(lo_m, hi_m)
    a = rng.uniform(0.05, math.pi / 2 - 0.05)
    return round(r * math.cos(a), 3), round(r * math.sin(a), 3)


# -- session ------------------------------------------------------------------

class SessionUnit:
    def __init__(self, seed: int, u: int):
        self.dep = P.Deployment.create(seed=seed * 101 + u)
        _, nd_sk, nd_cred = self.dep.authority.enroll(
            P.DeviceProfile(b"ND-%05d" % u, 30.0, 0), delegable=True)
        self.nd = P.NeighborDevice(self.dep.view, nd_sk, nd_cred,
                                   P.SeededRng(seed * 131 + u))
        self.ap_client = self.dep.new_client(
            P.DeviceProfile(b"DA-%05d" % u, 30.0, 0), seed=seed * 137 + u)
        self.nd_client = self.dep.new_client(
            P.DeviceProfile(b"DN-%05d" % u, 30.0, 0), seed=seed * 139 + u)
        self.sessions = 0


class SessionWorkload:
    """Honest devices, one session at a time: PoL -> spectrum query ->
    service request -> grant. One session in four takes the neighbor-device
    path; each session has its own (location, window) event."""

    name = "session"
    units = 5
    min_ops = 2          # one AP and one ND session

    def setup_unit(self, seed: int, u: int) -> SessionUnit:
        return SessionUnit(seed, u)

    def inputs(self, seed: int):
        return random.Random(seed * 7919 + 1)

    def run(self, units, rng, seconds, probe, n_ops=None, tracer=None):
        def step(i):
            if tracer is not None:
                tracer.op = i
            return self._session(units[i % len(units)], i, rng, probe)

        return _timed_loop(seconds, n_ops, self.min_ops, step, probe)

    def _session(self, unit: SessionUnit, i: int, rng: random.Random,
                 probe) -> Op:
        via_nd = i % 4 == 1
        unit.sessions += 1
        now = unit.sessions * P.WINDOW_S + rng.uniform(1.0, 30.0)
        l_x, l_y = _coord(rng, 2.0, 18.0)
        message = rng.randbytes(32)
        op = Op("session_nd" if via_nd else "session_ap")
        try:
            t0 = time.perf_counter()
            if via_nd:
                client = unit.nd_client
                dcred, tr1 = P.run_pol_nd(client, unit.nd, l_x, l_y, now,
                                          true_distance_m=math.hypot(l_x, l_y))
                kw = {"dcred": dcred}
            else:
                client = unit.ap_client
                proof, tr1 = P.run_pol_ap(client, unit.dep.ap, l_x, l_y, now)
                kw = {"proof": proof}
            t1 = time.perf_counter()
            probe.maybe_sample()         # between phases, outside their times
            t2 = time.perf_counter()
            _, puzzle, _, tr2 = P.run_spectrum_query(client, unit.dep.psd,
                                                     l_x, l_y, now, **kw)
            t3 = time.perf_counter()
            probe.maybe_sample()
            t4 = time.perf_counter()
            token, _, tr3 = P.run_service_request(client, unit.dep.server,
                                                  message, puzzle, now + 1.0,
                                                  **kw)
            t5 = time.perf_counter()
        except ProtocolReject as e:
            op.outcome, op.reason = "failed", e.reason.name
            return op
        except Exception as e:  # noqa: BLE001 - a raw error is a failed op
            op.outcome, op.reason = "failed", f"RAW:{type(e).__name__}"
            op.detail = str(e)
            return op
        op.reason = "GRANTED"
        op.ms.update(pol=_ms(t0, t1), query=_ms(t2, t3), service=_ms(t4, t5))
        op.ms["session"] = op.ms["pol"] + op.ms["query"] + op.ms["service"]
        if len(token) != 16 or puzzle.tau != vdf.difficulty_for("default"):
            op.outcome, op.detail = "failed", "bad token or puzzle difficulty"
        _check_phase_bytes(op, (tr1, tr2, tr3))
        return op


# -- flood ----------------------------------------------------------------------

FLOOD_NOW = 61.5            # every flood request falls in window 1

# One round of attack traffic per unit. Bypass requests (a wrong VDF
# solution on a live puzzle) are the paper's main DoS attacker and the
# largest class, so the median request stays inside one class's mode.
ROUND = ("bad_solution", "malformed_psd", "linked", "bad_solution",
         "bad_puzzle", "bad_pol_malformed", "bad_solution", "service_replay",
         "linked", "bad_solution", "malformed_server", "bad_puzzle",
         "bad_pol_tampered", "bad_solution")
HONEST_DEVICES = 6          # honest devices per unit, each on its own puzzle
HONEST_EVERY = 3            # an honest device's first send leads every 3rd round

EXPECTED = {
    "linked": RejectReason.LINKED,
    "bad_pol_tampered": RejectReason.BAD_POL,
    "bad_pol_malformed": RejectReason.BAD_POL,
    "bad_solution": RejectReason.BAD_SOLUTION,
    "bad_puzzle": RejectReason.BAD_PUZZLE,
    "service_replay": None,      # any reject
    "malformed_psd": None,
    "malformed_server": None,
}
PSD_KINDS = {"linked", "bad_pol_tampered", "bad_pol_malformed", "malformed_psd"}


class _Captured(Exception):
    def __init__(self, request: bytes):
        super().__init__("captured")
        self.request = request


class _Capture:
    """Stands in for a server so a client phase driver builds its request
    with the program's own client code; the request is kept, not sent."""

    def handle_spectrum_request(self, request: bytes, now_s: float):
        raise _Captured(request)

    handle_service_request = handle_spectrum_request


class _RawPhi:
    """A proof whose encoding is given bytes (for malformed Phi)."""

    def __init__(self, data: bytes):
        self.data = data

    def encode(self, params) -> bytes:
        return self.data


def _capture(fn, *args, **kwargs) -> bytes:
    try:
        fn(*args, **kwargs)
    except _Captured as c:
        return c.request
    raise RuntimeError("client driver returned without sending")


class _OneModulus:
    """Stands in for the PSD's modulus pool during flood set-up: the first
    puzzle gets a modulus from the real pool (generated inline) and later
    puzzles reuse it, so set-up pays one 2048-bit prime search per unit.
    The timed region never asks for a modulus."""

    def __init__(self, pool):
        self.pool = pool
        self.modulus = None

    def get(self):
        if self.modulus is None:
            self.modulus = self.pool.get()
        return self.modulus


class FloodUnit:
    """One deployment under attack. Set-up gives an enrolled attacker a live
    puzzle and `HONEST_DEVICES` honest devices each their own (location,
    window) event, puzzle and finished service request. Attack requests are
    built only when `requests` reaches them, each with a fresh presentation,
    so no attack request is ever sent twice."""

    def __init__(self, seed: int, u: int):
        rng = self.rng = random.Random(seed * 104729 + u)
        dep = self.dep = P.Deployment.create(seed=seed * 211 + u)
        attacker = self.attacker = dep.new_client(
            P.DeviceProfile(b"AT-%05d" % u, 30.0, 0), seed=seed * 223 + u)
        now = FLOOD_NOW
        cap = _Capture()
        params = dep.view.rlrs_params
        real_pool, dep.psd.pool = dep.psd.pool, _OneModulus(dep.psd.pool)

        # The attacker is an enrolled device: a real PoL and query register
        # its Phi at the PSD and give it a live puzzle.
        ax, ay = self.at = _coord(rng, 2.0, 18.0)
        proof_a, _ = P.run_pol_ap(attacker, dep.ap, ax, ay, now)
        _, puzzle_a, _, _ = P.run_spectrum_query(attacker, dep.psd, ax, ay,
                                                 now, proof=proof_a)
        self.proof_a, self.puzzle_a = proof_a, puzzle_a
        self.wrong = vdf.vdf_eval(puzzle_a.params(),
                                  puzzle_a.challenge_for(b"another message"))
        self.unknown = dataclasses.replace(puzzle_a, puzzle_id=rng.randbytes(8))

        self.honest = []
        for j in range(HONEST_DEVICES):
            device = dep.new_client(
                P.DeviceProfile(b"H%d-%05d" % (j, u), 30.0, 0),
                seed=seed * 227 + u * HONEST_DEVICES + j)
            hx, hy = _coord(rng, 2.0, 18.0)
            proof_h, _ = P.run_pol_ap(device, dep.ap, hx, hy, now)
            _, puzzle_h, _, _ = P.run_spectrum_query(device, dep.psd, hx, hy,
                                                     now, proof=proof_h)
            self.honest.append(_capture(
                P.run_service_request, device, cap, rng.randbytes(32),
                puzzle_h, now, proof=proof_h))
        dep.psd.pool = real_pool

        self.tampered = dataclasses.replace(
            proof_a, m=bytes([proof_a.m[0] ^ 0x01]) + proof_a.m[1:])
        self.phi_fields = wire.unpack_fields(proof_a.encode(params), 3)

    def build(self, kind: str) -> bytes:
        """A new attack request of class `kind`."""
        at, cap, rng, now = self.attacker, _Capture(), self.rng, FLOOD_NOW
        ax, ay = self.at
        if kind == "linked":
            return _capture(P.run_spectrum_query, at, cap, ax, ay, now,
                            proof=self.proof_a)
        if kind == "bad_pol_tampered":
            return _capture(P.run_spectrum_query, at, cap, ax, ay, now,
                            proof=self.tampered)
        if kind == "bad_pol_malformed":
            m_b, sig_b, ev_b = self.phi_fields
            phi = _RawPhi(wire.pack_fields(m_b, rng.randbytes(len(sig_b)), ev_b))
            return _capture(P.run_spectrum_query, at, cap, ax, ay, now,
                            proof=phi)
        if kind == "bad_solution":
            return _capture(P.run_service_request, at, cap, rng.randbytes(32),
                            self.puzzle_a, now, proof=self.proof_a,
                            solution=self.wrong)
        if kind == "bad_puzzle":
            return _capture(P.run_service_request, at, cap, rng.randbytes(32),
                            self.unknown, now, proof=self.proof_a,
                            solution=self.wrong)
        return rng.randbytes(rng.randrange(16, 1700))    # malformed_*

    def requests(self):
        """(kind, request) pairs without end, round after round. An honest
        device's request leads every `HONEST_EVERY`-th round until each has
        been sent once; `service_replay` resends the latest of them."""
        for r in itertools.count():
            j, rest = divmod(r, HONEST_EVERY)
            if rest == 0 and j < len(self.honest):
                yield "grant", self.honest[j]
            latest = self.honest[min(j, len(self.honest) - 1)]
            for kind in ROUND:
                yield kind, (latest if kind == "service_replay"
                             else self.build(kind))


def _granted(response: bytes) -> bool:
    try:
        status, token = wire.unpack_fields(response, 2)
    except SlapxError:
        return False
    return status == b"\x01" and len(token) == 16


class FloodWorkload:
    """DoS traffic at the PSD and the service server, round-robin over the
    units. Each request is built before its send and outside its stopwatch;
    the timed figures are server time only."""

    name = "flood"
    units = 3
    min_ops = units * (len(ROUND) + 1)     # round 0 of every unit

    def setup_unit(self, seed: int, u: int) -> FloodUnit:
        return FloodUnit(seed, u)

    def inputs(self, seed: int):
        return None

    def run(self, units, inputs, seconds, probe, n_ops=None, tracer=None):
        streams = [unit.requests() for unit in units]

        def step(i):
            # client-side building is neither timed nor traced
            if tracer is not None:
                tracer.paused = True
            kind, request = next(streams[i % len(units)])
            if tracer is not None:
                tracer.op, tracer.paused = i, False
            return self._send(units[i % len(units)].dep, kind, request)

        return _timed_loop(seconds, n_ops, self.min_ops, step, probe)

    def _send(self, dep, kind, request) -> Op:
        op = Op(kind)
        handler = (dep.psd.handle_spectrum_request if kind in PSD_KINDS
                   else dep.server.handle_service_request)
        response = error = None
        t0 = time.perf_counter()
        try:
            response = handler(request, FLOOD_NOW)
        except Exception as e:  # noqa: BLE001 - classified below
            error = e
        op.ms["server"] = _ms(t0, time.perf_counter())

        if isinstance(error, ProtocolReject):
            op.reason = error.reason.name
        elif error is not None:
            op.reason = f"RAW:{type(error).__name__}"
            op.detail = str(error)
        else:
            op.reason = "GRANTED"

        if kind == "grant":
            ok = response is not None and _granted(response)
            op.outcome = "ok" if ok else "failed"
        elif op.reason == "GRANTED":
            # open defect: a byte-for-byte replay of a granted service
            # request is granted again
            op.outcome = "known_defect" if kind == "service_replay" else "failed"
        elif isinstance(error, ProtocolReject):
            want = EXPECTED[kind]
            op.outcome = "ok" if want is None or error.reason == want else "failed"
        else:
            # open defect: a malformed Phi raises a raw library error
            known = kind == "bad_pol_malformed" and isinstance(error, SlapxError)
            op.outcome = "known_defect" if known else "failed"
        return op


# -- simulator ------------------------------------------------------------------

REFERENCE_SEED = 1          # the seed the golden CSVs were written with
FRAUD_TRIALS = 2000
HIJACK_TRIALS = 100
SIM_SEEDS_PER_RUN = 3       # run seeds rotate, so repeats check determinism


def dos_csv(scenario: str, seed: int) -> tuple[str, list]:
    rows = simnet.dos_grid(scenario, seed=seed)
    text = simnet.SimMetrics.CSV_HEADER + "\n" + "".join(
        m.csv_row() + "\n" for m in rows)
    return text, rows


def fraud_csv(seed: int) -> tuple[str, int]:
    rows = simnet.run_fraud_grid(trials=FRAUD_TRIALS, seed=seed)
    text = "rounds,tolerance,guess,trials,success_rate\n" + "".join(
        f"{r['rounds']},{r['tolerance']:.2f},{r['guess']:.2f},"
        f"{r['trials']},{r['success_rate']:.6f}\n" for r in rows)
    return text, len(rows)


def hijack_csv(seed: int) -> tuple[str, int]:
    rows = simnet.run_hijack(trials=HIJACK_TRIALS, seed=seed)
    text = "honest_d,mal_d,weight,trials,success_rate\n" + "".join(
        f"{r['honest_d']},{r['mal_d']},{r['weight']:.1f},"
        f"{r['trials']},{r['success_rate']:.6f}\n" for r in rows)
    return text, len(rows)


def golden_files() -> list[str]:
    return ([f"dos_{s}.csv" for s in simnet.DOS_SCENARIOS]
            + ["fraud_grid.csv", "hijack_grid.csv"])


class SimUnit:
    """Reads the golden CSVs and warms the event loop on the middle cell of
    each scenario's grid."""

    def __init__(self, seed: int, u: int):
        self.golden = {name: (GOLDEN_DIR / name).read_text()
                       for name in golden_files()}
        for scenario in simnet.DOS_SCENARIOS:
            m = simnet.run_dos(simnet.ScenarioConfig(
                scenario=scenario, n_ue=150, r_mal=0.3, seed=seed * 31 + u))
            if not m.conserved():
                raise RuntimeError(f"warm-up {scenario} run not conserved")


class SimWorkload:
    """The seeded simulator: the four DoS grids, then the fraud and hijack
    Monte Carlos. Pass 0 runs the reference seed and must reproduce the
    golden CSVs byte for byte; later passes rotate over seeds drawn from the
    run's seed, and a repeated seed must reproduce its first pass."""

    name = "sim"
    units = 5
    min_ops = 2

    def setup_unit(self, seed: int, u: int) -> SimUnit:
        return SimUnit(seed, u)

    def inputs(self, seed: int):
        rng = random.Random(seed * 6007 + 3)
        return [rng.randrange(2, 1 << 30) for _ in range(SIM_SEEDS_PER_RUN)]

    def run(self, units, seeds, seconds, probe, n_ops=None, tracer=None):
        golden = units[0].golden
        seen: dict[tuple[int, str], str] = {}

        def step(i):
            if tracer is not None:
                tracer.op = i
            seed = REFERENCE_SEED if i == 0 else seeds[(i - 1) % len(seeds)]
            return self._pass(seed, golden if i == 0 else None, seen, probe)

        return _timed_loop(seconds, n_ops, self.min_ops, step, probe)

    def _pass(self, seed, golden, seen, probe) -> Op:
        op = Op("sim_pass")
        outputs = {}
        n_generated = bad_rows = 0
        dos_ms = 0.0
        for scenario in simnet.DOS_SCENARIOS:
            probe.maybe_sample()         # between grids, outside their times
            t0 = time.perf_counter()
            text, rows = dos_csv(scenario, seed)
            dos_ms += _ms(t0, time.perf_counter())
            outputs[f"dos_{scenario}.csv"] = text
            n_generated += sum(m.n_generated for m in rows)
            op.counts[f"requests.{scenario}"] = sum(m.n_generated for m in rows)
            bad_rows += sum(not m.conserved() for m in rows)
        probe.maybe_sample()
        t1 = time.perf_counter()
        outputs["fraud_grid.csv"], n_fraud = fraud_csv(seed)
        outputs["hijack_grid.csv"], n_hijack = hijack_csv(seed)
        spoof_ms = _ms(t1, time.perf_counter())

        mismatched = []
        for name, text in outputs.items():
            want = golden[name] if golden is not None else seen.get((seed, name))
            if want is not None and text != want:
                mismatched.append(name)
            seen.setdefault((seed, name), text)
        op.ms.update({"pass": dos_ms + spoof_ms, "dos": dos_ms,
                      "spoof": spoof_ms})
        op.counts.update(requests=n_generated,
                         spoof_trials=FRAUD_TRIALS * n_fraud
                         + HIJACK_TRIALS * n_hijack)
        if bad_rows or mismatched:
            op.outcome = "failed"
            op.detail = f"{bad_rows} rows not conserved; differ: {mismatched}"
        return op


WORKLOADS = {w.name: w for w in (SessionWorkload(), FloodWorkload(),
                                 SimWorkload())}
