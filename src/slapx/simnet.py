"""Deterministic discrete-event simulator for the DoS and location-spoofing
scenarios: UEs, a queue-and-worker server, radio propagation, and attack
drivers. One seeded run is bit-reproducible.

Servers are a queue-and-worker abstraction: workers serve requests in
parallel, arrivals queue when all workers are busy, and arrivals that find
the queue at capacity are dropped. Service times come from a calibration
table (measured by the benchmark harness or the shipped defaults anchored
to reference timings), so queue dynamics are host-independent.

Scenario behaviors
  baseline      protections disabled; attackers flood cheap requests open
                loop; every request costs the server full handling.
  full_protocol attackers run the whole protocol per request including the
                sequential puzzle, which throttles their arrival rate;
                repeats within a window are rejected via tag linking.
  bypass        attackers skip the client-side work and fire synchronized
                request pulses; the server rejects them cheaply after
                verification but they occupy queue slots until dequeued.
  precompute    attackers bank solved puzzles (bounded by the validity
                window over the eval time) and drain the bank during the
                attack window.

Event engine
  `SimClock` keeps a binary heap of `(at_ns, seq, fn)`: the least time runs
  first, and one counter's seq breaks ties in the order events were
  scheduled. Fixed-period sources share one more structure, a FIFO lane
  (`SimClock.every`), that sits in the heap as a single entry and runs its
  fires in a tight loop until a heap event or the run's end comes first.
  The baseline flooders, which are most of a DoS grid's events, run there,
  and a flood arrival that finds the queue full only bumps counters
  (`ServerModel.flood`). Both keep the order and the seqs of one heap entry
  per fire, so every CSV row is the same as with that engine.
"""
from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import dataclass

from .dbp import SPEED_OF_LIGHT_M_S
from .errors import ParameterError
from .protocol import (PROX_THRESHOLD_M, SHADOWING_SIGMA_DB, WINDOW_S,
                       prox_verify, rss_at)

DOS_SCENARIOS = ("baseline", "full_protocol", "bypass", "precompute")

# the DoS run: its length and attack window, the server's workers and queue,
# the puzzle difficulties and the attackers' rates
DURATION_S = 10.0
ATTACK_START_S = 2.0
ATTACK_END_S = 8.0
WORKERS = 8
QUEUE_CAPACITY = 100
RETRY_BACKOFF_S = 0.08             # a benign request's transport backoff
BENIGN_KAPPA = 10 ** 3
ATTACKER_KAPPA = 3 * 10 ** 5       # escalated difficulty for repeat abusers
BASELINE_ATTACK_RATE_HZ = 100.0
BYPASS_RATE_HZ = 11.6
PRECOMPUTE_KAPPA = 2 * 10 ** 4
PRECOMPUTE_SUBMIT_HZ = 0.8

# the sweep grids behind the plots: DoS over UE count and malicious share,
# fraud over rounds, tolerance and guess probability, hijacking over the
# honest relay's distance, the attacker's distance and the RTT weight
DOS_N_UE_GRID = (50, 100, 150, 200, 250)
DOS_R_MAL_GRID = (0.2, 0.3, 0.4)
FRAUD_ROUNDS_GRID = (20, 50, 100)
FRAUD_TOLERANCE_GRID = (0.0, 0.1, 0.2)
FRAUD_GUESS_GRID = (0.5, 0.7, 0.9)
HIJACK_HONEST_GRID = tuple(range(0, 51, 10))
HIJACK_MAL_GRID = tuple(range(50, 101, 10))
HIJACK_WEIGHT_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


# -- calibration --------------------------------------------------------------

MAX_CALIBRATION_S = 1e6  # keeps every delay the simulator schedules finite


@dataclass(frozen=True)
class Calibration:
    """Per-request service times and client-side costs, in seconds."""
    baseline_service_s: float = 0.024     # unprotected request handling
    query_verify_s: float = 0.0743        # credential + proof + record + puzzle
    # credential + VDF + proof verify, measured while the server still
    # re-verified the proof; kept, as the golden CSVs rest on it
    service_verify_s: float = 0.0777
    reject_service_s: float = 0.006       # malformed request, fast reject
    link_reject_s: float = 0.048          # verified then refused via tag link
    client_crypto_s: float = 0.105        # client-side proofs per full run
    vdf_s_per_squaring: float = 1.21e-5   # sequential squaring rate
    backhaul_rtt_s: float = 0.004         # AP <-> server round trip

    def vdf_eval_s(self, kappa: int) -> float:
        return kappa * self.vdf_s_per_squaring

    @classmethod
    def from_file(cls, path: str) -> "Calibration":
        with open(path) as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("calibration is not a JSON object")
        known = {k: v for k, v in data.items() if k in cls.__dataclass_fields__}
        # a JSON true is a bool, an int subclass; NaN fails both comparisons
        if not all(type(v) in (int, float) and 0 <= v <= MAX_CALIBRATION_S
                   for v in known.values()):
            raise ValueError(
                f"calibration times must be in [0, {MAX_CALIBRATION_S:g}] s")
        return cls(**known)

    def to_file(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({k: getattr(self, k) for k in self.__dataclass_fields__},
                      f, indent=2, sort_keys=True)


DEFAULT_CALIBRATION = Calibration()


# -- configuration and metrics ------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    n_ue: int = 100
    r_mal: float = 0.2
    seed: int = 1

    def __post_init__(self):
        if self.scenario not in DOS_SCENARIOS:
            raise ParameterError(f"unknown scenario: {self.scenario}")
        if not 0.0 <= self.r_mal <= 1.0:
            raise ParameterError("r_mal must be in [0, 1]")
        if self.n_ue < 1:
            raise ParameterError("degenerate scenario size")

    @property
    def n_malicious(self) -> int:
        # guard the floor against float dust: 100 * 0.29 is 28.999999999999996
        return int(self.n_ue * self.r_mal + 1e-9)

    @property
    def n_benign(self) -> int:
        return self.n_ue - self.n_malicious


@dataclass
class SimMetrics:
    scenario: str
    n_ue: int
    r_mal: float
    seed: int
    n_generated: int = 0
    n_queued: int = 0
    n_dropped_benign: int = 0
    n_dropped_malicious: int = 0
    n_rejected_arrival: int = 0
    n_served: int = 0
    n_immediate: int = 0
    t_q_ms: float = 0.0
    max_queue_len: int = 0
    attack_success_rate: float = 0.0
    max_precomputed_bank: int = 0

    CSV_HEADER = ("scenario,n_ue,r_mal,seed,n_generated,n_queued,"
                  "n_dropped_benign,n_dropped_malicious,n_rejected_arrival,"
                  "n_served,n_immediate,t_q_ms,max_queue_len,"
                  "attack_success_rate,max_precomputed_bank")

    def csv_row(self) -> str:
        return (f"{self.scenario},{self.n_ue},{self.r_mal:.2f},{self.seed},"
                f"{self.n_generated},{self.n_queued},{self.n_dropped_benign},"
                f"{self.n_dropped_malicious},{self.n_rejected_arrival},"
                f"{self.n_served},{self.n_immediate},{self.t_q_ms:.3f},"
                f"{self.max_queue_len},{self.attack_success_rate:.6f},"
                f"{self.max_precomputed_bank}")

    def conserved(self) -> bool:
        return self.n_generated == (self.n_queued + self.n_immediate
                                    + self.n_dropped_benign
                                    + self.n_dropped_malicious
                                    + self.n_rejected_arrival)


# -- event engine ---------------------------------------------------------------

def _ns(seconds: float) -> int:
    """The clock's one conversion of seconds to nanoseconds: rounded."""
    return int(round(seconds * 1e9))


class SimClock:
    """Monotone event loop; equal-time events run in insertion order."""

    def __init__(self):
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._end_ns = 0
        self.now_ns = 0

    def schedule(self, delay_s: float, fn) -> None:
        at = self.now_ns + max(0, _ns(delay_s))
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn))

    def every(self, period_s: float, first_delays_s, fn) -> None:
        """Fixed-period sources: one fires `fn` at each of `first_delays_s`
        from now, and again `period_s` after each fire at which `fn()`
        returns True. The delays must lie within one period of each other.

        The sources share one FIFO lane of `(at_ns, seq)` entries. Their
        seqs are drawn from the clock's counter in the order of
        `first_delays_s`, as one `schedule` call each would draw them, and
        the lane is sorted once. It sits in the heap as one entry keyed by
        its front, and re-pushing that entry draws no seq. Popped, it runs
        fires while its front comes before the heap's top and no later than
        the end of `run_until`. A re-entry draws the next seq after `fn()`
        returns, so an offer that schedules its completion draws first, as
        it would with `schedule`.

        The order is exact. A fire at `now` re-enters at now + period, and
        every pending entry is at most that: a re-entry was made at an
        earlier fire plus the period, and a first entry is within one
        period of the first fire. Its seq is larger than any pending seq, so
        the lane stays sorted by `(at, seq)`, and the engine always runs the
        least `(at, seq)` across the heap and the lane.
        """
        period_ns = max(0, _ns(period_s))
        entries = []
        for delay_s in first_delays_s:
            self._seq += 1
            entries.append(
                (self.now_ns + max(0, _ns(delay_s)), self._seq))
        if not entries:
            return
        entries.sort()
        if entries[-1][0] - entries[0][0] > period_ns:
            raise ParameterError("first delays must lie within one period")
        lane = deque(entries)
        heap = self._heap
        push = heapq.heappush

        def run():
            while True:
                at = lane.popleft()[0]
                self.now_ns = at
                if fn():
                    self._seq += 1
                    lane.append((at + period_ns, self._seq))
                if not lane:
                    return
                front = lane[0]
                if front[0] > self._end_ns or (heap and heap[0] < front):
                    push(heap, (*front, run))
                    return

        push(heap, (*lane[0], run))

    def run_until(self, t_end_s: float) -> None:
        end_ns = self._end_ns = _ns(t_end_s)
        while self._heap and self._heap[0][0] <= end_ns:
            at, _, fn = heapq.heappop(self._heap)
            if at < self.now_ns:
                raise AssertionError("time went backwards")
            self.now_ns = at
            fn()

    @property
    def now_s(self) -> float:
        return self.now_ns / 1e9


@dataclass
class Request:
    malicious: bool
    service_s: float
    enqueued_ns: int = 0
    done_cb: object = None
    retries_left: int = 0      # benign requests ride a retrying transport
    granted: bool = True       # protocol-valid request (vs rejected on verify)


class ServerModel:
    """Bounded FIFO queue feeding parallel workers; overflow drops arrivals.

    Benign requests model a reliable transport: an arrival rejected at a
    momentarily full queue is retransmitted after a backoff and only counts
    as a benign drop once its retries are exhausted (sustained overload).
    Malicious flooders fire and forget; every rejected attempt is a drop.
    """

    def __init__(self, clock: SimClock, metrics: SimMetrics):
        self.clock = clock
        self.metrics = metrics
        self.busy = 0
        self.queue: deque[Request] = deque()
        self._wait_sum_ns = 0
        self._wait_count = 0
        self._mal_generated = 0
        self._mal_granted = 0

    def offer(self, req: Request) -> None:
        self.metrics.n_generated += 1
        if req.malicious:
            self._mal_generated += 1
        if self.busy < WORKERS and not self.queue:
            self.metrics.n_immediate += 1
            self._begin(req)
        elif len(self.queue) < QUEUE_CAPACITY:
            req.enqueued_ns = self.clock.now_ns
            self.queue.append(req)
            self.metrics.n_queued += 1
            self.metrics.max_queue_len = max(self.metrics.max_queue_len,
                                             len(self.queue))
        elif req.malicious:
            self.metrics.n_dropped_malicious += 1
        elif req.retries_left > 0:
            self.metrics.n_rejected_arrival += 1
            req.retries_left -= 1
            self.clock.schedule(RETRY_BACKOFF_S, lambda r=req: self.offer(r))
        else:
            self.metrics.n_dropped_benign += 1

    def flood(self, service_s: float) -> None:
        """A flooder's arrival. At a full queue it is dropped, which only
        counts it, so a drop builds no Request."""
        if len(self.queue) < QUEUE_CAPACITY:
            self.offer(Request(True, service_s))
            return
        self.metrics.n_generated += 1
        self._mal_generated += 1
        self.metrics.n_dropped_malicious += 1

    def _begin(self, req: Request) -> None:
        self.busy += 1
        self.clock.schedule(req.service_s, lambda r=req: self._complete(r))

    def _complete(self, req: Request) -> None:
        self.busy -= 1
        self.metrics.n_served += 1
        if req.malicious and req.granted:
            self._mal_granted += 1
        if req.done_cb is not None:
            req.done_cb()
        if self.queue and self.busy < WORKERS:
            nxt = self.queue.popleft()
            self._wait_sum_ns += self.clock.now_ns - nxt.enqueued_ns
            self._wait_count += 1
            self._begin(nxt)

    def mean_wait_ms(self) -> float:
        if self._wait_count == 0:
            return 0.0
        return self._wait_sum_ns / self._wait_count / 1e6

    def malicious_success_rate(self) -> float:
        if self._mal_generated == 0:
            return 0.0
        return self._mal_granted / self._mal_generated


# -- DoS scenarios ----------------------------------------------------------------

def run_dos(cfg: ScenarioConfig,
            calibration: Calibration = DEFAULT_CALIBRATION) -> SimMetrics:
    clock = SimClock()
    metrics = SimMetrics(cfg.scenario, cfg.n_ue, cfg.r_mal, cfg.seed)
    server = ServerModel(clock, metrics)
    rng = random.Random(cfg.seed)
    cal = calibration

    # benign UEs: one full run each, starts stratified over the run with
    # seeded jitter so per-interval load is stable across the grid
    n_b = cfg.n_benign
    usable = DURATION_S - 1.5
    for i in range(n_b):
        spacing = usable / max(n_b, 1)
        start = 0.3 + i * spacing + rng.uniform(-0.2, 0.2) * spacing
        start = min(max(start, 0.05), usable)
        clock.schedule(start, _benign_run(clock, server, cfg, cal))

    _ATTACKERS[cfg.scenario](clock, server, cfg, cal, rng)
    clock.run_until(DURATION_S)
    metrics.t_q_ms = server.mean_wait_ms()
    metrics.attack_success_rate = server.malicious_success_rate()
    return metrics


def _benign_run(clock: SimClock, server: ServerModel, cfg: ScenarioConfig,
                cal: Calibration):
    """Benign flow: spectrum query, local puzzle evaluation, service request."""
    protected = cfg.scenario != "baseline"

    def start():
        prep = cal.client_crypto_s if protected else 0.005
        clock.schedule(prep + cal.backhaul_rtt_s / 2, send_query)

    def send_query():
        svc = cal.query_verify_s if protected else cal.baseline_service_s
        server.offer(Request(False, svc, done_cb=query_done, retries_left=3))

    def query_done():
        gap = (cal.vdf_eval_s(BENIGN_KAPPA) + cal.backhaul_rtt_s
               if protected else 0.01)
        clock.schedule(gap, send_service)

    def send_service():
        svc = cal.service_verify_s if protected else cal.baseline_service_s
        server.offer(Request(False, svc, retries_left=3))

    return start


def _spawn_baseline_attackers(clock, server, cfg, cal, rng):
    """Open loop: each attacker fires a cheap request every period from a
    uniform phase at the window's start until the window ends."""
    period = 1.0 / BASELINE_ATTACK_RATE_HZ

    def fire():
        if clock.now_s >= ATTACK_END_S:
            return False
        server.flood(cal.baseline_service_s)
        return True

    clock.every(period, [ATTACK_START_S + rng.uniform(0, period)
                         for _ in range(cfg.n_malicious)], fire)


def _spawn_full_attackers(clock, server, cfg, cal, rng):
    """Closed loop: every request is preceded by the full client-side cost
    including the sequential puzzle at the attacker's difficulty."""
    cycle_gap = cal.client_crypto_s + cal.vdf_eval_s(ATTACKER_KAPPA)

    for _ in range(cfg.n_malicious):
        state = {"first": True}

        def loop(state=state):
            def compute_then_send():
                if clock.now_s >= ATTACK_END_S:
                    return
                clock.schedule(cycle_gap + cal.backhaul_rtt_s, send)

            def send():
                if clock.now_s >= ATTACK_END_S:
                    return
                # first request in the window verifies fully; repeats are
                # refused after the tag-link scan
                svc = cal.query_verify_s if state["first"] else cal.link_reject_s
                server.offer(Request(True, svc, done_cb=compute_then_send,
                                     granted=state["first"]))
                state["first"] = False
            return send
        # attackers are mid-protocol when the window opens: uniform phase
        phase = rng.uniform(0, cycle_gap)
        clock.schedule(ATTACK_START_S + phase, loop())


def _spawn_bypass_attackers(clock, server, cfg, cal, rng):
    """Synchronized open-loop pulses of proof-less requests; the server
    rejects each after a cheap verification."""
    period = 1.0 / BYPASS_RATE_HZ
    n = cfg.n_malicious

    def pulse():
        if clock.now_s >= ATTACK_END_S:
            return
        for _ in range(n):
            server.offer(Request(True, cal.reject_service_s, granted=False))
        clock.schedule(period, pulse)

    clock.schedule(ATTACK_START_S, pulse)


def _spawn_precompute_attackers(clock, server, cfg, cal, rng):
    """Attackers solve puzzles continuously from t=0, banking unexpired
    solutions, and drain the bank at a fixed pace during the window."""
    metrics = server.metrics
    t_eval = cal.vdf_eval_s(PRECOMPUTE_KAPPA)
    bank_bound = precompute_limit(PRECOMPUTE_KAPPA, WINDOW_S,
                                  cal.vdf_s_per_squaring)
    submit_period = 1.0 / PRECOMPUTE_SUBMIT_HZ

    for i in range(cfg.n_malicious):
        # the bank holds expiry stamps, appended in ascending order
        state = {"bank": deque(), "first": True}

        def solver(state=state):
            def solved():
                now = clock.now_s
                bank = state["bank"]
                _expire(bank, now)
                bank.append(now + WINDOW_S)
                if len(bank) > bank_bound:
                    raise AssertionError(
                        "precompute bank exceeded the validity bound")
                metrics.max_precomputed_bank = max(metrics.max_precomputed_bank,
                                                   len(bank))
                if now + t_eval < DURATION_S:
                    clock.schedule(t_eval, solved)
            return solved

        def submitter(state=state):
            def submit():
                now = clock.now_s
                if now >= ATTACK_END_S:
                    return
                bank = state["bank"]
                _expire(bank, now)
                if bank:
                    bank.popleft()
                    svc = (cal.service_verify_s if state["first"]
                           else cal.link_reject_s)
                    server.offer(Request(True, svc, granted=state["first"]))
                    state["first"] = False
                clock.schedule(submit_period, submit)
            return submit

        clock.schedule(t_eval, solver())
        clock.schedule(ATTACK_START_S + (i % 10) * submit_period / 10,
                       submitter())


def _expire(bank: deque, now: float) -> None:
    """Drop the stamps at or before `now`; ascending, they are a prefix."""
    while bank and bank[0] <= now:
        bank.popleft()


# the attackers of each scenario, spawned after the benign UEs
_ATTACKERS = {"baseline": _spawn_baseline_attackers,
              "full_protocol": _spawn_full_attackers,
              "bypass": _spawn_bypass_attackers,
              "precompute": _spawn_precompute_attackers}


def precompute_limit(kappa: int, validity_s: float,
                     eval_rate_s_per_squaring: float) -> int:
    """Most unexpired puzzles a solver can hold: floor(validity / t_eval)."""
    if validity_s <= 0:
        return 0
    t_eval = kappa * eval_rate_s_per_squaring
    if t_eval <= 0:
        raise ParameterError("evaluation rate must be positive")
    return int(validity_s / t_eval + 1e-9)  # guard the floor against float dust


# -- distance fraud ----------------------------------------------------------------

def run_fraud(rounds: int, tolerance: float, guess_prob: float, trials: int,
              seed: int = 1) -> float:
    """Monte Carlo acceptance rate for an early-responding prover beyond the
    distance bound: each pre-sent response is correct with probability
    g + (1-g)/2."""
    if not 0.0 <= guess_prob <= 1.0:
        raise ParameterError("guess probability must be in [0, 1]")
    if not 0.0 <= tolerance < 1.0:
        raise ParameterError("tolerance must be in [0, 1)")
    if trials < 1 or rounds < 1:
        raise ParameterError("trials and rounds must be at least 1")
    allowed = int(tolerance * rounds)
    q = guess_prob + (1.0 - guess_prob) / 2.0
    rnd = random.Random(seed).random
    successes = 0
    for _ in range(trials):
        failures = 0
        for _ in range(rounds):
            if rnd() >= q:
                failures += 1
                if failures > allowed:
                    break
        if failures <= allowed:
            successes += 1
    return successes / trials


def run_fraud_grid(trials: int = 10 ** 5, seed: int = 1) -> list[dict]:
    out = []
    for n in FRAUD_ROUNDS_GRID:
        for tol in FRAUD_TOLERANCE_GRID:
            for g in FRAUD_GUESS_GRID:
                rate = run_fraud(n, tol, g, trials,
                                 seed=seed ^ (n << 16) ^ int(tol * 100) << 8
                                     ^ int(g * 100))
                out.append({"rounds": n, "tolerance": tol, "guess": g,
                            "trials": trials, "success_rate": rate})
    return out


# -- distance hijacking --------------------------------------------------------------

_TIE_EPS_M = 1e-6  # float guard at exact-threshold grid points


def run_hijack_cell(honest_d: float, mal_d: float, weight: float,
                    shadowing_db: list[float]) -> float:
    """Relay attack: RSS observed from the honest relay's distance, RTT from
    the full relayed path (the clock model cannot be undercut). One trial
    per shadowing draw (zeros model a noiseless channel); sweeps share the
    draws so trials pair across cells."""
    successes = 0
    rtt_s = 2.0 * mal_d / SPEED_OF_LIGHT_M_S
    rss = rss_at(honest_d)
    for shadowing in shadowing_db:
        d_hat = prox_verify(rss + shadowing, rtt_s, weight)
        if d_hat <= PROX_THRESHOLD_M + _TIE_EPS_M:
            successes += 1
    return successes / len(shadowing_db)


def run_hijack(trials: int = 100, seed: int = 1,
               noiseless: bool = False) -> list[dict]:
    """Success-rate sweep with one shadowing draw per trial index, shared
    across the whole grid (paired design: monotonicity in the sweep axes is
    not washed out by per-cell sampling noise)."""
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    rng = random.Random(seed)
    draws = ([0.0] * trials if noiseless else
             [rng.gauss(0.0, SHADOWING_SIGMA_DB) for _ in range(trials)])
    out = []
    for hd in HIJACK_HONEST_GRID:
        for md in HIJACK_MAL_GRID:
            for w in HIJACK_WEIGHT_GRID:
                rate = run_hijack_cell(float(hd), float(md), w, draws)
                out.append({"honest_d": hd, "mal_d": md, "weight": w,
                            "trials": trials, "success_rate": rate})
    return out


# -- sweep helper ---------------------------------------------------------------------

def dos_grid(scenario: str, seed: int = 1,
             calibration: Calibration = DEFAULT_CALIBRATION) -> list[SimMetrics]:
    out = []
    for n_ue in DOS_N_UE_GRID:
        for r_mal in DOS_R_MAL_GRID:
            cfg = ScenarioConfig(scenario=scenario, n_ue=n_ue, r_mal=r_mal,
                                 seed=seed)
            out.append(run_dos(cfg, calibration))
    return out
