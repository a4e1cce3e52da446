"""Simulator invariants: determinism, conservation, queue behavior, the
event engine against the one-heap-entry-per-fire path it replaced, and the
spoofing Monte Carlos against closed-form oracles."""
import heapq
import math
from collections import Counter, deque
from types import SimpleNamespace

import pytest

from slapx import simnet
from slapx.errors import ParameterError
from slapx.protocol import WINDOW_S
from slapx.simnet import (ATTACK_END_S, ATTACK_START_S,
                          BASELINE_ATTACK_RATE_HZ, DEFAULT_CALIBRATION,
                          DOS_SCENARIOS, DURATION_S, PRECOMPUTE_KAPPA,
                          PRECOMPUTE_SUBMIT_HZ, Calibration, Request,
                          ScenarioConfig, SimClock, SimMetrics, dos_grid,
                          precompute_limit, run_dos, run_fraud, run_hijack,
                          run_hijack_cell)


def binom_tail(n: int, q: float, k: int) -> float:
    """P[Bin(n, q) >= k]; exact."""
    return sum(math.comb(n, j) * q ** j * (1 - q) ** (n - j)
               for j in range(k, n + 1))


def fraud_oracle(rounds: int, tolerance: float, guess: float) -> float:
    q = guess + (1 - guess) / 2
    need = rounds - int(tolerance * rounds)
    return binom_tail(rounds, q, need)


class TestClock:
    def test_monotone_and_fifo_at_equal_times(self):
        clock = SimClock()
        order = []
        clock.schedule(1.0, lambda: order.append("a"))
        clock.schedule(1.0, lambda: order.append("b"))
        clock.schedule(0.5, lambda: order.append("c"))
        clock.run_until(2.0)
        assert order == ["c", "a", "b"]

    def test_end_converted_as_delays_are(self):
        # 2.01 * 1e9 is 2009999999.9999998, so a truncated end would fall
        # 1 ns short of an event scheduled 2.01 s from zero
        for end_s in [k / 100 for k in range(1, 2001)]:
            clock = SimClock()
            ran = []
            clock.schedule(end_s, lambda: ran.append("at_end"))
            clock.schedule(end_s + 1e-9, lambda: ran.append("after"))
            clock.run_until(end_s)
            assert ran == ["at_end"], end_s
            assert clock.now_ns == round(end_s * 1e9)


def reference_every(clock, period_s, first_delays_s, fn):
    """`SimClock.every` as one heap entry per fire: the path it replaced."""
    def fire():
        if fn():
            clock.schedule(period_s, fire)

    for delay_s in first_delays_s:
        clock.schedule(delay_s, fire)


class TestEvery:
    """`SimClock.every` runs fires in the order, and draws seqs in the order,
    of one `schedule` call per fire."""

    @staticmethod
    def trace(every):
        """Two lanes and heap events that tie with lane fires, before and
        after the lanes' entries, and from inside a fire."""
        clock = SimClock()
        log = []
        fires = Counter()

        def note(tag):
            return lambda: log.append((clock.now_ns, tag))

        def source(tag, fires_left):
            def fn():
                fires[tag] += 1
                log.append((clock.now_ns, tag))
                # a zero delay ties with the lane's next entry at that ns
                clock.schedule(0.0, note(tag + "-now"))
                clock.schedule(0.25, note(tag + "-later"))
                return fires[tag] < fires_left
            return fn

        clock.schedule(1.0, note("before"))
        clock.schedule(1.5, note("before-1.5"))
        every(clock, 0.5, [1.0, 1.5, 1.0], source("a", 4))
        clock.schedule(1.0, note("after"))
        clock.schedule(2.0, note("after-2.0"))
        every(clock, 0.25, [1.0, 1.25], source("b", 3))
        clock.run_until(1.6)
        clock.run_until(10.0)
        return log

    def test_matches_one_heap_entry_per_fire(self):
        want = self.trace(reference_every)
        assert self.trace(SimClock.every) == want
        assert want[:3] == [(10 ** 9, "before"), (10 ** 9, "a"), (10 ** 9, "a")]
        assert (10 ** 9, "after") in want

    def test_same_ns_ties_with_heap_events(self):
        clock = SimClock()
        order = []
        clock.schedule(1.0, lambda: order.append("before"))
        clock.every(1.0, [1.0, 1.0], lambda: order.append("lane") or False)
        clock.schedule(1.0, lambda: order.append("after"))
        clock.run_until(5.0)
        assert order == ["before", "lane", "lane", "after"]

    def test_false_stops_only_that_source(self):
        clock = SimClock()
        at = []

        def fn():
            at.append(clock.now_ns)
            return len(at) < 4

        clock.every(1.0, [0.5], fn)
        clock.run_until(100.0)
        assert at == [500_000_000, 1_500_000_000, 2_500_000_000,
                      3_500_000_000]
        assert clock._heap == []

    def test_zero_first_delay_and_empty_list(self):
        clock = SimClock()
        clock.every(1.0, [], lambda: True)
        assert clock._heap == []
        order = []
        clock.schedule(0.0, lambda: order.append("heap"))
        clock.every(1.0, [0.0], lambda: order.append("lane") or False)
        clock.run_until(0.0)
        assert order == ["heap", "lane"]

    def test_entry_at_the_end_and_successive_runs(self):
        clock = SimClock()
        at = []
        clock.every(0.5, [0.0], lambda: at.append(clock.now_ns) or True)
        clock.run_until(1.0)
        assert at == [0, 500_000_000, 1_000_000_000]
        clock.run_until(2.0)
        assert at[3:] == [1_500_000_000, 2_000_000_000]
        assert clock.now_ns == 2_000_000_000

    def test_first_delays_beyond_one_period_refused(self):
        with pytest.raises(ParameterError):
            SimClock().every(1.0, [0.0, 1.5], lambda: True)


class TestScenarioConfig:
    @pytest.mark.parametrize("n_ue,r_mal,n_malicious",
                             [(100, 0.29, 29), (90, 0.7, 63), (180, 0.35, 63)])
    def test_malicious_count_survives_float_dust(self, n_ue, r_mal,
                                                 n_malicious):
        cfg = ScenarioConfig("baseline", n_ue=n_ue, r_mal=r_mal)
        assert cfg.n_malicious == n_malicious
        assert cfg.n_benign == n_ue - n_malicious

    def test_validation(self):
        with pytest.raises(ParameterError):
            ScenarioConfig("nonsense")
        with pytest.raises(ParameterError):
            ScenarioConfig("baseline", r_mal=1.5)

    def test_population_split(self):
        cfg = ScenarioConfig("baseline", n_ue=250, r_mal=0.4)
        assert cfg.n_malicious == 100 and cfg.n_benign == 150


class TestDosRuns:
    def test_determinism(self):
        cfg = ScenarioConfig("bypass", n_ue=200, r_mal=0.3, seed=5)
        assert run_dos(cfg).csv_row() == run_dos(cfg).csv_row()

    def test_seed_changes_outcome(self):
        a = run_dos(ScenarioConfig("baseline", n_ue=100, r_mal=0.3, seed=1))
        b = run_dos(ScenarioConfig("baseline", n_ue=100, r_mal=0.3, seed=2))
        assert a.csv_row() != b.csv_row()

    @pytest.mark.parametrize("scenario", ["baseline", "full_protocol",
                                          "bypass", "precompute"])
    def test_conservation(self, scenario):
        m = run_dos(ScenarioConfig(scenario, n_ue=150, r_mal=0.3, seed=3))
        assert m.conserved()
        assert m.n_generated > 0

    def test_baseline_saturates(self):
        m = run_dos(ScenarioConfig("baseline", n_ue=250, r_mal=0.4, seed=1))
        assert m.n_dropped_benign > 0
        assert m.t_q_ms > 100.0
        assert m.max_queue_len == 100

    def test_full_protocol_protects(self):
        m = run_dos(ScenarioConfig("full_protocol", n_ue=250, r_mal=0.4, seed=1))
        assert m.n_dropped_benign == 0
        assert m.n_queued < 50
        assert m.t_q_ms < 65.0

    def test_precompute_bank_bounded(self):
        cfg = ScenarioConfig("precompute", n_ue=100, r_mal=0.4, seed=2)
        m = run_dos(cfg)
        bound = precompute_limit(PRECOMPUTE_KAPPA, WINDOW_S,
                                 DEFAULT_CALIBRATION.vdf_s_per_squaring)
        assert 0 < m.max_precomputed_bank <= bound

    def test_csv_schema_stable(self):
        m = run_dos(ScenarioConfig("baseline", n_ue=50, r_mal=0.2, seed=1))
        assert SimMetrics.CSV_HEADER.count(",") == m.csv_row().count(",")


# -- the reference path: the baseline flooders with one heap entry and one
# Request per fire, and the precompute bank as a rebuilt list ---------------

def reference_baseline_attackers(clock, server, cfg, cal, rng):
    period = 1.0 / BASELINE_ATTACK_RATE_HZ

    def fire():
        if clock.now_s >= ATTACK_END_S:
            return
        server.offer(Request(True, cal.baseline_service_s))
        clock.schedule(period, fire)

    for _ in range(cfg.n_malicious):
        clock.schedule(ATTACK_START_S + rng.uniform(0, period), fire)


def reference_precompute_attackers(clock, server, cfg, cal, rng):
    metrics = server.metrics
    t_eval = cal.vdf_eval_s(PRECOMPUTE_KAPPA)
    bank_bound = precompute_limit(PRECOMPUTE_KAPPA, WINDOW_S,
                                  cal.vdf_s_per_squaring)
    submit_period = 1.0 / PRECOMPUTE_SUBMIT_HZ

    for i in range(cfg.n_malicious):
        state = {"bank": [], "first": True}

        def solver(state=state):
            def solved():
                now = clock.now_s
                state["bank"] = [e for e in state["bank"] if e > now]
                state["bank"].append(now + WINDOW_S)
                assert len(state["bank"]) <= bank_bound
                metrics.max_precomputed_bank = max(metrics.max_precomputed_bank,
                                                   len(state["bank"]))
                if now + t_eval < DURATION_S:
                    clock.schedule(t_eval, solved)
            return solved

        def submitter(state=state):
            def submit():
                now = clock.now_s
                if now >= ATTACK_END_S:
                    return
                state["bank"] = [e for e in state["bank"] if e > now]
                if state["bank"]:
                    state["bank"].pop(0)
                    svc = (cal.service_verify_s if state["first"]
                           else cal.link_reject_s)
                    server.offer(Request(True, svc, granted=state["first"]))
                    state["first"] = False
                clock.schedule(submit_period, submit)
            return submit

        clock.schedule(t_eval, solver())
        clock.schedule(ATTACK_START_S + (i % 10) * submit_period / 10,
                       submitter())


def grid_rows(calibration, seeds):
    return [m.csv_row() for seed in seeds for scenario in DOS_SCENARIOS
            for m in dos_grid(scenario, seed=seed, calibration=calibration)]


class TestReferencePath:
    """Every CSV row of the full grids equals the reference path's."""

    @pytest.fixture
    def reference(self, monkeypatch):
        def rows(calibration, seeds):
            with monkeypatch.context() as m:
                m.setitem(simnet._ATTACKERS, "baseline",
                          reference_baseline_attackers)
                m.setitem(simnet._ATTACKERS, "precompute",
                          reference_precompute_attackers)
                return grid_rows(calibration, seeds)
        return rows

    def test_seeds(self, reference):
        seeds = (1, 2, 3, 77)
        assert grid_rows(DEFAULT_CALIBRATION, seeds) == reference(
            DEFAULT_CALIBRATION, seeds)

    # a flood request served in no time, in less than, in exactly and in
    # more than the 10 ms flood period; a rejection as long as a bypass pulse
    @pytest.mark.parametrize("baseline_service_s", [0.0, 0.005, 0.01, 0.024])
    def test_calibrations(self, reference, baseline_service_s):
        cal = Calibration(baseline_service_s=baseline_service_s,
                          reject_service_s=1 / 11.6)
        assert grid_rows(cal, (1,)) == reference(cal, (1,))


class TestWorkCounted:
    """The flood's saving pinned as counts, which repeat exactly: in the
    baseline cell, a dropped arrival pushes no heap entry and builds no
    Request, so both stay bounded by the arrivals the server takes in."""

    def test_drops_add_no_heap_push_or_request(self, monkeypatch):
        pushes = [0]
        built = Counter()

        def counted_push(heap, item):
            pushes[0] += 1
            heapq.heappush(heap, item)

        class CountedRequest(Request):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built[self.malicious] += 1

        monkeypatch.setattr(simnet, "heapq", SimpleNamespace(
            heappush=counted_push, heappop=heapq.heappop))
        monkeypatch.setattr(simnet, "Request", CountedRequest)
        cfg = ScenarioConfig("baseline", n_ue=250, r_mal=0.4, seed=1)
        m = run_dos(cfg)
        taken_in = m.n_generated - m.n_dropped_malicious
        n_built = built[True] + built[False]
        assert n_built <= taken_in
        # per benign UE a start, a query and a service step; per Request
        # one completion; per rejected arrival one retry; and a lane entry
        # at most once per other event popped, and once more at the start
        # and at the end of the run
        assert pushes[0] <= 2 * (3 * cfg.n_benign + n_built
                                 + m.n_rejected_arrival) + 2
        assert m.n_dropped_malicious > 10 * pushes[0]


class TestCalibration:
    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "cal.json")
        DEFAULT_CALIBRATION.to_file(path)
        loaded = Calibration.from_file(path)
        assert loaded == DEFAULT_CALIBRATION

    def test_vdf_eval_time_linear(self):
        assert DEFAULT_CALIBRATION.vdf_eval_s(2000) == pytest.approx(
            2 * DEFAULT_CALIBRATION.vdf_eval_s(1000))


class TestPrecomputeLimit:
    def test_paper_anchor(self):
        # 60 s validity at 0.24 s per evaluation
        assert precompute_limit(20_000, 60.0, 0.24 / 20_000) == 250

    def test_zero_validity(self):
        assert precompute_limit(1000, 0.0, 1e-5) == 0

    def test_bank_expires_its_prefix_at_or_before_now(self):
        # a 10 s DoS run ends before any 60 s stamp expires
        bank = deque([1.0, 2.0, 2.0, 3.0])
        simnet._expire(bank, 2.0)
        assert list(bank) == [3.0]
        simnet._expire(bank, 4.0)
        assert not bank

    def test_doubling_kappa_halves_limit(self):
        base = precompute_limit(10_000, 60.0, 1.2e-5)
        assert precompute_limit(20_000, 60.0, 1.2e-5) == base // 2


class TestFraud:
    def test_matches_binomial_oracle(self):
        for (n, tol, g) in ((20, 0.0, 0.5), (50, 0.1, 0.7), (100, 0.2, 0.9)):
            trials = 30_000
            rate = run_fraud(n, tol, g, trials, seed=9)
            p = fraud_oracle(n, tol, g)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(rate - p) <= 3 * sigma + 1e-9, (n, tol, g, rate, p)

    def test_omniscient_attacker_always_wins(self):
        assert run_fraud(50, 0.0, 1.0, 500, seed=1) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            run_fraud(10, 0.0, 1.5, 10)
        with pytest.raises(ParameterError):
            run_fraud(10, 1.0, 0.5, 10)


class TestHijack:
    def test_noiseless_equals_indicator(self, hijack_oracle):
        rows = run_hijack(trials=20, seed=3, noiseless=True)
        for r in rows:
            expected = hijack_oracle(r["honest_d"], r["mal_d"], r["weight"])
            assert r["success_rate"] == float(expected), r

    def test_monotone_in_weight(self):
        rows = run_hijack(trials=100, seed=3)
        by_cell = {}
        for r in rows:
            by_cell.setdefault((r["honest_d"], r["mal_d"]), []).append(
                (r["weight"], r["success_rate"]))
        for cell, series in by_cell.items():
            series.sort()
            for (w1, s1), (w2, s2) in zip(series, series[1:]):
                assert s2 <= s1 + 0.05, (cell, w1, w2)

    def test_monotone_in_honest_distance(self):
        rows = run_hijack(trials=100, seed=3)
        by_cell = {}
        for r in rows:
            by_cell.setdefault((r["mal_d"], r["weight"]), []).append(
                (r["honest_d"], r["success_rate"]))
        for cell, series in by_cell.items():
            series.sort()
            for (d1, s1), (d2, s2) in zip(series, series[1:]):
                assert s2 <= s1 + 0.05, (cell, d1, d2)

    def test_rtt_dominant_weight_resists(self):
        rate = run_hijack_cell(0.0, 100.0, 0.9, [0.0] * 50)
        assert rate == 0.0

    def test_rss_dominant_weight_spoofed(self):
        rate = run_hijack_cell(0.0, 60.0, 0.1, [0.0] * 50)
        assert rate == 1.0
