"""Simulator invariants: determinism, conservation, queue behavior, and the
spoofing Monte Carlos against closed-form oracles."""
import math

import pytest

from slapx.errors import ParameterError
from slapx.protocol import WINDOW_S
from slapx.simnet import (DEFAULT_CALIBRATION, PRECOMPUTE_KAPPA, Calibration,
                          ScenarioConfig, SimClock, SimMetrics, precompute_limit,
                          run_dos, run_fraud, run_hijack, run_hijack_cell)


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


class TestScenarioConfig:
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
