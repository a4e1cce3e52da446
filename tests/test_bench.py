"""Benchmark harness structure and calibration derivation. Absolute times
are host-bound; assertions cover shape and plumbing only."""
import re
from pathlib import Path

import pytest

from slapx import bench, rlrs, vdf
from slapx.bench import BenchReport, bench_all, calibrate, eval_slope
from slapx.errors import ParameterError
from slapx.simnet import Calibration


@pytest.fixture(scope="module")
def report():
    # small puzzle modulus and light kappa grid keep this test quick;
    # the acceptance suite measures the real grid
    return bench_all(iterations=30, kappa_grid=(1000, 8000, 32000),
                     vdf_modulus_bits=256, seed=2)


class TestBenchAll:
    def test_minimum_iterations_enforced(self):
        with pytest.raises(ParameterError):
            bench_all(iterations=10)

    def test_all_operations_present(self, report):
        expected = {"cred_prove", "cred_verify", "rlrs_sign", "rlrs_verify",
                    "rlrs_link", "aka", "sgn_sign", "sgn_verify", "vdf_setup",
                    "vdf_eval_k1000", "vdf_verify_k1000", "vdf_eval_k8000",
                    "vdf_verify_k8000", "vdf_eval_k32000", "vdf_verify_k32000",
                    "group_mul_g", "group_muladd_fixed", "group_muladd_fresh"}
        assert expected <= set(report.ops)
        assert all(t.median_s > 0 for t in report.ops.values())
        assert all(t.p95_s >= t.median_s for t in report.ops.values())

    def test_client_query_cost_below_server(self, report):
        # the client proves and checks the puzzle signature; the PSD runs
        # the checks that query_verify_s sums
        cal = calibrate(report, (1000, 8000, 32000))
        assert (report.median("cred_prove") + report.median("sgn_verify")
                < cal.query_verify_s)

    def test_link_much_cheaper_than_verify(self, report):
        assert report.median("rlrs_link") < report.median("rlrs_verify") / 100

    def test_csv_and_table_render(self, report):
        csv = report.csv()
        assert csv.splitlines()[0] == "operation,iterations,median_s,p95_s"
        assert len(csv.splitlines()) == len(report.ops) + 1
        table = report.table().splitlines()
        for name in report.ops:
            assert any(row.startswith(name + ",") for row in csv.splitlines())
            assert any(row.split()[:1] == [name] for row in table)

    def test_rlrs_ops_sign_over_the_deployments_ring(self, deployment,
                                                      monkeypatch):
        class Signed(Exception):
            pass

        def capture(key, m, ring, *rest):
            raise Signed(ring)

        # the first signature of the fixtures stops the run before any timing
        monkeypatch.setattr(rlrs, "rlrs_sign", capture)
        with pytest.raises(Signed) as e:
            bench_all(iterations=30)
        assert len(e.value.args[0]) == len(deployment.view.ring)

    def test_vdf_samples_cycle_over_distinct_challenges(self, monkeypatch):
        # one input's prime search for l would otherwise land on every
        # sample of its kappa; 60000 takes the short (heavy) eval sample
        timing, seen = [False], {}

        def record(fn):
            def timed(n, ch, *rest):
                if timing[0]:
                    seen.setdefault((fn.__name__, ch.tau), set()).add(ch.m)
                return fn(n, ch, *rest)
            return timed

        def time_ops(ops, real=bench._time_ops):
            timing[0] = True
            return real(ops)

        monkeypatch.setattr(vdf, "vdf_eval", record(vdf.vdf_eval))
        monkeypatch.setattr(vdf, "vdf_verify", record(vdf.vdf_verify))
        monkeypatch.setattr(bench, "_time_ops", time_ops)
        bench_all(iterations=30, kappa_grid=(200, 60000), vdf_modulus_bits=256,
                  seed=4)
        assert set(seen) == {(fn, k) for fn in ("vdf_eval", "vdf_verify")
                             for k in (200, 60000)}
        assert all(len(inputs) > 1 for inputs in seen.values())


class TestCalibrate:
    def test_fields_are_the_documented_sums_of_medians(self, report):
        # the formulas docs/metrics.md lists under "Calibration file"
        m = report.median
        cal = calibrate(report, (1000, 8000, 32000))
        assert cal.query_verify_s == (m("cred_verify") + m("rlrs_verify")
                                      + m("rlrs_link") + m("sgn_sign"))
        assert cal.service_verify_s == m("cred_verify") + m("vdf_verify_k1000")
        assert cal.link_reject_s == (m("cred_verify") + m("rlrs_verify")
                                     + m("rlrs_link"))
        assert cal.client_crypto_s == 2 * m("cred_prove") + m("rlrs_verify")
        assert cal.reject_service_s == m("presentation_decode")
        assert cal.baseline_service_s == Calibration().baseline_service_s
        assert cal.backhaul_rtt_s == Calibration().backhaul_rtt_s

    def test_docs_list_every_calibration_field(self):
        docs = Path(__file__).resolve().parents[1] / "docs" / "metrics.md"
        section = docs.read_text().split("## Calibration file")[1].split("\n## ")[0]
        fields = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        assert fields == list(Calibration.__dataclass_fields__)

    def test_calibration_fields_positive(self, report):
        cal = calibrate(report, (1000, 8000, 32000))
        assert isinstance(cal, Calibration)
        assert cal.vdf_s_per_squaring > 0
        assert cal.query_verify_s > 0
        assert cal.link_reject_s < cal.query_verify_s

    def test_slope_positive_and_sane(self, report):
        slope = eval_slope(report, (1000, 8000, 32000))
        assert 0 < slope < 1e-2

    @pytest.mark.parametrize("grid", [(1000,), (1000, 1000), ()])
    def test_slope_refuses_fewer_than_two_kappas(self, grid):
        # no timing is read: the grid is refused before the report
        with pytest.raises(ParameterError):
            eval_slope(BenchReport(host="-"), grid)

    def test_fast_reject_costs_the_presentation_decode(self, report):
        # a server refuses an unknown puzzle after decoding the presentation
        # and before any signature or credential check
        cal = calibrate(report, (1000, 8000, 32000))
        assert cal.reject_service_s == report.median("presentation_decode")
        assert cal.reject_service_s < report.median("sgn_verify")

    def test_calibration_file_feeds_simulator(self, report, tmp_path):
        cal = calibrate(report, (1000, 8000, 32000))
        path = str(tmp_path / "cal.json")
        cal.to_file(path)
        assert Calibration.from_file(path) == cal


class TestEvalScaling:
    def test_three_hundred_fold_tau_ratio_within_2x(self):
        # full-size modulus; single measurements suffice at these durations
        import time

        from slapx import vdf
        from slapx.rng import SeededRng
        params = vdf.rsa_setup(2048, SeededRng(8))
        times = {}
        for tau in (10 ** 3, 3 * 10 ** 5):
            t0 = time.perf_counter()
            vdf.vdf_eval(params, vdf.VdfChallenge(b"scale", tau))
            times[tau] = time.perf_counter() - t0
        ratio = times[3 * 10 ** 5] / times[10 ** 3]
        assert 150 <= ratio <= 600, ratio


class TestStability:
    def test_two_runs_same_host_within_tolerance(self, monkeypatch):
        # both runs' ops are timed in one round-robin, so a slow spell of
        # the host lands on both runs alike
        grid = (200, 400)
        runs, time_ops = [], bench._time_ops
        monkeypatch.setattr(bench, "_time_ops", lambda ops: runs.append(ops)
                            or {name: (1.0, 1.0) for name in ops})
        for _ in range(2):
            bench_all(iterations=30, kappa_grid=grid, vdf_modulus_bits=256,
                      seed=3)
        timed = time_ops({(i, name): op for i, ops in enumerate(runs)
                          for name, op in ops.items()})
        a, b = (calibrate(BenchReport("", {
                    name: bench.OpTiming(name, ops[name][1], *timed[i, name])
                    for name in ops}), grid)
                for i, ops in enumerate(runs))
        # the fields that sum op medians; a two-point slope is no sum
        for name in ("query_verify_s", "service_verify_s", "link_reject_s",
                     "client_crypto_s"):
            total, other = getattr(a, name), getattr(b, name)
            assert abs(total - other) / max(total, other) < 0.2, name
