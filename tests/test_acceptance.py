"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion with its wall time.
"""
import contextlib
import math
import time

import pytest

from slapx import rlrs, vdf, wire
from slapx.cli import EXIT_CODES, main
from slapx.errors import CryptoError, ProtocolReject, RejectReason
from slapx.modmath import random_prime, rsa_setup
from slapx.protocol import WINDOW_S, Deployment, DeviceProfile, run_pol_ap, \
    run_service_request, run_spectrum_query
from slapx.rng import SeededRng
from slapx.simnet import (DEFAULT_CALIBRATION, PRECOMPUTE_KAPPA, ScenarioConfig,
                          dos_grid, precompute_limit, run_dos, run_fraud,
                          run_hijack)


@contextlib.contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {name}")
        raise
    dt = time.perf_counter() - t0
    print(f"\n[PASS] criterion {num}: {name} ({dt:.1f}s)")
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def binom_tail(n: int, q: float, k: int) -> float:
    return sum(math.comb(n, j) * q ** j * (1 - q) ** (n - j)
               for j in range(k, n + 1))


def fraud_oracle(rounds: int, tolerance: float, guess: float) -> float:
    q = guess + (1 - guess) / 2
    return binom_tail(rounds, q, rounds - int(tolerance * rounds))


# -- criterion 1: VDF correctness and timing shape ---------------------------

def test_criterion_1_vdf():
    with criterion(1, "VDF oracle agreement, eval linearity, flat verify",
                   300):
        # (a) tiny factorable moduli against the Euler-reduced oracle
        rng = SeededRng(1001)
        for i in range(100):
            sub = rng.spawn(f"case{i}")
            p = random_prime(10, sub)
            q = random_prime(11, sub)
            while q == p:
                q = random_prime(11, sub)
            n = p * q
            params = n
            tau = sub.randrange(2 ** 10 + 1)
            m = sub.bytes(16)
            sol = vdf.vdf_eval(params, vdf.VdfChallenge(m, tau))
            x = vdf.challenge_base(params, m)
            if math.gcd(x, n) == 1:
                lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
                expected = pow(x, pow(2, tau, lam), n)
            else:
                expected = pow(x, pow(2, tau), n)
            assert sol.y == expected
            assert vdf.vdf_verify(params, vdf.VdfChallenge(m, tau), sol)

        # (b) eval wall time linear in tau on a full-size modulus. The grid
        # is timed in interleaved rounds and each tau keeps its median, so a
        # slow spell of the host cannot land on one tau alone
        params = rsa_setup(2048, SeededRng(1002))
        taus = [2 ** k for k in range(8, 17)]
        samples = {tau: [] for tau in taus}
        for _ in range(3):
            for tau in taus:
                t0 = time.perf_counter()
                vdf.vdf_eval(params, vdf.VdfChallenge(b"lin", tau))
                samples[tau].append(time.perf_counter() - t0)
        times = [sorted(samples[tau])[1] for tau in taus]
        n = len(taus)
        sx, sy = sum(taus), sum(times)
        sxx = sum(x * x for x in taus)
        sxy = sum(x * y for x, y in zip(taus, times))
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        intercept = (sy - slope * sx) / n
        ss_res = sum((y - (slope * x + intercept)) ** 2
                     for x, y in zip(taus, times))
        ss_tot = sum((y - sy / n) ** 2 for y in times)
        r_squared = 1 - ss_res / ss_tot
        assert r_squared > 0.95, f"eval/tau linear fit R^2 = {r_squared:.4f}"
        assert times == sorted(times), "eval time not monotone in tau"

        # (c) verify time flat (< 2x spread) across three decades of tau
        verify_times = []
        for tau in (10 ** 3, 10 ** 4, 3 * 10 ** 5):
            ch = vdf.VdfChallenge(b"flat", tau)
            sol = vdf.vdf_eval(params, ch)
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                assert vdf.vdf_verify(params, ch, sol)
                samples.append(time.perf_counter() - t0)
            verify_times.append(sorted(samples)[2])
        assert max(verify_times) / min(verify_times) < 2.0, verify_times


# -- criterion 2: distance fraud vs the binomial oracle ----------------------

def test_criterion_2_distance_fraud():
    with criterion(2, "fraud acceptance matches the binomial tail", 600):
        # headline point: (n=20, tol=0, g=0.5) against (3/4)^20
        trials = 10 ** 5
        rate = run_fraud(20, 0.0, 0.5, trials, seed=2001)
        p = 0.75 ** 20
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(rate - p) <= 3 * sigma, (rate, p, sigma)

        # full grid against the oracle
        grid_rates = {}
        for n in (20, 50, 100):
            for tol in (0.0, 0.1, 0.2):
                for g in (0.5, 0.7, 0.9):
                    r = run_fraud(n, tol, g, trials,
                                  seed=2001 ^ (n << 12) ^ int(tol * 10) << 8
                                      ^ int(g * 10))
                    po = fraud_oracle(n, tol, g)
                    s = math.sqrt(max(po * (1 - po), 1e-12) / trials)
                    assert abs(r - po) <= 3 * s + 1e-9, (n, tol, g, r, po)
                    grid_rates[(n, tol, g)] = (r, po)

        # qualitative trend: success increases with tolerance and guess
        for n in (20, 50, 100):
            for g in (0.5, 0.7, 0.9):
                oracles = [grid_rates[(n, t, g)][1] for t in (0.0, 0.1, 0.2)]
                assert oracles == sorted(oracles)
            for tol in (0.0, 0.1, 0.2):
                oracles = [grid_rates[(n, tol, g)][1] for g in (0.5, 0.7, 0.9)]
                assert oracles == sorted(oracles)
        # simulated rates track the same direction within noise
        for n in (20, 50, 100):
            for g in (0.5, 0.7, 0.9):
                sims = [grid_rates[(n, t, g)][0] for t in (0.0, 0.1, 0.2)]
                assert all(b >= a - 0.01 for a, b in zip(sims, sims[1:]))


# -- criterion 3: distance hijacking grid ------------------------------------

def test_criterion_3_distance_hijacking(hijack_oracle):
    with criterion(3, "hijack grid: monotone and equal to the closed form",
                   300):
        noiseless = run_hijack(trials=100, seed=3001, noiseless=True)
        for row in noiseless:
            expected = float(hijack_oracle(row["honest_d"], row["mal_d"],
                                           row["weight"]))
            assert row["success_rate"] == expected, row

        noisy = run_hijack(trials=100, seed=3002, noiseless=False)
        by_w = {}
        by_h = {}
        for r in noisy:
            by_w.setdefault((r["honest_d"], r["mal_d"]), []).append(
                (r["weight"], r["success_rate"]))
            by_h.setdefault((r["mal_d"], r["weight"]), []).append(
                (r["honest_d"], r["success_rate"]))
        for series in by_w.values():
            series.sort()
            for (_, s1), (_, s2) in zip(series, series[1:]):
                assert s2 <= s1 + 0.05
        for series in by_h.values():
            series.sort()
            for (_, s1), (_, s2) in zip(series, series[1:]):
                assert s2 <= s1 + 0.05


# -- criterion 4: DoS scenario reproduction -----------------------------------

def test_criterion_4_dos_trends():
    with criterion(4, "DoS baseline/full/bypass trends", 900):
        # (a) unprotected server saturates
        base = run_dos(ScenarioConfig("baseline", n_ue=250, r_mal=0.4, seed=1))
        assert base.n_dropped_benign > 0
        assert base.t_q_ms > 100.0

        # (b) full protocol protects the whole grid
        for m in dos_grid("full_protocol", seed=1):
            assert m.n_dropped_benign == 0, (m.n_ue, m.r_mal)
            assert m.n_queued < 50, (m.n_ue, m.r_mal, m.n_queued)
            assert m.t_q_ms < 65.0, (m.n_ue, m.r_mal, m.t_q_ms)

        # (c) bypass reaches capacity only at the two largest attack mixes
        capped = set()
        for m in dos_grid("bypass", seed=1):
            assert m.n_dropped_benign == 0, (m.n_ue, m.r_mal)
            if m.max_queue_len >= 100:
                capped.add((m.n_ue, m.r_mal))
        assert capped == {(250, 0.3), (250, 0.4)}, capped

        # (d) benign drops peak at the smallest malicious ratio
        drops = {r: run_dos(ScenarioConfig("baseline", n_ue=250, r_mal=r,
                                           seed=1)).n_dropped_benign
                 for r in (0.2, 0.3, 0.4)}
        assert drops[0.2] > drops[0.3] and drops[0.2] > drops[0.4], drops


# -- criterion 5: precomputation limit ----------------------------------------

def test_criterion_5_precompute_limit():
    with criterion(5, "puzzle banking bounded by the validity window", 120):
        # calibration anchor: easiest issued difficulty evaluates in ~0.24 s
        cfg = ScenarioConfig("precompute", n_ue=250, r_mal=0.4, seed=1)
        t_eval = DEFAULT_CALIBRATION.vdf_eval_s(PRECOMPUTE_KAPPA)
        assert abs(t_eval - 0.24) < 0.01
        bound = precompute_limit(PRECOMPUTE_KAPPA, WINDOW_S,
                                 DEFAULT_CALIBRATION.vdf_s_per_squaring)
        assert bound <= 250
        assert precompute_limit(20_000, 60.0, 0.24 / 20_000) == 250

        # the run itself asserts the bank bound at every solve instant
        metrics = run_dos(cfg)
        assert 0 < metrics.max_precomputed_bank <= bound
        assert metrics.n_dropped_benign == 0


# -- criterion 6: protocol invariants ------------------------------------------

def test_criterion_6_protocol_invariants(run_bytes):
    with criterion(6, "grants, replay, revocation, delegation, anonymity", 60):
        dep = Deployment.create(seed=61, psd_modulus_bits=1024)
        client = dep.new_client(DeviceProfile(b"ACC-0001", 30.0, 0), seed=6001)

        # (a) happy path grants
        t = 120.0
        proof, tr1 = run_pol_ap(client, dep.ap, 10.0, 20.0, t)
        record, puzzle, sig, tr2 = run_spectrum_query(
            client, dep.psd, 10.0, 20.0, t, proof=proof)
        token, sol, tr3 = run_service_request(client, dep.server, b"m",
                                              puzzle, t, proof=proof)
        assert token and vdf.vdf_verify(puzzle.modulus_n,
                                        puzzle.challenge_for(b"m"), sol)
        assert (tr1.total_payload, tr2.total_payload, tr3.total_payload) == \
            (2456, 3016, 2712)

        # (b) replayed proof within the window refused via the link tag
        with pytest.raises(ProtocolReject) as e:
            run_spectrum_query(client, dep.psd, 10.0, 20.0, t + 1, proof=proof)
        assert e.value.reason == RejectReason.LINKED

        # (c) a double-issuing access point is identified by revocation
        c2 = dep.new_client(DeviceProfile(b"ACC-0002", 30.0, 0), seed=6002)
        c3 = dep.new_client(DeviceProfile(b"ACC-0003", 30.0, 0), seed=6003)
        t2 = 240.0
        p_a, _ = run_pol_ap(c2, dep.ap, 10.0, 20.0, t2)
        p_b, _ = run_pol_ap(c3, dep.ap, 10.0, 20.0, t2)
        who = rlrs.rlrs_revoke(dep.authority.rlrs_msk, p_a.event,
                               dep.view.ring, (p_a.m, p_a.sig),
                               dep.view.ring, (p_b.m, p_b.sig),
                               dep.view.rlrs_params)
        assert who == dep.ap.ap_id

        # (d) terminal delegated credentials reject re-delegation
        from slapx import dac
        from slapx.protocol import NeighborDevice, run_pol_nd
        _, nd_sk, nd_cred = dep.authority.enroll(
            DeviceProfile(b"ND-ACCPT", 30.0, 0))
        nd = NeighborDevice(dep.view, nd_sk, nd_cred, SeededRng(6004))
        t3 = 300.0
        dcred, _ = run_pol_nd(c2, nd, 5.0, 5.0, t3, true_distance_m=10.0)
        req, _ = dac.dac_request_delegation(dep.view.dac_params, c3.sk,
                                            SeededRng(6005))
        with pytest.raises(CryptoError, match="terminal"):
            dac.dac_issue_cred(dep.view.dac_params, dcred, req, dcred.ext.attrs,
                               SeededRng(6006))

        # (e) two runs by one client share zero non-disclosed bytes
        runs = []
        for t4 in (360.0, 420.0):
            pr, a1 = run_pol_ap(client, dep.ap, 10.0, 20.0, t4)
            _, puz, _, a2 = run_spectrum_query(client, dep.psd, 10.0, 20.0,
                                               t4, proof=pr)
            _, _, a3 = run_service_request(client, dep.server, b"m", puz, t4,
                                           proof=pr)
            runs.append(run_bytes(dep.view.dac_params, a1, a2, a3))
        assert len(runs[0]) == 9
        for key in runs[0]:
            assert runs[0][key] != runs[1][key], f"{key} bytes repeated"


# -- criterion 7: wire budgets and fragmentation --------------------------------

def test_criterion_7_wire_and_fragmentation():
    with criterion(7, "byte-exact budgets and the fragmentation pattern", 60):
        assert wire.phase_total("pol_ap") == 2456
        assert wire.phase_total("pol_nd") == 1944
        assert wire.phase_total("spectrum_query") == 3016
        assert wire.phase_total("service_request") == 2712

        at_1500 = {e.message: e.packets
                   for e in wire.fragmentation_report(1500, 40)}
        assert at_1500["spectrum_request"] == 2
        assert at_1500["service_request"] == 2
        assert all(pkts == 1 for name, pkts in at_1500.items()
                   if name not in ("spectrum_request", "service_request"))

        assert all(e.packets == 1 for e in wire.fragmentation_report(9000, 40))

        for mtu, entries in wire.fragmentation_sweep(576, 9000, 40).items():
            for e in entries:
                assert e.packets == math.ceil(e.payload_bytes / (mtu - 40))


# -- criterion 8: deterministic simulation output --------------------------------

def test_criterion_8_determinism(capsys):
    with criterion(8, "seeded simulate runs are byte-identical", 60):
        def run(*argv):
            assert main(list(argv)) == 0
            return capsys.readouterr().out

        for args in (
            ("simulate", "dos", "--scenario", "bypass", "--n-ue", "250",
             "--r-mal", "0.3", "--seed", "17"),
            ("simulate", "dos", "--scenario", "full", "--sweep", "--seed", "5"),
            ("simulate", "spoof", "--attack", "fraud", "--rounds", "50",
             "--tolerance", "0.1", "--guess", "0.7", "--trials", "5000",
             "--seed", "5"),
            ("simulate", "spoof", "--attack", "hijack", "--trials", "50",
             "--seed", "5"),
        ):
            assert run(*args) == run(*args)
