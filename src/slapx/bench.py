"""Microbenchmarks for the crypto layers plus simulator calibration.

Reports median/p95 wall time per operation and per-phase client/server
totals (sums of constituent op medians). Absolute times are host-bound;
downstream assertions use ratios and monotonicity only. `calibrate`
derives the service-time table the simulator consumes.
"""
from __future__ import annotations

import gc
import platform
import statistics
import time
from dataclasses import dataclass, field

from . import dac, dbp, rlrs, vdf
from .errors import ParameterError
from .group import SigningKey, sgn_verify
from .rng import SeededRng
from .simnet import Calibration

KAPPA_GRID = (10 ** 3, 5 * 10 ** 3, 10 ** 4, 8 * 10 ** 4, 3 * 10 ** 5)


@dataclass
class OpTiming:
    name: str
    iterations: int
    median_s: float
    p95_s: float

    def csv_row(self) -> str:
        return f"{self.name},{self.iterations},{self.median_s:.6f},{self.p95_s:.6f}"


@dataclass
class BenchReport:
    host: str
    ops: dict[str, OpTiming] = field(default_factory=dict)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)

    def median(self, name: str) -> float:
        return self.ops[name].median_s

    def csv(self) -> str:
        lines = ["operation,iterations,median_s,p95_s"]
        lines += [t.csv_row() for t in self.ops.values()]
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        w = max(len(n) for n in self.ops) + 2
        lines = [f"host: {self.host}", "",
                 f"{'operation'.ljust(w)}{'median':>12}{'p95':>12}"]
        for t in self.ops.values():
            lines.append(f"{t.name.ljust(w)}{t.median_s * 1e3:>10.3f}ms"
                         f"{t.p95_s * 1e3:>10.3f}ms")
        lines.append("")
        for phase, sides in self.phases.items():
            for side, total in sides.items():
                lines.append(f"{(phase + ' [' + side + ']').ljust(w)}"
                             f"{total * 1e3:>10.3f}ms")
        return "\n".join(lines)


def _time_ops(ops: dict[str, tuple]) -> dict[str, tuple[float, float]]:
    """Median and p95 wall time of each `name: (fn, iterations)` entry.

    The ops are timed round-robin, each op's runs spread evenly over the
    rounds, so every op samples the whole run: a slow spell of the host
    then lands on all ops alike instead of on whichever one was running.
    """
    rounds = max(iters for _, iters in ops.values())
    samples = {name: [] for name in ops}
    gc_was_enabled = gc.isenabled()
    gc.disable()        # as timeit does: no collector pause inside a sample
    try:
        for r in range(rounds):
            for name, (fn, iters) in ops.items():
                if (r + 1) * iters // rounds > r * iters // rounds:
                    t0 = time.perf_counter()
                    fn()
                    samples[name].append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    out = {}
    for name, xs in samples.items():
        xs.sort()
        out[name] = (statistics.median(xs),
                     xs[min(len(xs) - 1, int(0.95 * len(xs)))])
    return out


def bench_all(iterations: int = 30, kappa_grid=KAPPA_GRID,
              heavy_iterations: int | None = None,
              vdf_modulus_bits: int = 2048, seed: int = 1) -> BenchReport:
    if iterations < 30:
        raise ParameterError("need at least 30 iterations")
    heavy = heavy_iterations or max(3, iterations // 10)
    rng = SeededRng(seed)
    report = BenchReport(host=f"{platform.machine()}/{platform.python_version()}")

    # fixtures
    params, root = dac.dac_setup(128, t=8, eta=2, rng=rng)
    pk, sk = dac.dac_keygen(params, rng)
    attrs = (dac.Attribute("device_id", b"BENCH-00"),
             dac.Attribute("tx_power", (300).to_bytes(2, "big")),
             dac.Attribute("device_type", b"\x00"),
             dac.Attribute("validity", bytes(16)))
    cred = dac.issue_credential(root, sk, attrs, 2, rng)
    nym, aux = dac.dac_nymgen(params, pk, rng)

    msk, rparams = rlrs.rlrs_setup(128, 16, rng)
    ring = [f"AP-{i}" for i in range(8)]
    rkeys = {i: rlrs.rlrs_extract(msk, i, rparams) for i in ring}
    event = rlrs.EventId(10.0, 20.0, 1, bytes(32))

    group = rparams.group
    sgn_key = SigningKey.generate(group, rng)
    dbp_a = dbp.DbpKeyPair.generate(group, rng)
    dbp_b = dbp.DbpKeyPair.generate(group, rng)

    pres = dac.dac_cred_prove(params, sk, nym, aux, cred, (1, 2), b"bench", rng)
    sig = rlrs.rlrs_sign(rkeys["AP-0"], b"m", ring, event, rparams, rng)
    sig2 = rlrs.rlrs_sign(rkeys["AP-0"], b"m2", ring, event, rparams, rng)
    psig = sgn_key.sign(b"puzzle", rng)
    vparams = vdf.vdf_setup(vdf_modulus_bits, 1000, rng.spawn("fix"))

    ops = {
        "cred_prove": (lambda: dac.dac_cred_prove(
            params, sk, nym, aux, cred, (1, 2), b"bench", rng), iterations),
        "cred_verify": (lambda: dac.dac_cred_verify(params, pres, b"bench"),
                        iterations),
        "rlrs_sign": (lambda: rlrs.rlrs_sign(rkeys["AP-0"], b"m", ring, event,
                                             rparams, rng), iterations),
        "rlrs_verify": (lambda: rlrs.rlrs_verify(ring, b"m", event, sig,
                                                 rparams), iterations),
        "rlrs_link": (lambda: sig.tau == sig2.tau, iterations),
        "aka": (lambda: dbp.dbp_aka(dbp_a, dbp_b.pk, b"nonce", 100), iterations),
        "sgn_sign": (lambda: sgn_key.sign(b"puzzle", rng), iterations),
        "sgn_verify": (lambda: sgn_verify(group, sgn_key.pk, b"puzzle", psig),
                       iterations),
        "vdf_setup": (lambda: vdf.vdf_setup(vdf_modulus_bits, 1000,
                                            rng.spawn("b")), heavy),
    }
    for kappa in kappa_grid:
        ch = vdf.VdfChallenge(b"bench-input", kappa)
        sol = vdf.vdf_eval(vparams, ch)
        # below 5e4 squarings an eval is cheap enough for the full sample
        ops[f"vdf_eval_k{kappa}"] = (lambda c=ch: vdf.vdf_eval(vparams, c),
                                     heavy if kappa >= 5 * 10 ** 4
                                     else iterations)
        # verification is O(log kappa) modular exponentiations at any kappa
        ops[f"vdf_verify_k{kappa}"] = (
            lambda c=ch, s=sol: vdf.vdf_verify(vparams, c, s), iterations)
    for name, (med, p95) in _time_ops(ops).items():
        report.ops[name] = OpTiming(name, ops[name][1], med, p95)

    m = report.median
    report.phases = {
        "pol_ap": {
            "client": m("cred_prove") + m("rlrs_verify"),
            "server": m("cred_verify") + m("rlrs_sign"),
        },
        "pol_nd": {
            "client": m("cred_prove") + m("aka"),
            "server": m("cred_verify") + m("aka") + m("cred_prove"),
        },
        "spectrum_query": {
            "client": m("cred_prove"),
            "server": (m("cred_verify") + m("rlrs_verify") + m("rlrs_link")
                       + m("sgn_sign")),
        },
        "service_request": {
            "client": m("cred_prove") + m(f"vdf_eval_k{kappa_grid[0]}"),
            "server": (m("cred_verify") + m("sgn_verify")
                       + m(f"vdf_verify_k{kappa_grid[0]}") + m("rlrs_verify")),
        },
    }
    return report


def eval_slope(report: BenchReport, kappa_grid=KAPPA_GRID) -> float:
    """Least-squares seconds-per-squaring from the eval timings."""
    xs = list(kappa_grid)
    ys = [report.median(f"vdf_eval_k{k}") for k in xs]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def calibrate(report: BenchReport, kappa_grid=KAPPA_GRID) -> Calibration:
    """Service-time table for the simulator, derived from measured costs."""
    m = report.median
    return Calibration(
        query_verify_s=report.phases["spectrum_query"]["server"],
        service_verify_s=report.phases["service_request"]["server"],
        link_reject_s=m("cred_verify") + m("rlrs_verify") + m("rlrs_link"),
        reject_service_s=m("sgn_verify") + 0.001,
        client_crypto_s=2 * m("cred_prove") + m("rlrs_verify"),
        vdf_s_per_squaring=max(eval_slope(report, kappa_grid), 1e-9),
    )
