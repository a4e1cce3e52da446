"""Microbenchmarks for the crypto layers plus simulator calibration.

Reports median/p95 wall time per operation, run on one `Deployment`'s
keys and parameters and an enrolled client's credential. Absolute times
are host-bound; downstream assertions use ratios and monotonicity only.
`calibrate` derives the service-time table the simulator consumes from
sums of op medians (docs/metrics.md lists them).
"""
from __future__ import annotations

import gc
import itertools
import platform
import statistics
import time
from dataclasses import dataclass, field

from . import dac, dbp, rlrs, vdf, wire
from .errors import ParameterError, ProtocolReject, RejectReason, SlapxError
from .group import CURVE, SigningKey, sgn_verify
from .hashes import hash_to_prime
from .modmath import rsa_setup
from .protocol import (Deployment, build_service_request, run_pol_ap,
                       run_spectrum_query)
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


def _refusal(handle, requests: list[bytes], now_s: float,
             reason: RejectReason):
    """A timed op that sends the next of requests to a real handler, which
    must refuse each for reason; checked once here, before any timing."""
    def refused(request):
        try:
            handle(request, now_s)
        except ProtocolReject as e:
            return e.reason
        return None

    if any(refused(request) is not reason for request in requests):
        raise SlapxError(f"the handler did not refuse the request as "
                         f"{reason.name}")
    cycle = itertools.cycle(requests)
    return lambda: refused(next(cycle))


def bench_all(iterations: int = 30, kappa_grid=KAPPA_GRID,
              vdf_modulus_bits: int = 2048, seed: int = 1) -> BenchReport:
    if iterations < 30:
        raise ParameterError("need at least 30 iterations")
    heavy = max(3, iterations // 10)
    rng = SeededRng(seed)
    report = BenchReport(host=f"{platform.machine()}/{platform.python_version()}")

    # fixtures: one deployment's keys and parameters, and a client enrolled
    # in it; the bench's own rng draws the nonces and the VDF modulus
    dep = Deployment.create(seed, psd_modulus_bits=vdf_modulus_bits)
    client = dep.new_client()
    params, rparams, ring = dep.view.dac_params, dep.view.rlrs_params, dep.view.ring
    sk, cred = client.sk, client.cred
    nym, aux = client.fresh_nym()
    event = rlrs.EventId(10.0, 20.0, 1, bytes(32))
    peer_pk = SigningKey.generate(rng).pk   # a neighbor device's DBP key

    pres = dac.dac_cred_prove(params, sk, nym, aux, cred, (1, 2), b"bench", rng)
    pres_b = pres.to_bytes(params)
    sig = rlrs.rlrs_sign(dep.ap.sk, b"m", ring, event, rparams, rng)
    sig2 = rlrs.rlrs_sign(dep.ap.sk, b"m2", ring, event, rparams, rng)
    psig = dep.psd.sgn_key.sign(b"puzzle", rng)
    vdf_n = rsa_setup(vdf_modulus_bits, rng.spawn("fix"))
    # R_sk, S and four attribute bases raised to 336-bit exponents (the
    # width of an honest response), through the fixed-base tables and
    # through one pow per base
    bases = {dac.BASE_SK: params.base_sk, dac.BASE_S: params.base_S,
             **dict(enumerate(params.bases[:4]))}
    terms = [(key, rng.randint_bits(336)) for key in bases]
    # curve scalars, the generator's and a ring key's comb tables, and the
    # PointTables of two bases that are new per signature (u0 and tau);
    # from a spawned stream, so the other fixtures' draws do not move
    curve_rng = rng.spawn("curve")
    s, c = (CURVE.random_scalar(curve_rng) for _ in range(2))
    ring_key = rparams.key_table(ring[0])
    fresh = [CURVE.table(CURVE.mul(CURVE.generator,
                                   CURVE.random_scalar(curve_rng)))
             for _ in range(2)]

    # the prime search's cost is the gap above H(m), which varies by input,
    # so each sample takes the next of `iterations` distinct inputs; so does
    # each VDF sample, whose eval and verify search for a prime l
    h2p_rng = rng.spawn("h2p")
    h2p_inputs = itertools.cycle([h2p_rng.bytes(32) for _ in range(iterations)])
    vdf_rng = rng.spawn("vdf")

    # refusals through the real handlers: a query replayed after its proof
    # bought a puzzle, and service requests on that puzzle whose ell passes
    # the floor but is not the next prime after H(x + y), one per message,
    # as the prime search's cost varies by input
    t = 30.0
    proof, _ = run_pol_ap(client, dep.ap, 10.0, 20.0, t)
    _, puzzle, _, query = run_spectrum_query(client, dep.psd, 10.0, 20.0, t,
                                             proof=proof)
    wrong_ell = []
    for i in range(iterations):
        m = b"bench%d" % i
        good = vdf.vdf_eval(puzzle.modulus_n, puzzle.challenge_for(m))
        wrong_ell.append(build_service_request(
            client, m, puzzle, t, proof=proof,
            solution=vdf.VdfSolution(good.ell + 2, good.pi, good.y))[0])

    def pow_product():
        out = 1
        for key, e in terms:
            out = out * pow(bases[key], e, params.n) % params.n
        return out

    ops = {
        "cred_prove": (lambda: dac.dac_cred_prove(
            params, sk, nym, aux, cred, (1, 2), b"bench", rng), iterations),
        "cred_verify": (lambda: dac.dac_cred_verify(params, pres, b"bench"),
                        iterations),
        # all a server runs before its puzzle lookup turns a request away
        "presentation_decode": (lambda: dac.Presentation.from_bytes(pres_b, params),
                                iterations),
        "rlrs_sign": (lambda: rlrs.rlrs_sign(dep.ap.sk, b"m", ring, event,
                                             rparams, rng), iterations),
        "rlrs_verify": (lambda: rlrs.rlrs_verify(ring, b"m", event, sig,
                                                 rparams), iterations),
        "rlrs_link": (lambda: sig.tau == sig2.tau, iterations),
        "aka": (lambda: dbp.dbp_aka(client.dbp_key, peer_pk, b"nonce", 100),
                iterations),
        "sgn_sign": (lambda: dep.psd.sgn_key.sign(b"puzzle", rng), iterations),
        # the client checks puzzles against the PSD key's one table
        "sgn_verify": (lambda: sgn_verify(dep.view.psd_table, b"puzzle", psig),
                       iterations),
        "vdf_setup": (lambda: rsa_setup(vdf_modulus_bits, rng.spawn("b")),
                      heavy),
        "hash_to_prime": (lambda: hash_to_prime(next(h2p_inputs)), iterations),
        "dac_multiexp": (lambda: params.multiexp(*terms), iterations),
        "group_mul_g": (lambda: CURVE.mul(CURVE.generator, s), iterations),
        # L_i = s*G + c*PK_i, both bases tabled for the deployment
        "group_muladd_fixed": (lambda: CURVE.muladd(s, CURVE.generator, c,
                                                    ring_key), iterations),
        # R_i = s*u0 + c*tau, over the two PointTables
        "group_muladd_fresh": (lambda: CURVE.muladd(s, fresh[0], c, fresh[1]),
                               iterations),
        "pow_product": (pow_product, iterations),
        "psd_linked_replay": (_refusal(
            dep.psd.handle_spectrum_request,
            [wire.message_content(query.request)], t, RejectReason.LINKED),
            iterations),
        "server_wrong_ell": (_refusal(
            dep.server.handle_service_request, wrong_ell, t,
            RejectReason.BAD_SOLUTION), iterations),
    }
    for kappa in kappa_grid:
        # below 5e4 squarings an eval is cheap enough for the full sample
        evals = heavy if kappa >= 5 * 10 ** 4 else iterations
        chs = [vdf.VdfChallenge(vdf_rng.bytes(32), kappa) for _ in range(evals)]
        solved = itertools.cycle([(c, vdf.vdf_eval(vdf_n, c)) for c in chs])
        ops[f"vdf_eval_k{kappa}"] = (
            lambda cs=itertools.cycle(chs): vdf.vdf_eval(vdf_n, next(cs)), evals)
        # verification is O(log kappa) modular exponentiations at any kappa
        ops[f"vdf_verify_k{kappa}"] = (
            lambda cs=solved: vdf.vdf_verify(vdf_n, *next(cs)), iterations)
    for name, (med, p95) in _time_ops(ops).items():
        report.ops[name] = OpTiming(name, ops[name][1], med, p95)
    return report


def check_slope_grid(kappa_grid) -> None:
    """A least-squares slope needs at least two distinct kappa values."""
    if len(set(kappa_grid)) < 2:
        raise ParameterError("the eval slope needs at least two distinct "
                             "kappa values")


def eval_slope(report: BenchReport, kappa_grid=KAPPA_GRID) -> float:
    """Least-squares seconds-per-squaring from the eval timings."""
    check_slope_grid(kappa_grid)
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
    link_reject_s = m("cred_verify") + m("rlrs_verify") + m("rlrs_link")
    return Calibration(
        query_verify_s=link_reject_s + m("sgn_sign"),
        service_verify_s=m("cred_verify") + m(f"vdf_verify_k{kappa_grid[0]}"),
        link_reject_s=link_reject_s,
        reject_service_s=m("presentation_decode"),
        client_crypto_s=2 * m("cred_prove") + m("rlrs_verify"),
        vdf_s_per_squaring=max(eval_slope(report, kappa_grid), 1e-9),
    )
