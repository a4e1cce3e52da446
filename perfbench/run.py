#!/usr/bin/env python3
"""slapx benchmark: honest sessions, a DoS flood and the simulator.

    python3 perfbench/run.py --workload {session,flood,sim} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; slapx is imported from its `src/`. The
workload's inputs come from `--seed`. Set-up builds them in several units and
`setup_s` is the median unit; the timed region then runs the workload in one
thread, as a closed loop, for `--seconds`, and checks every output.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the workload
twice from identical set-ups, for half of `--seconds` untraced and then for
the same operations with span wrappers installed (see tracer.py), prints the
per-layer metrics and writes the spans to `perfbench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exit code 0 means every
output check passed; 1 means the run finished with a failed check; 2 means
the run could not start (for instance, no `src/slapx` in the checkout).
"""
from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import HostProbe  # noqa: E402

PHASES = ("pol_ap", "pol_nd", "spectrum_query", "service_request")
HANDLERS = ("issue_pol", "issue_delegated", "handle_spectrum_request",
            "handle_service_request")
PHASE_HANDLER = {"pol_ap": "issue_pol", "pol_nd": "issue_delegated",
                 "spectrum_query": "handle_spectrum_request",
                 "service_request": "handle_service_request"}
# fixed lists: they name per-layer metrics in BENCHMARK.json; a reject
# reason added later is counted under protocol.rejects.other
SCENARIOS = ("baseline", "full_protocol", "bypass", "precompute")
REASONS = ("BAD_CREDENTIAL", "NOT_PROXIMATE", "STALE_BEACON", "BAD_POL",
           "LINKED", "EXPIRED", "OUT_OF_AREA", "BAD_PUZZLE", "BAD_SOLUTION",
           "DELEGATION_DENIED", "DBP_FAILED")

# layers each traced workload must reach, and layers it must not
EXPECTED_LAYERS = {
    "session": {"modmath", "vdf", "hashes", "group", "rlrs", "dac", "dbp",
                "spectrumdb", "wire", "protocol"},
    "flood": {"modmath", "vdf", "hashes", "group", "rlrs", "dac", "wire",
              "protocol"},
    "sim": {"simnet"},
}
FORBIDDEN_SPANS = {
    "flood": ("modmath.rsa_setup",),
    "sim": ("group.", "dac.", "rlrs.", "vdf."),
}


def import_slapx():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import slapx
    except ImportError as e:
        print(f"perfbench: cannot import slapx from {src}: {e}", file=sys.stderr)
        raise SystemExit(2)
    origin = pathlib.Path(slapx.__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"perfbench: slapx came from {origin}, not {src}", file=sys.stderr)
        raise SystemExit(2)


# -- statistics -----------------------------------------------------------------

def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def pct(xs, q: int) -> float:
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one measured segment ---------------------------------------------------------

class Segment:
    """Set up a workload from its seed and run it once. The host-speed probe
    is sampled between set-up units and between operations."""

    def __init__(self, workload, seed, seconds, n_ops=None, tracer=None):
        self.probe = probe = HostProbe()
        self.units, self.setup = [], []         # setup: (raw s, midpoint)
        for u in range(workload.units):
            probe.sample()
            t0 = time.perf_counter()
            self.units.append(workload.setup_unit(seed, u))
            t1 = time.perf_counter()
            self.setup.append((t1 - t0, (t0 + t1) / 2))
        probe.sample()
        inputs = workload.inputs(seed)
        if tracer is not None:
            tracer.install()
        try:
            self.ops = workload.run(self.units, inputs, seconds, probe,
                                    n_ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.rss_mb = peak_rss_mb()

    @property
    def failed(self) -> int:
        return sum(op.outcome == "failed" for op in self.ops)

    def times(self, key, kinds=None, scaled=True):
        """op.ms[key] of the matching operations, in reference ms unless
        `scaled` is false."""
        return [op.ms[key] * (self.probe.scale(op.t) if scaled else 1.0)
                for op in self.ops
                if key in op.ms and (kinds is None or op.kind in kinds)]

    def setup_s(self, scaled=True) -> float:
        return median(s * (self.probe.scale(t) if scaled else 1.0)
                      for s, t in self.setup)


def headline(name: str, seg: Segment) -> dict:
    """The end-to-end metrics (times in reference ms, see hostspeed.py),
    their raw counterparts, and the workload-specific figures that the
    traced run reports from its untraced half."""
    ops = seg.ops
    n = len(ops)
    ok = sum(op.outcome == "ok" for op in ops)
    m = {
        "setup_s": seg.setup_s(),
        "raw.setup_s": seg.setup_s(scaled=False),
        "ops_ok_ratio": ok / n,
        "ops_failed_ratio": (n - ok) / n,
        "peak_rss_mb": seg.rss_mb,
        "host.probe_ms": seg.probe.median_ms(),
    }
    if name == "session":
        key, per_op = "session", seg.times("session")
        m["work_per_s"] = len(per_op) / sum(per_op) * 1e3
        m["raw.work_per_s"] = len(per_op) / sum(seg.times(key, scaled=False)) * 1e3
        m["session_ms.p50"] = median(per_op)
        for phase in ("pol", "query", "service"):
            m[f"{phase}_ms.p50"] = median(seg.times(phase))
    elif name == "flood":
        from workloads import EXPECTED
        key, per_op = "server", seg.times("server")
        attacks = set(EXPECTED)
        m["work_per_s"] = n / sum(per_op) * 1e3
        m["raw.work_per_s"] = n / sum(seg.times(key, scaled=False)) * 1e3
        m["flood_req_per_s"] = m["work_per_s"]
        m["reject_ms.p50"] = median(seg.times("server", attacks))
        m["reject_ms.p90"] = pct(seg.times("server", attacks), 90)
        m["grant_ms.p50"] = median(seg.times("server", {"grant"}))
        for kind in ("grant", *EXPECTED):
            m[f"flood.{kind}.ms"] = median(seg.times("server", {kind}))
    else:
        key = "pass"
        dos = seg.times("dos")
        m["work_per_s"] = median(op.counts["requests"] / ms * 1e3
                                 for op, ms in zip(ops, dos))
        m["raw.work_per_s"] = median(op.counts["requests"] / op.ms["dos"] * 1e3
                                     for op in ops)
        m["sim_req_per_s"] = m["work_per_s"]
        m["spoof_trials_per_s"] = median(
            op.counts["spoof_trials"] / ms * 1e3
            for op, ms in zip(ops, seg.times("spoof")))
    m["op_ms.p50"] = median(seg.times(key))
    m["raw.op_ms.p50"] = median(seg.times(key, scaled=False))
    return m


# -- per-layer metrics from the traced segment ------------------------------------

def layer_metrics(name: str, seg: Segment, tracer) -> dict:
    from tracer import NAME, OP, PARENT, duration, self_time

    spans = tracer.spans
    n_ops = max(1, len(seg.ops))
    by_name: dict[str, list[int]] = {}       # span name -> span indices
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def of(span):
        return [spans[i] for i in by_name.get(span, ())]

    def calls(span):
        return len(by_name.get(span, ())) / n_ops

    def ms(span):
        ss = of(span)
        return sum(map(duration, ss)) / len(ss) / 1e6 if ss else 0.0

    def self_ms(span):
        ss = of(span)
        return sum(map(self_time, ss)) / len(ss) / 1e6 if ss else 0.0

    def children(span, child):
        """Each span named `span` (by index) -> its direct `child` spans."""
        out = {i: [] for i in by_name.get(span, ())}
        for s in of(child):
            if s[PARENT] in out:
                out[s[PARENT]].append(s)
        return out

    m = {}
    for span in ("modmath.rsa_setup", "modmath.is_probable_prime",
                 "hashes.hash_to_prime", "group.muladd", "group.mul"):
        m[f"{span}.calls"] = calls(span)
        m[f"{span}.ms"] = ms(span)
    for span in ("vdf.pool_get", "vdf.verify", "vdf.eval",
                 "vdf.sequential_square", "group.hash_to_point",
                 "group.sgn_sign", "group.sgn_verify", "rlrs.sign",
                 "rlrs.verify", "dac.cred_prove", "dac.cred_verify",
                 "dac.issue_cred", "dac.receive_cred", "dbp.aka", "dbp.verify",
                 "spectrumdb.lookup"):
        m[f"{span}.ms"] = ms(span)

    tests = sum(len(c) for c in children("modmath.random_prime",
                                         "modmath.is_probable_prime").values())
    primes = len(of("modmath.random_prime"))
    m["modmath.prime_yield"] = primes / tests if tests else 0.0
    gets = children("vdf.pool_get", "modmath.rsa_setup")
    m["vdf.pool_miss_ratio"] = (sum(bool(c) for c in gets.values()) / len(gets)
                                if gets else 0.0)
    query_ns = sum(map(duration, of("protocol.phase.spectrum_query")))
    pool_ns = sum(map(duration, of("vdf.pool_get")))
    m["vdf.pool_get.share_of_query"] = pool_ns / query_ns if query_ns else 0.0

    # per granted AP-path operation (3 on the AP path: client, PSD, server)
    granted_ap = {i for i, op in enumerate(seg.ops)
                  if op.reason == "GRANTED" and op.kind in ("session_ap", "grant")}
    verifies = [s for s in of("rlrs.verify") if s[OP] in granted_ap]
    m["rlrs.verify_per_grant"] = (len(verifies) / len(granted_ap)
                                  if granted_ap else 0.0)
    handled = sum(len(of(f"protocol.{h}")) for h in HANDLERS)
    m["dac.cred_verify_per_request"] = (
        len(of("dac.cred_verify")) / handled if handled else 0.0)

    for phase in PHASES:
        seen = [op.counts[f"bytes.{phase}"] for op in seg.ops
                if f"bytes.{phase}" in op.counts]
        m[f"wire.phase_bytes.{phase}"] = max(seen) if seen else 0

    for h in HANDLERS:
        m[f"protocol.{h}.ms"] = ms(f"protocol.{h}")
        m[f"protocol.{h}.self_ms"] = self_ms(f"protocol.{h}")
    for phase in PHASES:
        span = f"protocol.phase.{phase}"
        handler = children(span, f"protocol.{PHASE_HANDLER[phase]}")
        ss = of(span)
        client_ns = sum(duration(spans[i]) - sum(map(duration, c))
                        for i, c in handler.items())
        m[f"protocol.client_ms.{phase}"] = client_ns / len(ss) / 1e6 if ss else 0.0
        m[f"protocol.untraced_ms.{phase}"] = self_ms(span)
    for reason in REASONS:
        m[f"protocol.rejects.{reason}"] = sum(
            op.reason == reason for op in seg.ops) / n_ops
    m["protocol.rejects.other"] = sum(
        op.reason not in (*REASONS, None, "GRANTED")
        and not op.reason.startswith("RAW:") for op in seg.ops) / n_ops
    m["protocol.raw_errors"] = sum(
        str(op.reason).startswith("RAW:") for op in seg.ops) / n_ops
    m["protocol.known_defects"] = sum(
        op.outcome == "known_defect" for op in seg.ops) / n_ops
    psds = [u.dep.psd for u in seg.units if hasattr(u, "dep")]
    m["protocol.psd.puzzles_held"] = sum(len(p.puzzles) for p in psds)
    m["protocol.psd.grants_held"] = sum(len(p.grants) for p in psds)
    m["protocol.psd.link_entries"] = sum(entries(p.links) for p in psds)

    for sc in SCENARIOS:
        m[f"simnet.run_dos.{sc}.ms"] = ms(f"simnet.run_dos.{sc}")
        m[f"simnet.requests.{sc}"] = sum(
            op.counts.get(f"requests.{sc}", 0) for op in seg.ops) / n_ops
    m["simnet.run_fraud.ms"] = ms("simnet.run_fraud")
    m["simnet.run_hijack.ms"] = ms("simnet.run_hijack")
    m["trace.spans_per_op"] = len(spans) / n_ops
    return m


def entries(obj) -> int:
    """Number of leaf entries held in an object's containers (a gauge that
    survives a change of the container type)."""
    if isinstance(obj, dict):
        return sum(entries(v) if isinstance(v, (dict, list, set, tuple))
                   else 1 for v in obj.values())
    if isinstance(obj, (list, set, tuple, frozenset)):
        return len(obj)
    state = getattr(obj, "__dict__", {})
    return sum(entries(v) for v in state.values()
               if isinstance(v, (dict, list, set, tuple, frozenset)))


def trace_checks(name: str, tracer) -> list[str]:
    layers = {n.split(".")[0] for n in tracer.names()}
    problems = [f"layer {layer} recorded no calls"
                for layer in sorted(EXPECTED_LAYERS[name] - layers)]
    for prefix in FORBIDDEN_SPANS.get(name, ()):
        hit = sorted(n for n in tracer.names() if n.startswith(prefix))
        if hit:
            problems.append(f"unexpected calls: {', '.join(hit)}")
    return problems


# -- entry point ----------------------------------------------------------------

def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(values: dict, wanted: list, missing=None) -> dict:
    """The `wanted` metrics by name with their units; a name the workload
    does not measure reads `missing` (a KeyError when None)."""
    return {e["name"]: {"value": float(values[e["name"]] if missing is None
                                       else values.get(e["name"], missing)),
                        "unit": e["unit"]} for e in wanted}


def failures(seg: Segment) -> list[str]:
    return [f"{op.kind}: {op.reason} {op.detail}".strip()
            for op in seg.ops if op.outcome == "failed"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("session", "flood", "sim"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = spec()
    import_slapx()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    problems = []
    if not args.trace:
        seg = Segment(workload, args.seed, args.seconds)
        segments = [seg]
        metrics = report(headline(args.workload, seg), bench["end_to_end"])
    else:
        from tracer import Tracer
        plain = Segment(workload, args.seed, args.seconds / 2)
        tracer = Tracer()
        traced = Segment(workload, args.seed, args.seconds,
                         n_ops=len(plain.ops), tracer=tracer)
        segments = [plain, traced]
        before, after = headline(args.workload, plain), \
            headline(args.workload, traced)
        values = dict(before)
        values.update(layer_metrics(args.workload, traced, tracer))
        for key, value in after.items():
            values[f"overhead.{key}"] = value - before[key]
        metrics = report(values, bench["per_layer"], missing=0.0)
        problems = trace_checks(args.workload, tracer)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(str(out / f"{args.workload}-seed{args.seed}.spans.jsonl"))

    for seg in segments:
        problems += failures(seg)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(s.ops) for s in segments),
        "failed": sum(s.failed for s in segments),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
