"""Command-line entry point: key management, protocol role execution,
simulations, benchmarks, and fragmentation analysis.

Every protocol reject reason maps to its own exit code (EXIT_CODES);
`SLAPX_SEED` overrides the RNG seed for any subcommand. Simulation output
is stable-schema CSV (optionally a JSON summary) so repeated seeded runs
are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import socket
import sys
import threading
from types import SimpleNamespace

from . import bench as bench_mod
from . import simnet, wire
from .errors import ParameterError, ProtocolReject, RejectReason
from .modmath import MIN_MODULUS_BITS
from .protocol import (DEVICE_CLASSES, Deployment, DeviceProfile,
                       NeighborDevice, SeededRng, run_pol_ap, run_pol_nd,
                       run_service_request, run_spectrum_query)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CODES = {reason: 64 + i for i, reason in enumerate(RejectReason)}


def _seed_from_env(default: int) -> int:
    env = os.environ.get("SLAPX_SEED")
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise ParameterError(f"SLAPX_SEED is not an integer: {env!r}") from None


# the scenario-file keys that are read, with their types
_CONFIG_TYPES = {"seed": int, "scenario": str, "n_ue": int, "r_mal": float}


def _load_config(path: str) -> dict:
    """Flat key = value scenario file; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            out[key] = _CONFIG_TYPES.get(key, str)(value.strip())
    return out


def _read_input(path: str, parse):
    """parse(path), with an unreadable or malformed file a usage error."""
    try:
        return parse(path)
    except (OSError, ValueError) as e:
        raise ParameterError(f"cannot read {path}: {e}") from None


# -- deployment reconstruction ------------------------------------------------

def _deployment(args) -> Deployment:
    return Deployment.create(seed=_seed_from_env(args.seed),
                             psd_modulus_bits=args.modulus_bits)


def _client_for(dep: Deployment, args):
    profile = DeviceProfile(
        device_id=args.device_id.encode()[:8].ljust(8, b"\x00"),
        tx_power_dbm=30.0, device_class=args.device_class)
    return dep.new_client(profile, seed=_seed_from_env(args.seed) + 1000)


# -- subcommands ----------------------------------------------------------------

def cmd_keygen(args) -> int:
    dep = _deployment(args)
    info = {"seed": _seed_from_env(args.seed),
            "ring": dep.view.ring,
            "dac_fingerprint": dep.view.dac_params.fingerprint().hex(),
            "psd_pk": dep.psd.sgn_key.pk.to_bytes().hex()}
    text = json.dumps(info, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_enroll(args) -> int:
    dep = _deployment(args)
    client = _client_for(dep, args)
    from .dac import encode_credential
    blob = encode_credential(client.cred, dep.view.dac_params)
    print(json.dumps({"device_id": args.device_id,
                      "credential_bytes": len(blob),
                      "credential": blob.hex()}, indent=2))
    return EXIT_OK


def _run_protocol_once(args, dep: Deployment, ap, psd, server) -> int:
    client = _client_for(dep, args)
    now = 120.0
    l_x, l_y = args.x, args.y

    proof, tr1 = run_pol_ap(client, ap, l_x, l_y, now)
    if args.expired:
        now += 61.0  # proof now belongs to the previous window
    if args.replay:
        run_spectrum_query(client, psd, l_x, l_y, now, proof=proof)
    record, puzzle, sig, tr2 = run_spectrum_query(client, psd, l_x, l_y,
                                                  now, proof=proof)
    token, sol, tr3 = run_service_request(client, server, b"usage-report",
                                          puzzle, now, proof=proof)
    print(f"GRANTED token={token.hex()}")
    print(f"phase_bytes pol_ap={tr1.total_payload} "
          f"spectrum_query={tr2.total_payload} "
          f"service_request={tr3.total_payload}")
    print(f"channels={len(record.channels)} kappa={puzzle.tau}")
    return EXIT_OK


def cmd_pol(args) -> int:
    dep = _deployment(args)
    client = _client_for(dep, args)
    distance = args.distance
    if distance is None:    # the device stands at the position it claims
        distance = math.hypot(args.x, args.y)
    if args.via == "nd":
        nd_pk, nd_sk, nd_cred = dep.authority.enroll(
            DeviceProfile(b"ND-00001", 30.0, 0))
        nd = NeighborDevice(dep.view, nd_sk, nd_cred,
                            SeededRng(_seed_from_env(args.seed) + 7))
        dcred, tr = run_pol_nd(client, nd, args.x, args.y, 120.0,
                               true_distance_m=distance)
        print(f"POL_ND_OK phase_bytes={tr.total_payload}")
    else:
        proof, tr = run_pol_ap(client, dep.ap, args.x, args.y, 120.0,
                               true_distance_m=distance)
        print(f"POL_AP_OK phase_bytes={tr.total_payload} window={proof.event.ts}")
    return EXIT_OK


def cmd_query(args) -> int:
    dep = _deployment(args)
    client = _client_for(dep, args)
    now = 120.0
    proof, _ = run_pol_ap(client, dep.ap, args.x, args.y, now)
    record, puzzle, _, tr = run_spectrum_query(client, dep.psd, args.x, args.y,
                                               now, proof=proof)
    print(f"QUERY_OK phase_bytes={tr.total_payload} "
          f"channels={len(record.channels)} kappa={puzzle.tau}")
    return EXIT_OK


def cmd_service(args) -> int:
    dep = _deployment(args)
    client = _client_for(dep, args)
    now = 120.0
    proof, _ = run_pol_ap(client, dep.ap, args.x, args.y, now)
    record, puzzle, _, _ = run_spectrum_query(client, dep.psd, args.x, args.y,
                                              now, proof=proof)
    token, sol, tr = run_service_request(client, dep.server, b"svc", puzzle,
                                         now, proof=proof)
    print(f"SERVICE_OK phase_bytes={tr.total_payload} token={token.hex()}")
    return EXIT_OK


def cmd_protocol(args) -> int:
    dep = _deployment(args)
    if args.transport == "in-process":
        return _run_protocol_once(args, dep, dep.ap, dep.psd, dep.server)
    # a client hears the AP's beacon and id over the air, not over the socket
    ap = SimpleNamespace(ap_id=dep.ap.ap_id, beacon=dep.ap.beacon,
                         issue_pol=_over_socket("pol_ap", dep.ap.issue_pol))
    psd = SimpleNamespace(handle_spectrum_request=_over_socket(
        "spectrum_query", dep.psd.handle_spectrum_request))
    server = SimpleNamespace(handle_service_request=_over_socket(
        "service_request", dep.server.handle_service_request))
    return _run_protocol_once(args, dep, ap, psd, server)


# -- socket transport (demo) ------------------------------------------------------

def _recv_frame(conn: socket.socket) -> wire.WireMessage:
    data = b""
    while len(data) < wire.HEADER_LEN or \
            len(data) < wire.HEADER_LEN + int.from_bytes(data[1:5], "big"):
        chunk = conn.recv(65536)
        if not chunk:
            break
        data += chunk
    msg, _ = wire.decode_message(data)
    return msg


def _over_socket(phase: str, handle):
    """`handle` behind a loopback socket: each call sends its content as one
    framed request of `phase` to a listener of its own, whose thread runs
    the real handler and answers with one frame, and is joined before the
    call returns. A REJECT frame is raised again here. The handler's
    arguments after the content model the physical world, which no frame
    carries, so they reach the thread in memory."""
    request_name, response_name = wire.PHASE_MESSAGES[phase]

    def serve(srv: socket.socket, world: tuple) -> None:
        conn, _ = srv.accept()
        with conn:
            content = wire.message_content(_recv_frame(conn))
            try:
                reply = wire.build_message(response_name, handle(content, *world))
            except ProtocolReject as e:
                reply = wire.encode_reject(e.reason)
            conn.sendall(reply.encode())

    def call(content: bytes, *world) -> bytes:
        with socket.create_server(("127.0.0.1", 0)) as srv:
            # connected before the thread starts, so its accept cannot wait
            conn = socket.create_connection(srv.getsockname())
            thread = threading.Thread(target=serve, args=(srv, world))
            thread.start()
            try:
                with conn:
                    conn.sendall(wire.build_message(request_name, content).encode())
                    reply = _recv_frame(conn)
            finally:
                thread.join()
        if reply.type == wire.MessageType.REJECT:
            raise ProtocolReject(wire.decode_reject(reply.payload),
                                 "rejected over the socket")
        return wire.message_content(reply)

    return call


# -- simulations -------------------------------------------------------------------

_SCENARIO_ALIASES = {"full": "full_protocol"}


def cmd_simulate(args) -> int:
    conf = _read_input(args.config, _load_config) if args.config else {}
    seed = _seed_from_env(conf.get("seed", args.seed))
    if args.what == "dos":
        name = conf.get("scenario", args.scenario)
        scen = _SCENARIO_ALIASES.get(name, name)
        cal = (_read_input(args.calibration, simnet.Calibration.from_file)
               if args.calibration else simnet.DEFAULT_CALIBRATION)
        rows = []
        if args.sweep:
            rows = simnet.dos_grid(scen, seed=seed, calibration=cal)
        else:
            cfg = simnet.ScenarioConfig(
                scenario=scen, n_ue=conf.get("n_ue", args.n_ue),
                r_mal=conf.get("r_mal", args.r_mal), seed=seed)
            rows = [simnet.run_dos(cfg, cal)]
        out = [simnet.SimMetrics.CSV_HEADER] + [m.csv_row() for m in rows]
        _emit(args, "\n".join(out) + "\n",
              {"rows": [m.__dict__ for m in rows]})
        return EXIT_OK

    if args.attack == "fraud":
        if args.grid:
            rows = simnet.run_fraud_grid(trials=args.trials, seed=seed)
        else:
            rate = simnet.run_fraud(args.rounds, args.tolerance, args.guess,
                                    args.trials, seed=seed)
            rows = [{"rounds": args.rounds, "tolerance": args.tolerance,
                     "guess": args.guess, "trials": args.trials,
                     "success_rate": rate}]
        header = "rounds,tolerance,guess,trials,success_rate"
        body = [f"{r['rounds']},{r['tolerance']:.2f},{r['guess']:.2f},"
                f"{r['trials']},{r['success_rate']:.6f}" for r in rows]
    else:  # hijack
        rows = simnet.run_hijack(trials=args.trials, seed=seed,
                                 noiseless=args.noiseless)
        header = "honest_d,mal_d,weight,trials,success_rate"
        body = [f"{r['honest_d']},{r['mal_d']},{r['weight']:.1f},"
                f"{r['trials']},{r['success_rate']:.6f}" for r in rows]
    _emit(args, header + "\n" + "\n".join(body) + "\n", {"rows": rows})
    return EXIT_OK


def _emit(args, csv_text: str, summary: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    else:
        print(csv_text, end="")
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            f.write(csv_text)


def cmd_bench(args) -> int:
    if args.calibrate:
        # refuse before timing anything, not after the whole bench has run
        bench_mod.check_slope_grid(args.kappa)
    report = bench_mod.bench_all(iterations=args.iterations,
                                 kappa_grid=tuple(args.kappa),
                                 vdf_modulus_bits=args.modulus_bits)
    if args.csv:
        print(report.csv(), end="")
    else:
        print(report.table())
    if args.calibrate:
        bench_mod.calibrate(report, tuple(args.kappa)).to_file(args.calibrate)
        print(f"calibration written to {args.calibrate}")
    return EXIT_OK


def cmd_fragmentation(args) -> int:
    lo, hi = ((args.mtu, args.mtu) if args.mtu is not None
              else (args.mtu_min, args.mtu_max))
    sweep = wire.fragmentation_sweep(lo, hi, args.header_bytes, args.step)
    print("mtu,message,payload_bytes,header_bytes,packets,overhead_ratio")
    for mtu, entries in sweep.items():
        for e in entries:
            print(f"{mtu},{e.message},{e.payload_bytes},{e.header_bytes},"
                  f"{e.packets},{e.overhead_ratio:.6f}")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------

def _coordinate(text: str) -> float:
    """A position in metres that the wire's millimetre codec carries."""
    value = float(text)
    try:
        wire.encode_point(value, 0.0)
    except (OverflowError, ValueError):  # infinite, NaN, or too many mm
        raise argparse.ArgumentTypeError(
            f"coordinate out of range: {text}") from None
    return value


def _distance(text: str) -> float:
    """A finite distance in metres that is not negative."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"distance must be finite and not negative: {text}")
    return value


def _modulus_bits(text: str) -> int:
    """A modulus size that `modmath.rsa_setup` accepts, so no role meets less."""
    value = int(text)
    if value < MIN_MODULUS_BITS:
        raise argparse.ArgumentTypeError(
            f"modulus must be at least {MIN_MODULUS_BITS} bits: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="slapx",
                                description="privacy-preserving spectrum "
                                            "sharing protocol toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    # each role subcommand takes the options it reads: the deployment's,
    # then the device's, then the device's position
    def deployment(sp):
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--modulus-bits", type=_modulus_bits, default=2048,
                        dest="modulus_bits")

    def device(sp):
        deployment(sp)
        sp.add_argument("--device-id", default="DEV-0001")
        sp.add_argument("--device-class", type=int, default=0,
                        choices=sorted(DEVICE_CLASSES))

    def positioned(sp):
        device(sp)
        sp.add_argument("-x", type=_coordinate, default=10.0)
        sp.add_argument("-y", type=_coordinate, default=20.0)

    sp = sub.add_parser("keygen", help="provision authority, ring, and PSD keys")
    deployment(sp)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_keygen)

    sp = sub.add_parser("enroll", help="issue a device credential")
    device(sp)
    sp.set_defaults(fn=cmd_enroll)

    sp = sub.add_parser("pol", help="acquire a proof of location")
    positioned(sp)
    sp.add_argument("--distance", type=_distance)
    sp.add_argument("--via", choices=["ap", "nd"], default="ap")
    sp.set_defaults(fn=cmd_pol)

    sp = sub.add_parser("query", help="run PoL + spectrum query")
    positioned(sp)
    sp.set_defaults(fn=cmd_query)

    sp = sub.add_parser("service", help="run the full pipeline once")
    positioned(sp)
    sp.set_defaults(fn=cmd_service)

    sp = sub.add_parser("protocol", help="end-to-end demo with byte accounting")
    positioned(sp)
    sp.add_argument("--transport", choices=["in-process", "socket"],
                    default="in-process")
    sp.add_argument("--replay", action="store_true",
                    help="replay the proof within the window (expect LINKED)")
    sp.add_argument("--expired", action="store_true",
                    help="use the proof after its window (expect EXPIRED)")
    sp.set_defaults(fn=cmd_protocol)

    sp = sub.add_parser("simulate", help="run DoS or spoofing simulations")
    sp.add_argument("what", choices=["dos", "spoof"])
    sp.add_argument("--scenario", default="full",
                    help="dos: baseline|full|bypass|precompute")
    sp.add_argument("--attack", choices=["fraud", "hijack"], default="fraud")
    sp.add_argument("--n-ue", type=int, default=100, dest="n_ue")
    sp.add_argument("--r-mal", type=float, default=0.2, dest="r_mal")
    sp.add_argument("--rounds", type=int, default=20)
    sp.add_argument("--tolerance", type=float, default=0.0)
    sp.add_argument("--guess", type=float, default=0.5)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--grid", action="store_true")
    sp.add_argument("--noiseless", action="store_true")
    sp.add_argument("--sweep", action="store_true")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--output")
    sp.add_argument("--config")
    sp.add_argument("--calibration")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("bench", help="microbenchmarks and calibration")
    sp.add_argument("--iterations", type=int, default=30)
    sp.add_argument("--kappa", type=int, nargs="+",
                    default=list(bench_mod.KAPPA_GRID))
    sp.add_argument("--modulus-bits", type=_modulus_bits, default=2048,
                    dest="modulus_bits")
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--calibrate")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("fragmentation", help="MTU sweep packet accounting")
    sp.add_argument("--mtu", type=int)
    sp.add_argument("--mtu-min", type=int, default=576, dest="mtu_min")
    sp.add_argument("--mtu-max", type=int, default=9000, dest="mtu_max")
    sp.add_argument("--step", type=int, default=1)
    sp.add_argument("--header-bytes", type=int, default=40, dest="header_bytes")
    sp.set_defaults(fn=cmd_fragmentation)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ProtocolReject as e:
        print(f"REJECTED {e.reason.name}: {e.detail}", file=sys.stderr)
        return EXIT_CODES[e.reason]
    except ParameterError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
