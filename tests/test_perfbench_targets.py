"""The names perfbench's span tracer wraps still exist in slapx, and the
library calls its workloads make still work, so a rename or a retyping
that would break `perfbench/run.py` fails here."""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, modname, path in tracer.TARGETS:
        # the lookup Tracer.install makes: the attribute is defined on its
        # own owner, not inherited
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, "__dict__", {}).get(attr)):
            missing.append(f"{name}: {modname}.{path}")
    assert missing == []


def test_psd_state_perfbench_reads(deployment):
    # perfbench swaps `psd.pool` for its flood and reports the sizes of the
    # PSD's tables as gauges
    psd = deployment.psd
    assert callable(psd.pool.get)
    for name in ("puzzles", "grants", "links"):
        assert isinstance(len(getattr(psd, name)), int), name


def test_workload_units_set_up_and_build_a_flood_round():
    # the flood's set-up solves a puzzle on the modulus its stand-in for
    # `psd.pool` hands the PSD, through `Puzzle.params` and `vdf_eval`
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
        workloads.SessionUnit(1, 0)
        requests = workloads.FloodUnit(1, 0).requests()
        first_round = [next(requests) for _ in range(len(workloads.ROUND) + 1)]
    finally:
        del sys.modules[spec.name]
    assert [kind for kind, _ in first_round] == ["grant", *workloads.ROUND]
    assert all(isinstance(request, bytes) and request
               for _, request in first_round)


def test_each_handler_span_is_a_child_of_its_phase_span():
    # perfbench's client time of a phase is its span minus its handler
    # child, so the handler must be called straight from the phase driver.
    # The drivers are called through their module, where the tracer wraps
    # them.
    from slapx import protocol as P

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    dep = P.Deployment.create(seed=5, psd_modulus_bits=512)
    client = dep.new_client(seed=1005)
    _, nd_sk, nd_cred = dep.authority.enroll(
        P.DeviceProfile(b"ND-00001", 30.0, 0))
    nd = P.NeighborDevice(dep.view, nd_sk, nd_cred, P.SeededRng(6))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        proof, _ = P.run_pol_ap(client, dep.ap, 10.0, 20.0, 120.0)
        _, puzzle, _, _ = P.run_spectrum_query(client, dep.psd, 10.0, 20.0,
                                               120.0, proof=proof)
        P.run_service_request(client, dep.server, b"ap", puzzle, 120.0,
                              proof=proof)
        dcred, _ = P.run_pol_nd(client, nd, 5.0, 5.0, 180.0, 5.0)
        _, puzzle, _, _ = P.run_spectrum_query(client, dep.psd, 5.0, 5.0,
                                               180.0, dcred=dcred)
        P.run_service_request(client, dep.server, b"nd", puzzle, 180.0,
                              dcred=dcred)
    finally:
        tracer.uninstall()

    phase_of = {"protocol.issue_pol": "protocol.phase.pol_ap",
                "protocol.issue_delegated": "protocol.phase.pol_nd",
                "protocol.handle_spectrum_request":
                    "protocol.phase.spectrum_query",
                "protocol.handle_service_request":
                    "protocol.phase.service_request"}
    NAME, PARENT = tracer_mod.NAME, tracer_mod.PARENT
    handled = [s for s in tracer.spans if s[NAME] in phase_of]
    # one PoL on each path, and a query and a service request after each
    assert sorted(s[NAME] for s in handled) == sorted(
        [*phase_of, *list(phase_of)[2:]])
    for s in handled:
        assert s[PARENT] >= 0
        assert tracer.spans[s[PARENT]][NAME] == phase_of[s[NAME]]
