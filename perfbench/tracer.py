"""Span tracer for slapx, installed from outside the package.

`Tracer.install()` replaces each function or method listed in `TARGETS`
with a timing wrapper. A module-level function is replaced on every name
binding that holds it, in every loaded `slapx` module, so `vdf.is_probable_prime` (imported by name from `modmath`)
and `protocol.sgn_verify` (imported by name from `group`) are traced as well
as the defining module's name. A method is replaced on its class.

Each span records its name, start, end, parent span and the id of the
operation (session, request or simulator pass) it ran under. Spans stay in
memory; `write()` dumps them when the run ends. A span's self time is its
duration minus the time its direct children cover; the program is
single-threaded under this benchmark, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (span name, defining module, attribute path inside that module)
TARGETS = [
    ("modmath.rsa_setup", "slapx.modmath", "rsa_setup"),
    ("modmath.random_prime", "slapx.modmath", "random_prime"),
    ("modmath.is_probable_prime", "slapx.modmath", "is_probable_prime"),
    ("modmath.next_prime", "slapx.modmath", "next_prime"),
    ("vdf.pool_get", "slapx.vdf", "ModulusPool.get"),
    ("vdf.verify", "slapx.vdf", "vdf_verify"),
    ("vdf.eval", "slapx.vdf", "vdf_eval"),
    ("vdf.sequential_square", "slapx.vdf", "sequential_square"),
    ("hashes.hash_to_prime", "slapx.hashes", "hash_to_prime"),
    ("group.mul", "slapx.group", "Group.mul"),
    ("group.muladd", "slapx.group", "Group.muladd"),
    ("group.hash_to_point", "slapx.group", "Group.hash_to_point"),
    ("group.sgn_sign", "slapx.group", "SigningKey.sign"),
    ("group.sgn_verify", "slapx.group", "sgn_verify"),
    ("rlrs.sign", "slapx.rlrs", "rlrs_sign"),
    ("rlrs.verify", "slapx.rlrs", "rlrs_verify"),
    ("dac.cred_prove", "slapx.dac", "dac_cred_prove"),
    ("dac.cred_verify", "slapx.dac", "dac_cred_verify"),
    ("dac.issue_cred", "slapx.dac", "dac_issue_cred"),
    ("dac.receive_cred", "slapx.dac", "dac_receive_cred"),
    ("dbp.aka", "slapx.dbp", "dbp_aka"),
    ("dbp.verify", "slapx.dbp", "dbp_verify"),
    ("spectrumdb.lookup", "slapx.spectrumdb", "SpectrumDatabase.lookup"),
    ("wire.build_message", "slapx.wire", "build_message"),
    ("wire.unpack_fields", "slapx.wire", "unpack_fields"),
    ("protocol.issue_pol", "slapx.protocol", "AccessPoint.issue_pol"),
    ("protocol.issue_delegated", "slapx.protocol",
     "NeighborDevice.issue_delegated"),
    ("protocol.handle_spectrum_request", "slapx.protocol",
     "Psd.handle_spectrum_request"),
    ("protocol.handle_service_request", "slapx.protocol",
     "ServiceServer.handle_service_request"),
    ("protocol.phase.pol_ap", "slapx.protocol", "run_pol_ap"),
    ("protocol.phase.pol_nd", "slapx.protocol", "run_pol_nd"),
    ("protocol.phase.spectrum_query", "slapx.protocol", "run_spectrum_query"),
    ("protocol.phase.service_request", "slapx.protocol", "run_service_request"),
    ("simnet.run_dos", "slapx.simnet", "run_dos"),
    ("simnet.run_fraud", "slapx.simnet", "run_fraud"),
    ("simnet.run_hijack", "slapx.simnet", "run_hijack"),
]

# spans whose name carries the scenario of their first argument
_LABELLED = {"simnet.run_dos": lambda args: args[0].scenario}

NAME, START, END, PARENT, OP, CHILD_NS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.paused = False      # while true, wrapped calls record no span
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, modname, path in TARGETS:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in self._modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _modules(self):
        return [mod for n, mod in list(sys.modules.items())
                if n == "slapx" or n.startswith("slapx.")]

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns
        label = _LABELLED.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_name = f"{name}.{label(args)}" if label else name
            rec = [span_name, clock(), 0, stack[-1] if stack else -1,
                   tracer.op, 0]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD_NS] += rec[END] - rec[START]

        return wrapper

    # -- queries ----------------------------------------------------------

    def names(self) -> set[str]:
        return {s[NAME] for s in self.spans}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                           "parent", "op", "child_ns"]}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s, separators=(",", ":")) + "\n")


def duration(span) -> int:
    return span[END] - span[START]


def self_time(span) -> int:
    return span[END] - span[START] - span[CHILD_NS]
