"""The names perfbench's span tracer wraps still exist in slapx, so a rename
that would break `perfbench/run.py --trace 1` fails here."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
