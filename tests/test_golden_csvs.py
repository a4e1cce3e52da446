"""The seeded simulator still writes perfbench's golden CSVs byte for byte,
from the generators `perfbench/make_golden.py` wrote them with."""
import importlib.util
import sys
from pathlib import Path

import pytest

from slapx import simnet

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
GOLDEN = [f"dos_{s}.csv" for s in simnet.DOS_SCENARIOS] + [
    "fraud_grid.csv", "hijack_grid.csv"]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", GOLDEN)
def test_reference_seed_reproduces_golden_csv(workloads, name):
    seed = workloads.REFERENCE_SEED
    if name.startswith("dos_"):
        text = workloads.dos_csv(name[len("dos_"):-len(".csv")], seed)[0]
    elif name == "fraud_grid.csv":
        text = workloads.fraud_csv(seed)[0]
    else:
        text = workloads.hijack_csv(seed)[0]
    assert text.encode() == (workloads.GOLDEN_DIR / name).read_bytes()
