"""Tests for the benchmark itself: minimum-size runs of every workload, on
two seeds and in both modes, must pass their output checks and print every
metric BENCHMARK.json names; a checkout without slapx must fail to start.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("seed,trace", [(1, 0), (2, 1)])
def test_minimum_run_passes_checks_and_prints_every_metric(workload, seed,
                                                           trace):
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: (m["unit"]) for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checkout_without_slapx_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("session", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_name_binding():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from slapx import group, hashes, modmath, protocol, vdf
    from tracer import CHILD_NS, PARENT, Tracer, duration

    originals = (modmath.is_probable_prime, hashes.hash_to_prime,
                 group.sgn_verify, protocol.Psd.handle_spectrum_request)
    tracer = Tracer()
    tracer.install()
    try:
        assert vdf.is_probable_prime is modmath.is_probable_prime
        assert vdf.is_probable_prime is not originals[0]
        assert vdf.hash_to_prime is hashes.hash_to_prime is not originals[1]
        assert protocol.sgn_verify is group.sgn_verify is not originals[2]
        assert protocol.Psd.handle_spectrum_request is not originals[3]
        assert hashes.hash_to_prime(b"x") == originals[1](b"x")
    finally:
        tracer.uninstall()
    assert (modmath.is_probable_prime, hashes.hash_to_prime, group.sgn_verify,
            protocol.Psd.handle_spectrum_request) == originals
    assert vdf.is_probable_prime is originals[0]

    spans = tracer.spans
    assert spans[0][0] == "hashes.hash_to_prime"
    assert {s[0] for s in spans[1:]} == {"modmath.next_prime",
                                         "modmath.is_probable_prime"}
    children = [s for s in spans if s[PARENT] == 0]
    assert [s[0] for s in children] == ["modmath.next_prime"]
    assert spans[0][CHILD_NS] == sum(map(duration, children))
