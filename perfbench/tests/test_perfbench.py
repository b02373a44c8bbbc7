"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from qkeylab import ecurve  # noqa: E402
from workloads import HEAVY, LIGHT, PASS_HEAVY, PASS_LIGHT, WORKLOADS, curve_of_degree  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_and_seed_dependent(name):
    workload = WORKLOADS[name]
    first = workload.generate(1, 0)
    assert first == workload.generate(1, 0)
    assert first != workload.generate(2, 0)
    assert first != workload.generate(1, 1)
    kinds = [op.kind for op in first]
    assert kinds.count(LIGHT) == PASS_LIGHT and kinds.count(HEAVY) == PASS_HEAVY


@pytest.mark.parametrize("degree", (1, 2, 3, 6))
def test_scan_curves_have_the_constructed_degree(degree):
    rng = np.random.default_rng(degree)
    for _ in range(50):
        a, b = curve_of_degree(degree, rng)
        assert ecurve.splitting_degree(a, b) == degree


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_matches_untraced_and_counts_repeat(name):
    seed = str(REFERENCE["default_seed"])
    plain = _worker("--workload", name, "--seed", seed, "--passes", "1")
    traced = [
        _worker("--workload", name, "--seed", seed, "--passes", "1", "--trace") for _ in range(2)
    ]
    assert all(ok for *_, ok in plain["samples"])
    assert plain["digests"] == REFERENCE["digests"][name][:1]
    for run in traced:
        assert run["digests"] == plain["digests"]
    calls = [{span: entry[0] for span, entry in run["aggregate"].items()} for run in traced]
    assert calls[0] == calls[1]
    assert traced[0]["counts"] == traced[1]["counts"]


def test_every_binding_of_a_public_function_is_wrapped():
    probe = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import qkeylab\n"
        "from qkeylab import clocksync, coinflip, ecurve, keyexchange, qstate, qwalk, teleport\n"
        "from tracer import Tracer\n"
        "Tracer().install(qkeylab)\n"
        "names = [teleport.apply_gate, clocksync.apply_gate, qstate.apply_gate,\n"
        "         ecurve.primes_up_to, coinflip.zeta_coefficients,\n"
        "         keyexchange.teleport_index, qwalk.run_clock_sync,\n"
        "         qkeylab.transcript.Transcript.add]\n"
        "print(all(hasattr(f, '__wrapped__') for f in names))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(BENCH), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "True"


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adversary", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_per_layer_metric():
    from tracer import PER_LAYER_UNITS

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == PER_LAYER_UNITS
