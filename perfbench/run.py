"""The qkeylab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload parity-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. With `--trace 0` it times set-up in fresh
interpreters, runs the workload untraced in a closed loop for `--seconds`
seconds and prints the end-to-end metrics. With `--trace 1` it runs a fixed
number of passes twice, untraced and traced, in fresh processes, and prints
the per-layer metrics. Every op's output is checked; at the default seed the
digest of each completed pass must match `reference.json`. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = json.loads((HERE / "reference.json").read_text())

SETUP_SAMPLES = 5  # fresh interpreters timed per run; setup_s is their median
TRACE_PASSES = 3  # fixed, so that traced counts repeat exactly
DEADLINE_S = 170  # the whole run, all child processes included


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py with `args` and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _machine(worker: dict) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            model = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": worker["python"],
        "numpy": worker["numpy"],
    }


def _digest_check(workload: str, seed: int, digests: list[str]) -> bool:
    """At the default seed, every completed pass must match the reference."""
    if seed != REFERENCE["default_seed"]:
        return True
    expected = REFERENCE["digests"][workload]
    n = min(len(expected), len(digests))
    return n > 0 and digests[:n] == expected[:n]


def _population(samples, kind) -> list[float]:
    return sorted(ns / 1e6 for k, ns, _ in samples if k == kind)


def _rank(value: float, population: list[float]) -> float:
    """Share of a population at or below `value`."""
    return sum(1 for v in population if v <= value) / len(population)


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    setup = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic_ns()
        ready = _child([*base, "--setup-only"], deadline)["ready_ns"]
        setup.append((ready - start) / 1e9)
    run = _child([*base, "--seconds", str(seconds)], deadline)
    samples = run["samples"]
    failed = sum(1 for *_, ok in samples if not ok)
    op_ms = sorted(ns / 1e6 for _, ns, _ in samples)
    p50 = statistics.median(op_ms)
    p90 = statistics.quantiles(op_ms, n=10)[-1]
    metrics = {
        "ops_per_s": {"value": (len(samples) - failed) / run["timed_s"], "unit": "1/s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "op_ms_p90": {"value": p90, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_kb"] / 1024, "unit": "MB"},
    }
    light, heavy = _population(samples, "light"), _population(samples, "heavy")
    detail = {
        "samples": len(samples),
        "samples_beyond_p90": sum(1 for v in op_ms if v > p90),
        "failed_frac": failed / len(samples),
        "light_ms_range": [light[0], light[-1]],
        "heavy_ms_range": [heavy[0], heavy[-1]],
        # Rank of each percentile within each population: p50 should sit
        # inside the light ops (heavy rank 0), p90 inside the heavy ones
        # (light rank near 1).
        "p50_rank": {"light": _rank(p50, light), "heavy": _rank(p50, heavy)},
        "p90_rank": {"light": _rank(p90, light), "heavy": _rank(p90, heavy)},
        "setup_s_samples": setup,
        "passes_completed": len(run["digests"]),
        "digests": run["digests"],
    }
    correct = failed == 0 and _digest_check(workload, seed, run["digests"])
    return correct, len(samples), failed, metrics, detail, run


def per_layer(workload: str, seed: int, deadline: float):
    base = ["--workload", workload, "--seed", str(seed), "--passes", str(TRACE_PASSES)]
    plain = _child(base, deadline)
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv"
    traced = _child([*base, "--trace", "--spans-out", str(spans_path)], deadline)

    def ok_rate(run):
        return sum(1 for *_, ok in run["samples"] if ok) / run["timed_s"]

    values = layer_metrics(
        traced["aggregate"],
        traced["counts"],
        coverage=traced["covered_s"] / traced["op_s"],
        overhead=ok_rate(traced) / ok_rate(plain),
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    samples = plain["samples"] + traced["samples"]
    failed = sum(1 for *_, ok in samples if not ok)
    correct = (
        failed == 0
        and traced["digests"] == plain["digests"]
        and _digest_check(workload, seed, plain["digests"])
    )
    detail = {"digests": plain["digests"], "traced_digests": traced["digests"], "spans": spans_path.name}
    return correct, len(samples), failed, metrics, detail, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REFERENCE["digests"]))
    parser.add_argument("--seed", type=int, default=REFERENCE["default_seed"])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qkeylab" / "__init__.py").is_file():
        print(f"perfbench: no qkeylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    if args.trace:
        correct, attempted, failed, metrics, detail, worker = per_layer(
            args.workload, args.seed, deadline
        )
    else:
        correct, attempted, failed, metrics, detail, worker = end_to_end(
            args.workload, args.seed, args.seconds, deadline
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(worker),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({k: v for k, v in detail.items() if "digests" not in k}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
