"""One workload process of the benchmark (started by run.py).

Imports `qkeylab` from the checkout's `src/`, generates the inputs of pass 0,
then runs ops in a closed loop (one op at a time, workers=1) for a number of
seconds or of whole passes. Prints one JSON line with the per-op samples, the
digest of every completed pass and, when traced, the per-layer aggregates.

    python3 perfbench/worker.py --workload parity-scan --seed 1 --seconds 20
    python3 perfbench/worker.py --workload parity-scan --seed 1 --passes 3 --trace
    python3 perfbench/worker.py --workload parity-scan --seed 1 --setup-only
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_OPS = 100  # so that at least ten samples lie beyond op_ms_p90


def import_library():
    """Import qkeylab from the checkout's own source tree, nothing else."""
    if not (SRC / "qkeylab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qkeylab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qkeylab

    if Path(qkeylab.__file__).resolve().parent != SRC / "qkeylab":
        raise SystemExit(f"perfbench: imported qkeylab from {qkeylab.__file__}, not {SRC}")
    return qkeylab


def run_op(workload, op, op_id, tracer):
    """Run one op; returns (wall ns of the library calls, ok, canonical line).

    An op fails if it raises or if its output fails the check.
    """
    if tracer is not None:
        tracer.op_id = op_id
    start = time.perf_counter_ns()
    try:
        result = workload.run(op)
    except Exception as exc:
        elapsed = time.perf_counter_ns() - start
        return elapsed, False, f"raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.op_id = None
    elapsed = time.perf_counter_ns() - start
    try:
        ok, line = workload.check(op, result)
    except Exception as exc:
        ok, line = False, f"check raised {type(exc).__name__}: {exc}"
    return elapsed, ok, line


def run_ops(workload, seed, first_ops, seconds, passes, tracer):
    """Closed loop over passes 0, 1, ... until the time or pass budget is spent.

    Returns the per-op samples [kind, ns, ok], the digests of the completed
    passes, the timed wall time (input generation of later passes excluded)
    and the time spent inside ops.
    """
    from workloads import pass_digest

    samples, digests = [], []
    generation_ns = op_total_ns = 0
    loop_start = time.perf_counter_ns()

    def timed_ns():
        return time.perf_counter_ns() - loop_start - generation_ns

    ops, pass_index = first_ops, 0
    while passes is None or pass_index < passes:
        if pass_index:
            gen_start = time.perf_counter_ns()
            ops = workload.generate(seed, pass_index)
            generation_ns += time.perf_counter_ns() - gen_start
        lines = []
        for op in ops:
            elapsed, ok, line = run_op(workload, op, len(samples), tracer)
            op_total_ns += elapsed
            samples.append([op.kind, elapsed, ok])
            lines.append(line)
            if passes is None and timed_ns() >= seconds * 1e9 and len(samples) >= MIN_OPS:
                return samples, digests, timed_ns(), op_total_ns
        digests.append(pass_digest(lines))
        pass_index += 1
    return samples, digests, timed_ns(), op_total_ns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--passes", type=int)
    budget.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", help="write the recorded spans here (with --trace)")
    args = parser.parse_args(argv)

    qkeylab = import_library()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(qkeylab)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    first_ops = workload.generate(args.seed, 0)
    result = {"ready_ns": time.monotonic_ns()}
    if not args.setup_only:
        import numpy

        result.update(python=platform.python_version(), numpy=numpy.__version__)
        samples, digests, timed_ns, op_ns = run_ops(
            workload, args.seed, first_ops, args.seconds, args.passes, tracer
        )
        result.update(
            samples=samples,
            digests=digests,
            timed_s=timed_ns / 1e9,
            op_s=op_ns / 1e9,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            result.update(
                aggregate=tracer.aggregate(),
                counts=tracer.counts(),
                covered_s=tracer.covered_ns() / 1e9,
            )
            if args.spans_out:
                tracer.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
