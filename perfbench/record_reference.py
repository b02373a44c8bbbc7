"""Record the reference digests of the first passes at the default seed.

    python3 perfbench/record_reference.py

Run it only on code whose outputs are the accepted ones: a digest that
changes means an op's output changed (keys, verdicts, fractions, bit
streams or the order of generator draws), which a speed-up must not do.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
PASSES = 6

DEFAULT_SEED = 1
# Held out: changes that claim a gain are developed without running this seed,
# then checked on it.
HELDOUT_SEED = 9973


def main() -> int:
    from workloads import WORKLOADS

    digests = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(DEFAULT_SEED), "--passes", str(PASSES)],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        failed = sum(1 for *_, ok in result["samples"] if not ok)
        if failed:
            raise SystemExit(f"{workload}: {failed} ops failed; not recording")
        digests[workload] = result["digests"]
    reference = {"default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED, "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
