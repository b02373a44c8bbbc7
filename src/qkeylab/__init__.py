"""qkeylab: a deterministic simulation lab for broadcast-based key agreement.

Modules by concern:

* `qstate` - dense statevector simulation (the quantum backbone)
* `teleport` - single-qubit teleportation and an exact integer side channel
* `clocksync` - ticking-qubit clock-offset estimation
* `broadcast` - simulated satellite bit stream, receivers, bounded-storage Eve
* `keyexchange` - classic, broadcast-generator, and private key exchange
* `ecurve` - curve point counts, trace parities, densities, parity PRNG
* `coinflip` - committed coin flipping over a public line
* `qwalk` - coined walks, marked-vertex search, walk-based agreement
* `cli` - scenario runner emitting reproducible run reports (not imported
  here; `from qkeylab import cli` loads it on demand)
"""

from . import (
    broadcast,
    clocksync,
    coinflip,
    ecurve,
    errors,
    keyexchange,
    numtheory,
    qstate,
    qwalk,
    seeds,
    teleport,
    transcript,
)

__all__ = [
    "broadcast",
    "clocksync",
    "coinflip",
    "ecurve",
    "errors",
    "keyexchange",
    "numtheory",
    "qstate",
    "qwalk",
    "seeds",
    "teleport",
    "transcript",
]

__version__ = "0.1.0"
