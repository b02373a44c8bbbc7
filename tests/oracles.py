"""Slow, obvious twins of the library's fast paths, kept as test oracles.

No library code calls these. Each one runs the same private kernels or the
same arithmetic as the path it guards, one item at a time, so the tests can
compare the two bit for bit:

* `bit_at`: one stream bit from one SHA-256 block, the twin of
  `broadcast.bits_range`.
* `count_points`, `frobenius_trace` and `prime_coefficient`: #E(F_p), a_p
  and the coefficient a(p) of one prime from one O(p) residue table, at
  good and bad primes alike. The table is the twin of the blocked
  `ecurve._affine_counts`; the trace parity is the oracle of
  `ecurve._trace_is_even` (and so of the parity scans, the parity stream
  and the coin-flip trials); `prime_coefficient` is the per-prime twin of
  `ecurve._zeta_values`. The independent checks of the table are in
  `tests/test_ecurve.py`: `brute_count` enumerates every pair (x, y), and
  `scanned_bad_prime_coefficient` reads the reduction type off the
  singular point.
* `measurement_probabilities` and `measure_qubit`: one state's Born weights
  and one sampled collapse, through `qstate._p1` and `qstate._collapse`.
  They read out the chained rung circuit that guards the clock-sync ladder
  (`clocksync._ladder_p1`), build the per-state twins of
  `teleport.teleport_state` and `teleport.teleport_index`, and are the
  single-row reference of `_collapse` on a stack.
* `teleport_branches`: all four measurement branches of a teleport run,
  read off the Bell frame without sampling and keyed by the (bit_z, bit_x)
  tuple that `teleport.teleport_state` returns, the exact view of that run.
* `stacked_teleport_index`: every bit of an integer teleported as one stack
  of basis-state frames through `teleport._measure`, then read out with
  `qstate._collapse`: the twin of the threshold table behind
  `teleport.teleport_index`.
* `CoinedWalkState`, `uniform_superposition`, `position_probabilities` and
  `step`: the complex walk, a unit-norm state checked at every step, its
  uniform start, its position marginal and one coin-then-shift step. Looped,
  they are the twin of the float64 walk loop behind `qwalk.walk_distribution`
  and `qwalk.success_probability_trace`.
* `brute_force_dlog`: the smallest discrete log by trying every exponent,
  the oracle of the log table behind `keyexchange.crack_classic_dh` and
  `keyexchange.pq_candidate_keys` (`keyexchange._discrete_log`).
"""
import math
from dataclasses import dataclass

import numpy as np

from qkeylab import broadcast, ecurve, qstate, qwalk, teleport
from qkeylab.errors import DomainError
from qkeylab.qstate import StateVector

# -- broadcast -------------------------------------------------------------------


def bit_at(source: broadcast.BroadcastSource, index: int) -> int:
    """Stream bit at `index` (deterministic in (seed, index)), 0 <= index < STREAM_BITS."""
    broadcast._check_index(index)
    digest = broadcast._block(source.seed, index >> 8)
    byte = digest[(index & 255) >> 3]
    return (byte >> (7 - (index & 7))) & 1


# -- ecurve ----------------------------------------------------------------------


def count_points(curve: ecurve.Curve, p: int) -> int:
    """#E(F_p) including the point at infinity, for an odd prime p (at a bad
    prime, with the singular point). Each x value contributes 2 points if
    f(x) is a nonzero square, 1 if it is zero, 0 otherwise; the is-a-square
    table is built from one squaring pass."""
    x = np.arange(p, dtype=np.int64)
    xx = x * x
    xx %= p
    is_square = np.zeros(p, dtype=bool)
    is_square[xx] = True
    xx += curve.a % p
    xx %= p
    xx *= x
    xx += curve.b % p
    xx %= p
    affine = 2 * int(is_square[xx].sum()) - int((xx == 0).sum())
    return affine + 1


def frobenius_trace(curve: ecurve.Curve, p: int) -> int:
    """a_p = p + 1 - #E(F_p); satisfies |a_p| <= 2*sqrt(p) (Hasse bound)."""
    return p + 1 - count_points(curve, p)


def prime_coefficient(curve: ecurve.Curve, p: int) -> int:
    """a(p) for a prime p: 0 at 2, otherwise p + 1 - #E(F_p) from the point
    count, which is the reduction type 0, 1 or -1 at a bad prime."""
    if p == 2:  # squaring is the identity on F_2: one y for each x
        return 0
    return frobenius_trace(curve, p)


# -- qstate ----------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective measurement: the outcome and its Born weight."""

    outcome: int
    probability: float


def measurement_probabilities(state: StateVector, qubit: int) -> tuple[float, float]:
    """Born-rule probabilities (p0, p1) for measuring `qubit`."""
    qstate._check_targets(state, (qubit,))
    p1 = float(qstate._p1(state.amplitudes, qubit))
    return 1.0 - p1, p1


def measure_qubit(
    state: StateVector, qubit: int, rng: np.random.Generator
) -> tuple[MeasurementRecord, StateVector]:
    """Sample a projective measurement of `qubit`, collapsing the state."""
    qstate._check_targets(state, (qubit,))
    ones, p_outcome, amps = qstate._collapse(state.amplitudes, qubit, rng.random())
    record = MeasurementRecord(int(ones), float(p_outcome))
    return record, StateVector(state.n_qubits, amps)


# -- teleport --------------------------------------------------------------------


def teleport_branches(input_state: StateVector):
    """All four measurement branches, exactly (no sampling), in the order
    (0, 0), (0, 1), (1, 0), (1, 1) of (bit_z, bit_x): one tuple
    ((bit_z, bit_x), probability, receiver_before, receiver_after) per branch.

    Every branch has probability 1/4, the receiver's corrected state always
    matches the input, and the receiver's uncorrected states average to the
    maximally mixed state.
    """
    state = teleport._bell_frame(input_state)
    branches = []
    for bit_z in (0, 1):
        for bit_x in (0, 1):
            sub = teleport._receiver_state(state.amplitudes, bit_z, bit_x)
            prob = float((np.abs(sub) ** 2).sum())
            before = StateVector(1, sub / np.sqrt(prob))
            after = StateVector(1, teleport._correct(before.amplitudes, bit_z, bit_x))
            branches.append(((bit_z, bit_x), prob, before, after))
    return tuple(branches)


def stacked_teleport_index(n: int, bit_width: int, rng: np.random.Generator):
    """`teleport.teleport_index` on valid arguments, sampled through the kernels:
    `_measure` on bit_width rows gathered from `teleport._BASIS_FRAMES`, then one
    collapse of each corrected receiver. Returns the received integer and the
    (bit_width, 2) uint8 rows of (bit_z, bit_x)."""
    draws = rng.random((bit_width, 3))
    n_bytes = np.frombuffer(n.to_bytes((bit_width + 7) // 8, "little"), np.uint8)
    bits = np.unpackbits(n_bytes, bitorder="little")[:bit_width]
    bit_z, bit_x, receiver = teleport._measure(teleport._BASIS_FRAMES[bits], draws)
    received, _, _ = qstate._collapse(receiver, 0, draws[:, 2])
    value = int.from_bytes(np.packbits(received, bitorder="little").tobytes(), "little")
    return value, np.stack((bit_z, bit_x), axis=1).astype(np.uint8)


# -- qwalk -----------------------------------------------------------------------


@dataclass(frozen=True)
class CoinedWalkState:
    """Unit-norm amplitude vector over the graph's arcs."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        norm = math.sqrt(float(np.sum(amps.real**2 + amps.imag**2)))
        if abs(norm - 1.0) > 1e-9:
            raise DomainError(f"walk state norm {norm} deviates from 1")


def uniform_superposition(graph: qwalk.Graph) -> CoinedWalkState:
    amps = np.full(graph.n_arcs, 1.0 / math.sqrt(graph.n_arcs), dtype=complex)
    return CoinedWalkState(amps)


def position_probabilities(state: CoinedWalkState, graph: qwalk.Graph) -> np.ndarray:
    weights = np.abs(state.amplitudes) ** 2
    return np.add.reduceat(weights, graph.arc_offsets)


def step(state: CoinedWalkState, graph: qwalk.Graph) -> CoinedWalkState:
    """One validated coin-then-shift step of a complex state."""
    amps = state.amplitudes
    if amps.shape != (graph.n_arcs,):
        raise DomainError(f"state has {amps.shape} amplitudes, graph has {graph.n_arcs} arcs")
    return CoinedWalkState(qwalk._apply_coin(amps, graph).take(graph.arc_reversal))


# -- keyexchange -----------------------------------------------------------------


def brute_force_dlog(p: int, g: int, target: int) -> int | None:
    """Smallest e with g^e == target mod p, or None if target is outside <g>."""
    value = 1
    for e in range(p - 1):
        if value == target:
            return e
        value = value * g % p
    return None
