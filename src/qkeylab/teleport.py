"""Single-qubit teleportation and an exact integer side channel built on it.

Register layout for a full run, fixed and relied on throughout: qubit 0
carries the payload state, qubit 1 is the sender's half of the entangled
pair, qubit 2 the receiver's half. The two classical measurement bits select
the receiver-side correction: X if the entangled-half bit is 1, then Z if the
payload-register bit is 1. The sender's payload qubit is collapsed by the
joint measurement, so no copy survives on the sending side.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .qstate import (
    StateVector,
    apply_gate,
    cnot,
    fidelity,
    h,
    measure_qubit,
    measurement_probabilities,
    new_basis_state,
    x,
    z,
)

_ZERO_ATOL = 1e-12


@dataclass(frozen=True)
class BellOutcome:
    """The two classical bits produced by a joint two-qubit measurement."""

    bit_z: int
    bit_x: int

    def __post_init__(self):
        if self.bit_z not in (0, 1) or self.bit_x not in (0, 1):
            raise DomainError(f"outcome bits must be 0/1, got {self}")


@dataclass(frozen=True)
class TeleportTranscript:
    outcome: BellOutcome
    corrections_applied: tuple[str, ...]
    fidelity: float


@dataclass(frozen=True)
class TeleportBranch:
    """One of the four measurement branches, enumerated exactly."""

    outcome: BellOutcome
    probability: float
    receiver_before: StateVector
    receiver_after: StateVector


def make_epr(state: StateVector, q1: int, q2: int) -> StateVector:
    """Entangle qubits q1, q2 (both currently |0>) into (|00>+|11>)/sqrt(2)."""
    if q1 == q2:
        raise DomainError("EPR pair needs two distinct qubits")
    for q in (q1, q2):
        if measurement_probabilities(state, q)[1] > _ZERO_ATOL**2:
            raise DomainError(f"qubits {q1} and {q2} must both be in |0> before pairing")
    state = apply_gate(state, h(q1))
    return apply_gate(state, cnot(q1, q2))


def bell_measure(
    state: StateVector, q_target: int, q_epr: int, rng: np.random.Generator
) -> tuple[BellOutcome, StateVector]:
    """Joint measurement of (q_target, q_epr) in the entangled basis.

    Implemented as CNOT(q_target -> q_epr), H(q_target), then measuring both
    qubits in the computational basis.
    """
    if q_target == q_epr:
        raise DomainError("joint measurement needs two distinct qubits")
    state = apply_gate(state, cnot(q_target, q_epr))
    state = apply_gate(state, h(q_target))
    rec_x, state = measure_qubit(state, q_epr, rng)
    rec_z, state = measure_qubit(state, q_target, rng)
    return BellOutcome(bit_z=rec_z.outcome, bit_x=rec_x.outcome), state


def _embed_with_pair(input_state: StateVector) -> StateVector:
    """Payload on qubit 0, entangled pair on qubits 1 (sender) and 2 (receiver)."""
    if input_state.n_qubits != 1:
        raise DomainError("teleportation sends exactly one qubit at a time")
    amps = np.zeros(8, dtype=complex)
    amps[0] = input_state.amplitudes[0]
    amps[1] = input_state.amplitudes[1]
    state = StateVector(3, amps)
    return make_epr(state, 1, 2)


def _receiver_state(amps: np.ndarray, bit_z: int, bit_x: int) -> np.ndarray:
    base = bit_z + 2 * bit_x
    return np.array([amps[base], amps[base + 4]])


def _correct(receiver: StateVector, bit_z: int, bit_x: int) -> StateVector:
    """The receiver-side correction: X if bit_x is 1, then Z if bit_z is 1."""
    if bit_x:
        receiver = apply_gate(receiver, x(0))
    if bit_z:
        receiver = apply_gate(receiver, z(0))
    return receiver


def teleport_state(
    input_state: StateVector, rng: np.random.Generator
) -> tuple[TeleportTranscript, StateVector]:
    """Teleport a single-qubit state; returns the run record and the replica."""
    state = _embed_with_pair(input_state)
    outcome, state = bell_measure(state, 0, 1, rng)
    bit_z, bit_x = outcome.bit_z, outcome.bit_x
    receiver = StateVector(1, _receiver_state(state.amplitudes, bit_z, bit_x))
    receiver = _correct(receiver, bit_z, bit_x)
    corrections = ("X",) * bit_x + ("Z",) * bit_z
    return TeleportTranscript(outcome, corrections, fidelity(input_state, receiver)), receiver


def teleport_branches(input_state: StateVector) -> tuple[TeleportBranch, ...]:
    """Enumerate all four measurement branches exactly (no sampling).

    Useful for exhaustive checks: every branch has probability 1/4, the
    receiver's corrected state always matches the input, and the receiver's
    uncorrected states average to the maximally mixed state.
    """
    state = _embed_with_pair(input_state)
    state = apply_gate(state, cnot(0, 1))
    state = apply_gate(state, h(0))
    branches = []
    for bit_z in (0, 1):
        for bit_x in (0, 1):
            sub = _receiver_state(state.amplitudes, bit_z, bit_x)
            prob = float((np.abs(sub) ** 2).sum())
            before = StateVector(1, sub / np.sqrt(prob))
            after = _correct(before, bit_z, bit_x)
            branches.append(TeleportBranch(BellOutcome(bit_z, bit_x), prob, before, after))
    return tuple(branches)


def teleport_index(
    n: int, bit_width: int, rng: np.random.Generator
) -> tuple[int, list[TeleportTranscript]]:
    """Convey the integer n exactly by teleporting bit_width basis-state qubits.

    Bit k of n (LSB-0) rides qubit k's run. Each teleported qubit is measured
    on the receiving side after correction, so the reassembled integer equals
    n whenever every single-qubit run has unit fidelity, which it does here.
    Returns the received integer and the per-qubit run records, bit 0 first.
    """
    if bit_width < 1:
        raise DomainError(f"bit width must be >= 1, got {bit_width}")
    if not 0 <= n < (1 << bit_width):
        raise DomainError(f"{n} does not fit in {bit_width} bit(s)")
    value = 0
    records = []
    for k in range(bit_width):
        record, received = teleport_state(new_basis_state(1, (n >> k) & 1), rng)
        measured, _ = measure_qubit(received, 0, rng)
        value |= measured.outcome << k
        records.append(record)
    return value, records
