"""Single-qubit teleportation and an exact integer side channel built on it.

Register layout for a full run, fixed and relied on throughout: qubit 0
carries the payload state, qubit 1 is the sender's half of the entangled
pair, qubit 2 the receiver's half. The two classical measurement bits select
the receiver-side correction: X if the entangled-half bit is 1, then Z if the
payload-register bit is 1. The sender's payload qubit is collapsed by the
joint measurement, so no copy survives on the sending side.

Every run starts from one circuit, the Bell frame: it makes the pair and
rotates qubits 0 and 1 so that the joint measurement reads them in the
computational basis. One sampler, `_measure`, collapses qubit 1, then qubit
0, of a stack of frames and corrects each receiver. `teleport_state` runs it
on a stack of one. `teleport_index` compares its draws with 14 P(1) thresholds,
which `_measure` leaves at import on every branch of `_BASIS_FRAMES`, the frames
of |0> and |1>; its twin in `tests/oracles.py` samples those frames as a stack.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, InternalError, ResourceError
from .qstate import (
    _NORM_ATOL,
    _ZERO_BRANCH,
    StateVector,
    _apply,
    _collapse,
    _p1,
    apply_gate,
    cnot,
    h,
    new_basis_state,
    x,
    z,
)

# teleport_index holds (bit_width, 3) float64 draws and a few 1-D arrays: < 64 B per bit.
MAX_TELEPORT_BITS = 1 << 16

_BELL_FRAME = (h(1), cnot(1, 2), cnot(0, 1), h(0))


def _bell_frame(input_state: StateVector) -> StateVector:
    """The payload on qubit 0 and the pair on qubits 1 and 2, rotated into the
    joint-measurement frame: H(1), CNOT(1 -> 2) make the pair, then
    CNOT(0 -> 1), H(0) turn the Bell basis of qubits 0 and 1 into the
    computational one."""
    if input_state.n_qubits != 1:
        raise DomainError("teleportation sends exactly one qubit at a time")
    amps = np.zeros(8, dtype=complex)
    amps[:2] = input_state.amplitudes
    return apply_gate(StateVector(3, amps), *_BELL_FRAME)


_BASIS_FRAMES = np.stack([_bell_frame(new_basis_state(1, b)).amplitudes for b in (0, 1)])
_BASIS_FRAMES.flags.writeable = False


def _receiver_state(amps: np.ndarray, bit_z, bit_x) -> np.ndarray:
    """Qubit 2's amplitudes in the branch (bit_z, bit_x), per state along the last axis."""
    base = np.asarray(bit_z + 2 * bit_x)
    return np.take_along_axis(amps, base[..., None] + np.array([0, 4]), axis=-1)


def _correct(receivers: np.ndarray, bit_z, bit_x) -> np.ndarray:
    """The receiver-side correction per state along the last axis: X if bit_x, then Z if bit_z."""
    receivers = np.where(np.asarray(bit_x)[..., None], _apply(receivers, x(0)), receivers)
    return np.where(np.asarray(bit_z)[..., None], _apply(receivers, z(0)), receivers)


def _measure(frames: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sample a (k, 8) stack of Bell frames: row i collapses qubit 1 on draws[i, 0], then
    qubit 0 on draws[i, 1]. Returns bit_z, bit_x and the corrected (k, 2) receivers."""
    bit_x, _, frames = _collapse(frames, 1, draws[:, 0])
    bit_z, _, frames = _collapse(frames, 0, draws[:, 1])
    receivers = _receiver_state(frames, bit_z, bit_x)
    deviation = abs(np.linalg.norm(receivers, axis=-1) - 1.0).max()
    if deviation > _NORM_ATOL:
        raise InternalError(f"a receiver norm deviates from 1 by {deviation} > {_NORM_ATOL}")
    return bit_z, bit_x, _correct(receivers, bit_z, bit_x)


def _branch_thresholds(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(1) of qubit 1 by payload, of qubit 0 by 2*payload + bit_x and of the corrected
    receiver by 4*payload + 2*bit_x + bit_z, on a (2, 8) stack of payload frames. Draws of
    2.0 and -1.0 force each reading; a drawable branch below _ZERO_BRANCH is refused."""
    payload, bit_x, bit_z = np.indices((2, 2, 2)).reshape(3, 8)
    forced = np.array([2.0, -1.0])[np.stack((bit_x, bit_z), axis=1)]
    _, _, after_x = _collapse(frames[payload], 1, forced[:, 0])
    _, _, receivers = _measure(frames[payload], forced)
    thresholds = _p1(frames, 1), _p1(after_x, 0)[::2], _p1(receivers, 0)
    branch = np.concatenate([*thresholds, *(1.0 - t for t in thresholds)])
    if ((0.0 < branch) & (branch < _ZERO_BRANCH)).any():
        raise InternalError(f"a teleport branch has probability {branch[branch > 0].min()}")
    return thresholds


_QUBIT1_P1, _QUBIT0_P1, _READOUT_P1 = _branch_thresholds(_BASIS_FRAMES)


def teleport_state(
    input_state: StateVector, rng: np.random.Generator
) -> tuple[tuple[int, int], StateVector]:
    """Teleport a single-qubit state; returns the outcome bits (bit_z, bit_x)
    and the replica. The two bits are all a run publishes: they are what
    `keyexchange.BroadcastRun.teleport` logs per qubit."""
    frames = _bell_frame(input_state).amplitudes[None]
    bit_z, bit_x, receivers = _measure(frames, rng.random((1, 2)))
    return (int(bit_z[0]), int(bit_x[0])), StateVector(1, receivers[0])


def teleport_index(
    n: int, bit_width: int, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Convey the integer n exactly by teleporting bit_width basis-state qubits.

    Bit k of n (LSB-0) rides qubit k's run. The draws are `rng.random((bit_width, 3))`:
    row k holds bit k's qubit-1 draw, its qubit-0 draw and the receiver's readout draw,
    the order of `teleport_state` followed by a readout of the replica, bit by bit, and
    each is compared with its branch's threshold, the P(1) `_measure` computes there.
    Each teleported qubit is measured on the receiving side after correction,
    so the reassembled integer equals n whenever every single-qubit run has
    unit fidelity, which it does here. bit_width is capped at
    MAX_TELEPORT_BITS, checked before any draw.
    Returns the received integer and the (bit_width, 2) uint8 outcome array:
    row k is bit k's (bit_z, bit_x), the pair `keyexchange.BroadcastRun.teleport`
    publishes for that bit.
    """
    if bit_width < 1:
        raise DomainError(f"bit width must be >= 1, got {bit_width}")
    if bit_width > MAX_TELEPORT_BITS:
        raise ResourceError(f"bit width {bit_width} exceeds the cap {MAX_TELEPORT_BITS}")
    if not 0 <= n < (1 << bit_width):
        raise DomainError(f"{n} does not fit in {bit_width} bit(s)")
    draws = rng.random((bit_width, 3))
    n_bytes = np.frombuffer(n.to_bytes((bit_width + 7) // 8, "little"), np.uint8)
    bits = np.unpackbits(n_bytes, bitorder="little")[:bit_width]
    bit_x = draws[:, 0] < _QUBIT1_P1[bits]
    bit_z = draws[:, 1] < _QUBIT0_P1[2 * bits + bit_x]
    received = draws[:, 2] < _READOUT_P1[4 * bits + 2 * bit_x + bit_z]
    value = int.from_bytes(np.packbits(received, bitorder="little").tobytes(), "little")
    return value, np.stack((bit_z, bit_x), axis=1).astype(np.uint8)
