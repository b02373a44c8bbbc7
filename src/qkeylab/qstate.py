"""Dense statevector simulation over a handful of qubits.

Conventions, fixed once for the whole package:

* Qubit k is the k-th least significant bit of the basis index, so on three
  qubits the basis state at amplitude index 5 is qubit0=1, qubit1=0, qubit2=1.
  `_halves` is the one place that applies this rule: it views the amplitudes
  as (..., high, 2, low), where [..., b, :] holds every amplitude whose qubit
  q reads b. Every gate and measurement kernel works through that view, so
  each one also runs on a stack of states along leading batch axes, row by
  row with the same arithmetic as on a single state.
* Operations are pure: they return fresh states and never mutate inputs.
* `apply_gate` checks a whole gate sequence up front and builds one `StateVector`.
* Randomness enters only as uniform draws that the caller passes to
  `_collapse`; the module holds no RNG state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, InternalError, ResourceError

MAX_QUBITS = 24

_NORM_ATOL = 1e-9
_ZERO_BRANCH = 1e-15

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
_Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)

GATE_KINDS = ("H", "X", "Z", "PHASE", "CNOT")


@dataclass(frozen=True)
class GateSpec:
    """A gate from the fixed set {H, X, Z, PHASE(theta), CNOT} plus targets."""

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise DomainError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind == "CNOT" else 1
        if len(self.targets) != arity:
            raise DomainError(f"{self.kind} takes {arity} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise DomainError(f"gate targets must be distinct, got {self.targets}")
        if any(t < 0 for t in self.targets):
            raise DomainError(f"gate targets must be non-negative, got {self.targets}")
        if self.kind == "PHASE":
            if self.theta is None or not math.isfinite(self.theta):
                raise DomainError(f"PHASE needs a finite angle, got {self.theta}")
        elif self.theta is not None:
            raise DomainError(f"{self.kind} takes no angle")


def h(qubit: int) -> GateSpec:
    return GateSpec("H", (qubit,))


def x(qubit: int) -> GateSpec:
    return GateSpec("X", (qubit,))


def z(qubit: int) -> GateSpec:
    return GateSpec("Z", (qubit,))


def phase(theta: float, qubit: int) -> GateSpec:
    return GateSpec("PHASE", (qubit,), theta)


def cnot(control: int, target: int) -> GateSpec:
    return GateSpec("CNOT", (control, target))


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over 2**n_qubits basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if self.n_qubits < 1:
            raise DomainError(f"need at least one qubit, got {self.n_qubits}")
        if amps.shape != (1 << self.n_qubits,):
            raise DomainError(
                f"amplitude vector has length {amps.shape}, expected {1 << self.n_qubits}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_ATOL:
            raise DomainError(f"state norm {norm} deviates from 1 beyond {_NORM_ATOL}")


def new_basis_state(n_qubits: int, basis_index: int) -> StateVector:
    """Computational basis state |basis_index> on n_qubits."""
    if n_qubits < 1:
        raise DomainError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise ResourceError(f"{n_qubits} qubits exceeds the cap of {MAX_QUBITS}")
    if not 0 <= basis_index < (1 << n_qubits):
        raise DomainError(f"basis index {basis_index} out of range for {n_qubits} qubit(s)")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[basis_index] = 1.0
    return StateVector(n_qubits, amps)


def _check_targets(state: StateVector, targets: tuple[int, ...]):
    for t in targets:
        if not 0 <= t < state.n_qubits:
            raise DomainError(f"qubit {t} out of range for {state.n_qubits}-qubit state")


def _halves(amps: np.ndarray, qubit: int) -> np.ndarray:
    """View `amps` as (..., high, 2, low); [..., b, :] holds the amplitudes where `qubit` reads b."""
    return amps.reshape(*amps.shape[:-1], -1, 2, 1 << qubit)


def _apply_single(amps: np.ndarray, qubit: int, matrix: np.ndarray) -> np.ndarray:
    return (matrix @ _halves(amps, qubit)).reshape(amps.shape)


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    # The control = 1 half is a register one qubit smaller: the qubits above
    # the control move down by one. X on its target swaps the target's halves.
    out = amps.copy()
    ones = _halves(out, control)[..., 1, :]
    inner = _halves(ones.reshape(*ones.shape[:-2], -1), target - (target > control))
    ones[...] = inner[..., ::-1, :].reshape(ones.shape)
    return out


def _apply(amps: np.ndarray, gate: GateSpec) -> np.ndarray:
    """The gate's unitary applied to each state along the last axis of `amps`."""
    if gate.kind == "CNOT":
        return _apply_cnot(amps, gate.targets[0], gate.targets[1])
    if gate.kind == "H":
        matrix = _H_MATRIX
    elif gate.kind == "X":
        matrix = _X_MATRIX
    elif gate.kind == "Z":
        matrix = _Z_MATRIX
    else:
        matrix = np.array([[1.0, 0.0], [0.0, np.exp(1j * gate.theta)]])
    return _apply_single(amps, gate.targets[0], matrix)


def apply_gate(state: StateVector, *gates: GateSpec) -> StateVector:
    """Return U_k ... U_1|state> for gates U_1 ... U_k in order; no gates is the identity.

    Every gate is checked against the state before the first kernel runs, and
    only the result is built, and norm-checked, as a `StateVector`."""
    for gate in gates:
        _check_targets(state, gate.targets)
    return StateVector(state.n_qubits, reduce(_apply, gates, state.amplitudes))


def _p1(amps: np.ndarray, qubit: int) -> np.ndarray:
    """Born weight of `qubit` reading 1 in each state along the last axis."""
    weights = np.abs(_halves(amps, qubit)[..., 1, :]) ** 2
    # A sum of squares is >= 0; rounding can take it past 1.
    return np.minimum(weights.reshape(*amps.shape[:-1], -1).sum(axis=-1), 1.0)


def _collapse(
    amps: np.ndarray, qubit: int, draws: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projective measurement of `qubit` in each state along the last axis.

    A state reads 1 when its uniform draw falls below its p1. Returns the
    outcomes (bool), their Born weights and the collapsed, renormalized states.
    """
    p1 = _p1(amps, qubit)
    ones = draws < p1
    p_outcome = np.where(ones, p1, 1.0 - p1)
    if (p_outcome < _ZERO_BRANCH).any():
        raise InternalError(
            f"sampled a branch of probability {p_outcome.min()}; sampling is inconsistent"
        )
    out = amps / np.sqrt(p_outcome)[..., None]
    halves = _halves(out, qubit)
    halves[..., 0, :][ones] = 0.0
    halves[..., 1, :][~ones] = 0.0
    return ones, p_outcome, out


def fidelity(s1: StateVector, s2: StateVector) -> float:
    """|<s1|s2>|^2, the squared overlap of two pure states."""
    if s1.n_qubits != s2.n_qubits:
        raise DomainError(f"qubit counts differ: {s1.n_qubits} vs {s2.n_qubits}")
    return float(abs(np.vdot(s1.amplitudes, s2.amplitudes)) ** 2)
