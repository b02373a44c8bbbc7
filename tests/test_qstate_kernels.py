"""The (..., high, 2, low) view kernels of `qstate` against slow, obvious twins.

The reference functions below are the index-mask kernels the view replaced:
each derives the positions of qubit q from a fresh `np.arange` of the basis
indices. They stay here as the oracle for the fast path. A stack of states
along leading batch axes must give each state's own result, bit for bit, and
one `apply_gate` call over a gate sequence must equal the single-gate calls
folded in order.
"""
import itertools
import math

import numpy as np
import pytest

from qkeylab import qstate
from qkeylab.errors import DomainError
from qkeylab.qstate import StateVector, cnot, h, new_basis_state, phase, x, z
from qkeylab.teleport import teleport_state
from oracles import measure_qubit, measurement_probabilities, teleport_branches

TOL = 1e-12


def ref_apply_single(amps, n, qubit, matrix):
    axis = n - 1 - qubit
    tensor = np.moveaxis(amps.reshape([2] * n), axis, -1)
    tensor = tensor @ matrix.T
    return np.moveaxis(tensor, -1, axis).reshape(-1)


def ref_apply_cnot(amps, control, target):
    idx = np.arange(amps.size)
    src = ((idx >> control) & 1 == 1) & ((idx >> target) & 1 == 0)
    base = idx[src]
    flipped = base | (1 << target)
    out = amps.copy()
    out[base], out[flipped] = amps[flipped], amps[base]
    return out


def ref_p1(amps, qubit):
    idx = np.arange(amps.size)
    weights = np.abs(amps) ** 2
    return float(weights[(idx >> qubit) & 1 == 1].sum())


def ref_collapse(amps, qubit, outcome, p_outcome):
    idx = np.arange(amps.size)
    keep = ((idx >> qubit) & 1) == outcome
    return np.where(keep, amps, 0.0) / math.sqrt(p_outcome)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, raw / np.linalg.norm(raw))


class FixedDraw:
    """Generator stub: rng.random() returns u, so u=0 forces outcome 1, u=1 outcome 0."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


SIZES = range(1, 7)


@pytest.mark.parametrize("n", SIZES)
def test_single_qubit_gates_match_reference(n):
    state = random_state(n, 100 + n)
    before = state.amplitudes.copy()
    theta = 0.7 + n
    for qubit in range(n):
        for gate in (h(qubit), x(qubit), z(qubit), phase(theta, qubit)):
            matrix = {
                "H": qstate._H_MATRIX,
                "X": qstate._X_MATRIX,
                "Z": qstate._Z_MATRIX,
                "PHASE": np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]]),
            }[gate.kind]
            got = qstate.apply_gate(state, gate).amplitudes
            want = ref_apply_single(state.amplitudes, n, qubit, matrix)
            np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    np.testing.assert_array_equal(state.amplitudes, before)


@pytest.mark.parametrize("n", SIZES)
def test_single_qubit_kernel_matches_reference_on_asymmetric_matrices(n):
    # Every gate of the fixed set is a symmetric matrix; a random one also
    # tells the matrix from its transpose.
    rng = np.random.default_rng(500 + n)
    state = random_state(n, 500 + n)
    for qubit in range(n):
        matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = qstate._apply_single(state.amplitudes, qubit, matrix)
        want = ref_apply_single(state.amplitudes, n, qubit, matrix)
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("n", range(2, 7))
def test_cnot_matches_reference_on_every_ordered_pair(n):
    state = random_state(n, 200 + n)
    before = state.amplitudes.copy()
    for control, target in itertools.permutations(range(n), 2):
        got = qstate.apply_gate(state, cnot(control, target)).amplitudes
        want = ref_apply_cnot(state.amplitudes, control, target)
        np.testing.assert_array_equal(got, want)  # a permutation: exact
    np.testing.assert_array_equal(state.amplitudes, before)


@pytest.mark.parametrize("n", SIZES)
def test_measurement_probabilities_match_reference(n):
    state = random_state(n, 300 + n)
    for qubit in range(n):
        p0, p1 = measurement_probabilities(state, qubit)
        assert abs(p1 - ref_p1(state.amplitudes, qubit)) <= TOL
        assert abs(p0 + p1 - 1.0) <= TOL


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("outcome", (0, 1))
def test_collapse_matches_reference(n, outcome):
    state = random_state(n, 400 + n)
    before = state.amplitudes.copy()
    for qubit in range(n):
        record, after = measure_qubit(state, qubit, FixedDraw(1.0 - outcome))
        assert record.outcome == outcome
        p1 = ref_p1(state.amplitudes, qubit)
        p_outcome = p1 if outcome else 1.0 - p1
        assert abs(record.probability - p_outcome) <= TOL
        want = ref_collapse(state.amplitudes, qubit, outcome, record.probability)
        np.testing.assert_allclose(after.amplitudes, want, rtol=0, atol=TOL)
    np.testing.assert_array_equal(state.amplitudes, before)


@pytest.mark.parametrize("n", range(1, 5))
def test_stacked_kernels_equal_the_per_row_results_bitwise(n):
    stack = np.stack([random_state(n, 600 + 10 * n + i).amplitudes for i in range(6)])
    stack = stack.reshape(2, 3, 1 << n)
    before = stack.copy()
    rows = stack.reshape(-1, 1 << n)
    matrices = (
        qstate._H_MATRIX,
        qstate._X_MATRIX,
        qstate._Z_MATRIX,
        np.array([[1.0, 0.0], [0.0, np.exp(1j * (0.7 + n))]]),
    )
    draws = np.linspace(0.1, 0.9, 6).reshape(2, 3)
    seen = set()

    def per_row(kernel, *args):
        return np.stack([kernel(row, *args) for row in rows]).reshape(stack.shape)

    for qubit in range(n):
        for matrix in matrices:
            got = qstate._apply_single(stack, qubit, matrix)
            assert got.tobytes() == per_row(qstate._apply_single, qubit, matrix).tobytes()
        for target in set(range(n)) - {qubit}:
            got = qstate._apply_cnot(stack, qubit, target)
            assert got.tobytes() == per_row(qstate._apply_cnot, qubit, target).tobytes()
        ones, p_outcome, collapsed = qstate._collapse(stack, qubit, draws)
        seen.update(ones.reshape(-1).tolist())
        for i, (row, draw) in enumerate(zip(rows, draws.reshape(-1))):
            row_ones, row_p, row_collapsed = qstate._collapse(row, qubit, draw)
            assert row_ones == ones.reshape(-1)[i]
            assert row_p == p_outcome.reshape(-1)[i]
            assert row_collapsed.tobytes() == collapsed.reshape(rows.shape)[i].tobytes()
    assert seen == {False, True}
    np.testing.assert_array_equal(stack, before)


def test_teleported_receiver_is_the_sampled_branch_corrected():
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(200):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        payload = StateVector(1, raw / np.linalg.norm(raw))
        sampled, receiver = teleport_state(payload, rng)
        after = next(after for outcome, _, _, after in teleport_branches(payload) if outcome == sampled)
        np.testing.assert_allclose(receiver.amplitudes, after.amplitudes, rtol=0, atol=TOL)
        seen.add(sampled)
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def random_gates(n, count, rng):
    kinds = ("H", "X", "Z", "PHASE") + (("CNOT",) if n > 1 else ())
    gates = []
    for kind in rng.choice(kinds, size=count):
        if kind == "CNOT":
            control, target = rng.choice(n, size=2, replace=False).tolist()
            gates.append(cnot(control, target))
        elif kind == "PHASE":
            gates.append(phase(float(rng.uniform(-10.0, 10.0)), int(rng.integers(n))))
        else:
            gates.append({"H": h, "X": x, "Z": z}[kind](int(rng.integers(n))))
    return gates


@pytest.mark.parametrize("n", range(1, 5))
def test_gate_sequence_equals_single_gate_calls_folded_in_order(n):
    rng = np.random.default_rng(700 + n)
    seen = set()
    for trial in range(60):
        state = random_state(n, 800 + 100 * n + trial)
        before = state.amplitudes.copy()
        gates = random_gates(n, int(rng.integers(0, 7)), rng)
        want = state
        for gate in gates:
            want = qstate.apply_gate(want, gate)
        got = qstate.apply_gate(state, *gates)
        assert got.n_qubits == n
        assert np.array_equal(got.amplitudes, want.amplitudes)
        np.testing.assert_array_equal(state.amplitudes, before)
        seen.update(gate.kind for gate in gates)
        seen.add(len(gates))
    assert seen >= {0, 6, "H", "X", "Z", "PHASE"} | ({"CNOT"} if n > 1 else set())


def test_a_bad_target_anywhere_in_the_sequence_fails_before_any_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("a kernel ran before every gate was checked")

    monkeypatch.setattr(qstate, "_apply", refuse)
    state = new_basis_state(2, 0)
    for last in (h(2), cnot(0, 2), cnot(3, 1)):
        with pytest.raises(DomainError, match="out of range"):
            qstate.apply_gate(state, h(0), cnot(0, 1), phase(0.3, 1), last)


@pytest.mark.parametrize("count", range(0, 7))
def test_one_statevector_is_built_per_call(count, monkeypatch):
    state = random_state(3, 900 + count)
    gates = random_gates(3, count, np.random.default_rng(count))
    built = []
    check = qstate.StateVector.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(qstate.StateVector, "__post_init__", counting)
    out = qstate.apply_gate(state, *gates)
    assert len(built) == 1 and built[0] is out
    if count == 0:
        assert out is not state and np.array_equal(out.amplitudes, state.amplitudes)
