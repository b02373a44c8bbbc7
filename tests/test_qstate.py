import numpy as np
import pytest

from qkeylab.errors import DomainError, ResourceError
from qkeylab import qstate
from qkeylab.qstate import (
    GateSpec,
    StateVector,
    apply_gate,
    fidelity,
    new_basis_state,
)
from oracles import MeasurementRecord, measure_qubit, measurement_probabilities

INV_SQRT2 = 1 / np.sqrt(2)


def random_state(rng, n_qubits):
    raw = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, raw / np.linalg.norm(raw))


class TestBasisStates:
    def test_single_qubit_zero(self):
        sv = new_basis_state(1, 0)
        np.testing.assert_allclose(sv.amplitudes, [1, 0])

    def test_two_qubit_index_three(self):
        sv = new_basis_state(2, 3)
        np.testing.assert_allclose(sv.amplitudes, [0, 0, 0, 1])

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            new_basis_state(3, 8)

    def test_qubit_cap(self):
        with pytest.raises(ResourceError):
            new_basis_state(qstate.MAX_QUBITS + 1, 0)

    def test_norm_validated_on_construction(self):
        with pytest.raises(DomainError):
            StateVector(1, np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            StateVector(2, np.array([1.0, 0.0]))


class TestGateSpecs:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            GateSpec("T", (0,))

    def test_cnot_arity(self):
        with pytest.raises(DomainError):
            GateSpec("CNOT", (0,))
        with pytest.raises(DomainError):
            GateSpec("CNOT", (1, 1))

    def test_phase_needs_finite_angle(self):
        with pytest.raises(DomainError):
            GateSpec("PHASE", (0,))
        with pytest.raises(DomainError):
            GateSpec("PHASE", (0,), float("inf"))


class TestGates:
    def test_hadamard_on_zero(self):
        sv = apply_gate(new_basis_state(1, 0), qstate.h(0))
        np.testing.assert_allclose(sv.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_cnot_flips_target_when_control_set(self):
        # control qubit 0 set (index 1) -> target qubit 1 flips (index 3)
        sv = apply_gate(new_basis_state(2, 1), qstate.cnot(0, 1))
        np.testing.assert_allclose(sv.amplitudes, [0, 0, 0, 1])

    def test_cnot_identity_when_control_clear(self):
        sv = apply_gate(new_basis_state(2, 2), qstate.cnot(0, 1))
        np.testing.assert_allclose(sv.amplitudes, [0, 0, 1, 0])

    def test_phase_acts_on_one_component(self):
        sv = apply_gate(new_basis_state(1, 0), qstate.h(0))
        sv = apply_gate(sv, qstate.phase(np.pi / 3, 0))
        np.testing.assert_allclose(
            sv.amplitudes, [INV_SQRT2, INV_SQRT2 * np.exp(1j * np.pi / 3)]
        )

    def test_invalid_target(self):
        with pytest.raises(DomainError):
            apply_gate(new_basis_state(2, 0), qstate.h(2))

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_involutions_restore_state(self, qubits):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sv = random_state(rng, qubits)
            theta = float(rng.uniform(-np.pi, np.pi))
            pairs = [
                (qstate.x(0), qstate.x(0)),
                (qstate.h(0), qstate.h(0)),
                (qstate.z(0), qstate.z(0)),
                (qstate.phase(theta, 0), qstate.phase(-theta, 0)),
            ]
            if qubits >= 2:
                pairs.append((qstate.cnot(0, 1), qstate.cnot(0, 1)))
            for gate, inverse in pairs:
                out = apply_gate(apply_gate(sv, gate), inverse)
                np.testing.assert_allclose(out.amplitudes, sv.amplitudes, atol=1e-12)

    def test_norm_preserved_along_random_sequences(self):
        rng = np.random.default_rng(7)
        for n_qubits in (2, 6, 10):
            sv = random_state(rng, n_qubits)
            for _ in range(100):
                kind = rng.choice(["H", "X", "Z", "PHASE", "CNOT"])
                q = int(rng.integers(n_qubits))
                if kind == "CNOT":
                    q2 = int((q + 1 + rng.integers(n_qubits - 1)) % n_qubits)
                    gate = qstate.cnot(q, q2)
                elif kind == "PHASE":
                    gate = qstate.phase(float(rng.uniform(-np.pi, np.pi)), q)
                else:
                    gate = GateSpec(str(kind), (q,))
                sv = apply_gate(sv, gate)
                assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-9


class TestMeasurement:
    def test_basis_state_deterministic(self):
        rng = np.random.default_rng(0)
        record, post = measure_qubit(new_basis_state(1, 1), 0, rng)
        assert record == MeasurementRecord(outcome=1, probability=1.0)
        np.testing.assert_allclose(post.amplitudes, [0, 1])

    def test_plus_state_frequency(self):
        rng = np.random.default_rng(123)
        plus = apply_gate(new_basis_state(1, 0), qstate.h(0))
        zeros = sum(
            measure_qubit(plus, 0, rng)[0].outcome == 0 for _ in range(10_000)
        )
        assert 0.48 <= zeros / 10_000 <= 0.52

    def test_entangled_pair_outcomes_agree(self):
        # Brute-force view of the 4-dim state: only |00> and |11> carry weight,
        # so the two measurements must always agree.
        rng = np.random.default_rng(5)
        bell = new_basis_state(2, 0)
        for gate in (qstate.h(0), qstate.cnot(0, 1)):
            bell = apply_gate(bell, gate)
        np.testing.assert_allclose(np.abs(bell.amplitudes) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)
        for _ in range(200):
            first, collapsed = measure_qubit(bell, 0, rng)
            second, _ = measure_qubit(collapsed, 1, rng)
            assert first.outcome == second.outcome

    def test_probability_matches_born_rule(self):
        rng = np.random.default_rng(77)
        sv = random_state(rng, 3)
        for qubit in range(3):
            p0, p1 = measurement_probabilities(sv, qubit)
            idx = np.arange(8)
            expected = float((np.abs(sv.amplitudes) ** 2)[(idx >> qubit) & 1 == 1].sum())
            assert p1 == pytest.approx(expected, abs=1e-12)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_sampled_frequency_within_three_sigma(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            sv = random_state(rng, 3)
            qubit = int(rng.integers(3))
            _, p1 = measurement_probabilities(sv, qubit)
            trials = 10_000
            ones = sum(measure_qubit(sv, qubit, rng)[0].outcome for _ in range(trials))
            sigma = np.sqrt(max(p1 * (1 - p1), 1e-12) / trials)
            assert abs(ones / trials - p1) <= 3 * sigma + 1e-9

    def test_collapse_renormalizes(self):
        rng = np.random.default_rng(13)
        sv = random_state(rng, 4)
        _, post = measure_qubit(sv, 2, rng)
        assert abs(np.linalg.norm(post.amplitudes) - 1.0) < 1e-12


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(new_basis_state(1, 0), new_basis_state(1, 0)) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert fidelity(new_basis_state(1, 0), new_basis_state(1, 1)) == pytest.approx(0.0)

    def test_half_overlap(self):
        plus = apply_gate(new_basis_state(1, 0), qstate.h(0))
        # |<0|+>|^2 = |1/sqrt2|^2 = 0.5 by direct inner-product arithmetic
        assert fidelity(new_basis_state(1, 0), plus) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            fidelity(new_basis_state(1, 0), new_basis_state(2, 0))

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(3)
        sv = random_state(rng, 2)
        rotated = StateVector(2, sv.amplitudes * np.exp(1j * 0.7))
        assert fidelity(sv, rotated) == pytest.approx(1.0)


class TestZeroBranchGuard:
    def test_sampling_a_vanishing_branch_is_an_internal_error(self):
        # A stub generator that insists on the (essentially) zero branch.
        from qkeylab.errors import InternalError

        class AlwaysOne:
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        eps = 1e-10
        sv = StateVector(1, np.array([np.sqrt(1 - eps**2), eps]))
        with pytest.raises(InternalError):
            measure_qubit(sv, 0, AlwaysOne())
