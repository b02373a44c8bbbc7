import numpy as np
import pytest

from qkeylab import teleport
from qkeylab.errors import DomainError
from qkeylab.qstate import StateVector, _apply, apply_gate, fidelity, new_basis_state, x, z
from qkeylab.teleport import (
    _BASIS_FRAMES,
    _BELL_FRAME,
    _bell_frame,
    teleport_index,
    teleport_state,
)
from oracles import measure_qubit, teleport_branches


def per_state_teleport(input_state, rng):
    """The slow, obvious twin of `teleport_state`: `measure_qubit` on qubit 1,
    then qubit 0, of the validated Bell frame, the receiver's two amplitudes
    sliced out of the collapsed state, and the corrections applied as gates."""
    rec_x, state = measure_qubit(_bell_frame(input_state), 1, rng)
    rec_z, state = measure_qubit(state, 0, rng)
    bit_z, bit_x = rec_z.outcome, rec_x.outcome
    base = bit_z + 2 * bit_x
    receiver = StateVector(1, state.amplitudes[[base, base + 4]])
    receiver = apply_gate(receiver, *(x(0),) * bit_x, *(z(0),) * bit_z)
    return (bit_z, bit_x), receiver


def per_qubit_teleport_index(n, bit_width, rng):
    """The slow, obvious twin of `teleport_index`: one per-state teleport run
    and one receiver readout per bit, bit 0 first. Returns the value and the
    (bit_width, 2) uint8 rows of (bit_z, bit_x); every run must have unit
    fidelity."""
    value = 0
    outcomes = []
    for k in range(bit_width):
        payload = new_basis_state(1, (n >> k) & 1)
        outcome, received = per_state_teleport(payload, rng)
        assert fidelity(payload, received) >= 1 - 1e-9
        measured, _ = measure_qubit(received, 0, rng)
        value |= measured.outcome << k
        outcomes.append(outcome)
    return value, np.array(outcomes, dtype=np.uint8)


def random_qubit(rng):
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    return StateVector(1, raw / np.linalg.norm(raw))


class TestBellMeasure:
    def test_outcome_bits_are_binary(self):
        rng = np.random.default_rng(9)
        (bit_z, bit_x), _ = teleport_state(new_basis_state(1, 0), rng)
        assert bit_z in (0, 1) and bit_x in (0, 1)

    def test_deterministic_under_seed(self):
        def sequence(seed):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(20):
                outcome, _ = teleport_state(random_qubit(rng), rng)
                out.append(outcome)
            return out

        assert sequence(42) == sequence(42)
        assert sequence(42) != sequence(43)

    def test_outcome_frequencies_uniform(self):
        rng = np.random.default_rng(100)
        counts = {}
        trials = 10_000
        for _ in range(trials):
            outcome, _ = teleport_state(random_qubit(rng), rng)
            counts[outcome] = counts.get(outcome, 0) + 1
        assert sorted(counts) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for count in counts.values():
            assert abs(count / trials - 0.25) <= 0.02


class TestTeleportState:
    def test_basis_zero(self):
        rng = np.random.default_rng(1)
        _, received = teleport_state(new_basis_state(1, 0), rng)
        assert fidelity(new_basis_state(1, 0), received) >= 1 - 1e-9

    def test_specific_superposition_all_branches(self):
        # 0.6|0> + 0.8i|1>: every measurement branch must reproduce it exactly.
        state = StateVector(1, np.array([0.6, 0.8j]))
        for _, probability, _, after in teleport_branches(state):
            assert probability == pytest.approx(0.25, abs=1e-12)
            assert fidelity(after, state) >= 1 - 1e-9

    def test_random_states_full_fidelity(self):
        rng = np.random.default_rng(8)
        worst = 1.0
        for _ in range(200):
            state = random_qubit(rng)
            _, received = teleport_state(state, rng)
            worst = min(worst, fidelity(state, received))
        assert worst >= 1 - 1e-9

    def test_receiver_average_is_maximally_mixed(self):
        # No-signalling: before corrections, the outcome-averaged receiver
        # density matrix is I/2 regardless of the payload.
        rng = np.random.default_rng(21)
        for _ in range(10):
            state = random_qubit(rng)
            rho = np.zeros((2, 2), dtype=complex)
            for _, probability, before, _ in teleport_branches(state):
                amps = before.amplitudes
                rho += probability * np.outer(amps, amps.conj())
            np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-9)

    def test_equals_the_per_state_twin(self):
        # Outcome bits, receiver bytes and the generator's next draw.
        pick = np.random.default_rng(31)
        payloads = [new_basis_state(1, 0), new_basis_state(1, 1)]
        payloads.append(StateVector(1, np.array([0.6, 0.8j])))
        payloads += [random_qubit(pick) for _ in range(2000)]
        seen = set()
        for seed, payload in enumerate(payloads):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            outcome, receiver = teleport_state(payload, fast)
            twin_outcome, twin_receiver = per_state_teleport(payload, slow)
            assert outcome == twin_outcome
            assert all(type(bit) is int for bit in outcome)
            assert receiver.amplitudes.tobytes() == twin_receiver.amplitudes.tobytes()
            assert fast.random() == slow.random()
            seen.add(outcome)
        assert len(seen) == 4

    def test_multi_qubit_input_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            teleport_state(new_basis_state(2, 0), rng)


class TestTeleportIndex:
    def test_zero(self):
        rng = np.random.default_rng(4)
        assert teleport_index(0, 4, rng)[0] == 0

    def test_five(self):
        rng = np.random.default_rng(4)
        assert teleport_index(5, 4, rng)[0] == 5

    def test_out_of_range(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DomainError):
            teleport_index(16, 4, rng)
        with pytest.raises(DomainError):
            teleport_index(-1, 4, rng)

    def test_identity_exhaustive_small_widths(self):
        rng = np.random.default_rng(17)
        for width in (1, 2, 3, 5):
            for n in range(1 << width):
                assert teleport_index(n, width, rng)[0] == n

    def test_sink_collects_per_qubit_records(self):
        rng = np.random.default_rng(6)
        value, outcomes = teleport_index(9, 6, rng)
        assert value == 9
        assert outcomes.shape == (6, 2)
        assert outcomes.dtype == np.uint8
        assert set(np.unique(outcomes).tolist()) <= {0, 1}

    def test_batch_equals_the_per_qubit_oracle(self):
        # Value, outcome rows and the generator's next draw; the oracle checks
        # each run's fidelity.
        cases = [(seed, 1 + seed % 48) for seed in range(300)] + [(900, 1024), (901, 1024)]
        for seed, width in cases:
            pick = np.random.default_rng(10_000 + seed)
            n = int.from_bytes(pick.bytes((width + 7) // 8), "little") % (1 << width)
            n = (0, (1 << width) - 1, n)[seed % 3]
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            value, outcomes = teleport_index(n, width, fast)
            twin_value, twin_outcomes = per_qubit_teleport_index(n, width, slow)
            assert value == twin_value
            assert outcomes.dtype == np.uint8 and outcomes.shape == (width, 2)
            assert np.array_equal(outcomes, twin_outcomes)
            assert fast.random() == slow.random()

    def test_three_draws_per_bit(self):
        for width in (1, 8, 48):
            rng, twin = np.random.default_rng(width), np.random.default_rng(width)
            teleport_index(width - 1, width, rng)
            twin.random(3 * width)
            assert rng.random() == twin.random()


class TestBasisFrames:
    @pytest.mark.parametrize("width", [1, 2, 48, 4096])
    def test_rows_equal_the_per_call_frame_stack(self, width):
        # The one-hot payload stack run through the Bell frame gate by gate,
        # for all-zero, all-one and random payloads.
        pick = np.random.default_rng(width)
        for bits in (np.zeros(width), np.ones(width), pick.integers(0, 2, width)):
            bits = bits.astype(np.uint8)
            amps = np.zeros((width, 8), dtype=complex)
            amps[np.arange(width), bits] = 1.0
            for gate in _BELL_FRAME:
                amps = _apply(amps, gate)
            assert _BASIS_FRAMES[bits].tobytes() == amps.tobytes()

    def test_a_call_applies_only_the_corrections(self, monkeypatch):
        calls = []

        def counting(amps, gate):
            calls.append(gate.kind)
            return _apply(amps, gate)

        monkeypatch.setattr(teleport, "_apply", counting)
        rng = np.random.default_rng(3)
        for width in (1, 8, 48):
            calls.clear()
            assert teleport_index(width - 1, width, rng)[0] == width - 1
            assert calls == ["X", "Z"]

    def test_frames_are_read_only(self):
        assert _BASIS_FRAMES.shape == (2, 8)
        assert not _BASIS_FRAMES.flags.writeable
        with pytest.raises(ValueError):
            _BASIS_FRAMES[0, 0] = 0.0
