import numpy as np
import pytest

from qkeylab import teleport
from qkeylab.errors import DomainError, InternalError
from qkeylab.qstate import StateVector, _apply, apply_gate, fidelity, new_basis_state, x, z
from qkeylab.teleport import (
    _BASIS_FRAMES,
    _BELL_FRAME,
    _QUBIT0_P1,
    _QUBIT1_P1,
    _READOUT_P1,
    _bell_frame,
    _branch_thresholds,
    teleport_index,
    teleport_state,
)
from oracles import (
    measure_qubit,
    measurement_probabilities,
    stacked_teleport_index,
    teleport_branches,
)


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

    def test_a_call_runs_no_qstate_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("teleport_index ran a qstate kernel")

        for kernel in ("_apply", "_collapse", "_p1"):
            monkeypatch.setattr(teleport, kernel, refuse)
        rng = np.random.default_rng(3)
        for width in (1, 8, 48):
            assert teleport_index(width - 1, width, rng)[0] == width - 1

    def test_frames_are_read_only(self):
        assert _BASIS_FRAMES.shape == (2, 8)
        assert not _BASIS_FRAMES.flags.writeable
        with pytest.raises(ValueError):
            _BASIS_FRAMES[0, 0] = 0.0


class ScriptedGenerator:
    """Hands out the given draws in order. A draw of 2.0 always reads 0 and one of -1.0
    always reads 1, so a run takes the branch the script names."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


READS = (2.0, -1.0)


def per_state_thresholds(payload_bit):
    """The thresholds of one payload from the per-state twins: P(1) of the frame's qubit 1,
    of qubit 0 after each qubit-1 reading, and of the replica of each branch of
    `per_state_teleport`, in the table's order (bit_x, then bit_z)."""
    payload = new_basis_state(1, payload_bit)
    frame = _bell_frame(payload)
    qubit1 = [measurement_probabilities(frame, 1)[1]]
    qubit0, readout = [], []
    for bit_x in (0, 1):
        _, after_x = measure_qubit(frame, 1, ScriptedGenerator(READS[bit_x]))
        qubit0.append(measurement_probabilities(after_x, 0)[1])
        for bit_z in (0, 1):
            outcome, replica = per_state_teleport(payload, ScriptedGenerator(READS[bit_x], READS[bit_z]))
            assert outcome == (bit_z, bit_x)
            readout.append(measurement_probabilities(replica, 0)[1])
    return qubit1, qubit0, readout


def hexes(values):
    return [float(v).hex() for v in values]


class TestBranchThresholds:
    def test_thresholds_equal_the_per_state_runs(self):
        for payload_bit in (0, 1):
            qubit1, qubit0, readout = per_state_thresholds(payload_bit)
            assert hexes(_QUBIT1_P1[payload_bit : payload_bit + 1]) == hexes(qubit1)
            assert hexes(_QUBIT0_P1[2 * payload_bit : 2 * payload_bit + 2]) == hexes(qubit0)
            assert hexes(_READOUT_P1[4 * payload_bit : 4 * payload_bit + 4]) == hexes(readout)

    def test_thresholds_are_pinned(self):
        # Not round: a |1> bit arrives as 0 on branch (0, 0) with probability 1.6e-15.
        assert hexes(_QUBIT1_P1) == ["0x1.ffffffffffffcp-2"] * 2
        assert hexes(_QUBIT0_P1) == hexes([0.4999999999999996, 0.5000000000000001] * 2)
        assert hexes(_READOUT_P1) == hexes([0.0] * 4 + [0.9999999999999984, 1.0, 1.0, 1.0])

    def test_thresholds_are_the_exact_branches_to_rounding(self):
        # teleport_branches normalizes each branch once, off the unsampled frame,
        # so it reads the same probabilities up to the last few bits.
        for payload_bit in (0, 1):
            branch = {
                outcome: (probability, after.amplitudes)
                for outcome, probability, _, after in teleport_branches(new_basis_state(1, payload_bit))
            }
            qubit1 = branch[0, 1][0] + branch[1, 1][0]
            assert _QUBIT1_P1[payload_bit] == pytest.approx(qubit1, rel=0, abs=2e-15)
            for bit_x in (0, 1):
                qubit0 = branch[1, bit_x][0] / (branch[0, bit_x][0] + branch[1, bit_x][0])
                assert _QUBIT0_P1[2 * payload_bit + bit_x] == pytest.approx(qubit0, rel=0, abs=2e-15)
                for bit_z in (0, 1):
                    readout = abs(branch[bit_z, bit_x][1][1]) ** 2
                    got = _READOUT_P1[4 * payload_bit + 2 * bit_x + bit_z]
                    assert got == pytest.approx(readout, rel=0, abs=2e-15)

    def test_a_one_bit_reads_0_only_on_branch_0_0_past_its_threshold(self):
        # Rows 0-3 take branches (bit_x, bit_z) = (0, 0), (0, 1), (1, 0), (1, 1) of a
        # |1> payload with a readout draw of 1 - 1e-15, above 0.9999999999999984 and
        # below 1.0; rows 4-7 repeat them with a readout draw of 0.5.
        first = [[0.75, 0.75], [0.75, 0.25], [0.25, 0.75], [0.25, 0.25]] * 2
        draws = np.column_stack([first, [1 - 1e-15] * 4 + [0.5] * 4])

        class FixedDraws:
            def random(self, size):
                assert size == draws.shape
                return draws.copy()

        value, outcomes = teleport_index(0xFF, 8, FixedDraws())
        assert value == 0xFE
        assert outcomes.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]] * 2
        twin_value, twin_outcomes = stacked_teleport_index(0xFF, 8, FixedDraws())
        assert (value, outcomes.tobytes()) == (twin_value, twin_outcomes.tobytes())

    @pytest.mark.parametrize("weight", [1e-16, 1 - 1e-16])
    def test_a_drawable_branch_below_the_refusal_is_refused(self, weight):
        # The second payload's replica reads 1 with probability about `weight`: a
        # branch within 1e-15 of 0 or 1, yet not exactly 0, could be drawn.
        payload = StateVector(1, np.array([np.sqrt(1 - weight), np.sqrt(weight)]))
        frames = np.stack([_BASIS_FRAMES[0], _bell_frame(payload).amplitudes])
        with pytest.raises(InternalError, match="teleport branch"):
            _branch_thresholds(frames)

    def test_table_equals_the_stacked_twin(self):
        # Value, outcome bytes, dtype, shape and the generator's next draw, for
        # all-zero, all-one and random integers at widths 1-199, 1 024 and the cap.
        for width in [*range(1, 200), 1024, teleport.MAX_TELEPORT_BITS]:
            pick = np.random.default_rng(20_000 + width)
            random_n = int.from_bytes(pick.bytes((width + 7) // 8), "little") % (1 << width)
            for case, n in enumerate((0, (1 << width) - 1, random_n)):
                seed = 3 * width + case
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                value, outcomes = teleport_index(n, width, fast)
                twin_value, twin_outcomes = stacked_teleport_index(n, width, slow)
                assert value == twin_value == n
                assert outcomes.dtype == twin_outcomes.dtype == np.uint8
                assert outcomes.shape == twin_outcomes.shape == (width, 2)
                assert outcomes.tobytes() == twin_outcomes.tobytes()
                assert fast.random() == slow.random()
