import math

import numpy as np
import pytest

from qkeylab import clocksync
from qkeylab.errors import DomainError
from qkeylab.clocksync import (
    SYNC_N_BITS,
    SYNC_T_MAX_NS,
    TWO_PI,
    Clock,
    SyncResult,
    ticking_qubit_sync,
)
from qkeylab.qstate import apply_gate, h, measurement_probabilities, new_basis_state, phase

T_MAX = 1.6384e6  # ns


class TestTickingQubitSync:
    def test_zero_offset(self):
        rng = np.random.default_rng(1)
        result = ticking_qubit_sync(0.0, 10, T_MAX, 100, rng)
        assert abs(result.delta_estimate_ns) <= T_MAX / 2**11

    def test_resolution_arithmetic(self):
        # 1.6384 ms over 14 doublings leaves 100 ns per cell.
        assert T_MAX / 2**14 == pytest.approx(100.0)

    def test_qubit_cost_linear_in_bits(self):
        rng = np.random.default_rng(2)
        used = [
            ticking_qubit_sync(100.0, bits, T_MAX, 50, rng).qubits_used
            for bits in (2, 4, 8)
        ]
        assert used == [2 * 50, 4 * 50, 8 * 50]

    def test_offset_out_of_window_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DomainError):
            ticking_qubit_sync(T_MAX / 2, 4, T_MAX, 50, rng)

    def test_bad_parameters_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DomainError):
            ticking_qubit_sync(0.0, 0, T_MAX, 50, rng)
        with pytest.raises(DomainError):
            ticking_qubit_sync(0.0, 4, T_MAX, 1, rng)

    def test_resolution_bound_mostly_holds(self):
        hits = 0
        trials = 200
        for i in range(trials):
            rng = np.random.default_rng(1000 + i)
            true_delta = float(rng.uniform(-0.45, 0.45) * T_MAX)
            result = ticking_qubit_sync(true_delta, 14, T_MAX, 100, rng)
            if abs(result.delta_estimate_ns - true_delta) <= T_MAX / 2**15:
                hits += 1
        assert hits / trials >= 0.99

    def test_median_error_non_increasing_in_bits(self):
        medians = []
        for bits in (4, 8, 12):
            errors = []
            for i in range(40):
                rng = np.random.default_rng(7000 + i)
                true_delta = float(rng.uniform(-0.4, 0.4) * T_MAX)
                result = ticking_qubit_sync(true_delta, bits, T_MAX, 100, rng)
                errors.append(abs(result.delta_estimate_ns - true_delta))
            medians.append(float(np.median(errors)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_unbiased_at_zero(self):
        estimates = []
        for i in range(200):
            rng = np.random.default_rng(9000 + i)
            estimates.append(ticking_qubit_sync(0.0, 8, T_MAX, 100, rng).delta_estimate_ns)
        estimates = np.array(estimates)
        stderr = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean()) <= 3 * stderr + 1e-9

    def test_result_fields(self):
        rng = np.random.default_rng(5)
        result = ticking_qubit_sync(500.0, 6, T_MAX, 40, rng)
        assert isinstance(result, SyncResult)
        assert result.qubits_used == 240


class TestClock:
    def test_offset_must_be_finite(self):
        with pytest.raises(DomainError):
            Clock(float("nan"))
        assert Clock(-125.5).offset_ns == -125.5


def chained_quadrature_p1(phi, extra_phase):
    """The rung circuit one validated gate at a time: the oracle of the one-call circuit."""
    sv = new_basis_state(1, 0)
    sv = apply_gate(sv, h(0))
    sv = apply_gate(sv, phase(phi + extra_phase, 0))
    sv = apply_gate(sv, h(0))
    return measurement_probabilities(sv, 0)[1]


def test_ladder_p1_equals_the_chained_circuit_bitwise():
    # Every rung angle of the default ladder for 360 offsets across the window
    # (two of them the window's centre and edge), in both quadratures, plus
    # angles up to the top rung of the deepest ladder, all in one stack.
    rng = np.random.default_rng(11)
    deltas = np.concatenate(
        [[0.0, np.nextafter(SYNC_T_MAX_NS / 2, 0.0)], rng.uniform(-0.5, 0.5, 358) * SYNC_T_MAX_NS]
    )
    phis = [
        TWO_PI * (1 << k) / SYNC_T_MAX_NS * float(delta)
        for delta in deltas
        for k in range(SYNC_N_BITS)
    ]
    phis += [math.pi, -math.pi, TWO_PI * 2.0**51, -(TWO_PI * 2.0**51) / 3.0]
    assert 2 * len(phis) >= 10_000
    table = clocksync._ladder_p1(np.array(phis))
    assert table.shape == (len(phis), 2)
    for phi, (p1_cos, p1_sin) in zip(phis, table):
        assert p1_cos == chained_quadrature_p1(phi, 0.0)
        assert p1_sin == chained_quadrature_p1(phi, -math.pi / 2.0)


def quadrature_p1(phi, extra_phase):
    """One rung's readout circuit as one validated call."""
    sv = apply_gate(new_basis_state(1, 0), h(0), phase(phi + extra_phase, 0), h(0))
    return measurement_probabilities(sv, 0)[1]


def estimate_turns(phi, shots, rng):
    """Estimate phi/(2*pi) in [-1/2, 1/2) from `shots` projective measurements."""
    m_cos = shots // 2
    m_sin = shots - m_cos
    ones_cos = int((rng.random(m_cos) < quadrature_p1(phi, 0.0)).sum())
    ones_sin = int((rng.random(m_sin) < quadrature_p1(phi, -math.pi / 2.0)).sum())
    cos_est = 1.0 - 2.0 * ones_cos / m_cos
    sin_est = 1.0 - 2.0 * ones_sin / m_sin
    return math.atan2(sin_est, cos_est) / TWO_PI


def per_rung_sync(true_delta_ns, n_bits, t_max_ns, shots_per_bit, rng):
    """The ladder one rung at a time, two circuits per rung: the oracle of the
    batched ladder (valid arguments only)."""
    delta_est = 0.0
    for k in range(n_bits):
        phi = TWO_PI * (1 << k) / t_max_ns * true_delta_ns
        turns = estimate_turns(phi, shots_per_bit, rng)
        modulus = t_max_ns / (1 << k)
        residue = turns * modulus
        if k == 0:
            delta_est = residue
        else:
            wraps = round((delta_est - residue) / modulus)
            delta_est = residue + wraps * modulus
    return SyncResult(delta_estimate_ns=delta_est, qubits_used=n_bits * shots_per_bit)


@pytest.mark.parametrize(
    "n_bits, shots, t_max_ns",
    [
        (SYNC_N_BITS, 100, SYNC_T_MAX_NS),
        (20, 37, SYNC_T_MAX_NS),  # odd shots: one more sine shot than cosine
        (1, 2, SYNC_T_MAX_NS),
        (52, 3, 2.0**60),  # the rung cap
    ],
)
def test_batched_ladder_equals_the_per_rung_ladder(n_bits, shots, t_max_ns):
    # Same estimate and same generator state afterwards: the per-rung draws
    # keep their order, cosine shots before sine shots. 253 offsets per shape,
    # 1 012 in all.
    edge = float(np.nextafter(t_max_ns / 2, 0.0))
    deltas = [0.0, edge, -edge]
    deltas += list(np.random.default_rng(n_bits).uniform(-0.5, 0.5, 250) * t_max_ns)
    for i, delta in enumerate(deltas):
        fast, slow = np.random.default_rng(i), np.random.default_rng(i)
        assert ticking_qubit_sync(delta, n_bits, t_max_ns, shots, fast) == per_rung_sync(
            delta, n_bits, t_max_ns, shots, slow
        )
        assert fast.random() == slow.random()
