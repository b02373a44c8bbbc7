"""Clock-offset estimation with ticking qubits.

Two parties run clocks at exactly the same frequency (idealized: no drift
field exists on `Clock`) but with an unknown mutual offset. A qubit prepared
in an equal superposition precesses at a chosen angular rate while in
transit, so the phase it has accumulated when measured against the *other*
party's nominal schedule encodes the offset. One phase reading is ambiguous
and noisy; the protocol therefore walks a ladder of doubling frequencies,
resolving one more binary digit of the offset per rung, with a fixed number
of measured qubits per rung. Total qubit cost is linear in the number of
digits resolved.

Phase readout uses two measurement bases (cosine and sine quadratures) so
the estimate lands in the correct half-plane. Every rung's two readout
circuits run as one stack through the qstate kernels, which gives one P(1)
table per ladder; each rung then draws its own shots, cosine before sine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .qstate import _apply, _p1, apply_gate, h, new_basis_state

TWO_PI = 2.0 * math.pi

# Default ladder of the broadcast protocols: 14 rungs over a 1.6384 ms window
# resolve the offset to t_max / 2^14 = 100 ns, at 100 measured qubits per rung.
SYNC_N_BITS = 14
SYNC_T_MAX_NS = 1.6384e6
SYNC_SHOTS_PER_BIT = 100
# Each rung draws its shots as one float64 array of this length.
MAX_SHOTS_PER_BIT = 1 << 20
MAX_SYNC_BITS = 52  # a double resolves no finer rung of the offset ladder


@dataclass(frozen=True)
class Clock:
    """A party clock: fixed offset from global simulation time, zero drift."""

    offset_ns: float

    def __post_init__(self):
        if not math.isfinite(self.offset_ns):
            raise DomainError(f"clock offset must be finite, got {self.offset_ns}")


@dataclass(frozen=True)
class SyncResult:
    delta_estimate_ns: float
    qubits_used: int


def _ladder_p1(phis: np.ndarray) -> np.ndarray:
    """P(outcome 1) of each rung's precessed qubit read in the cosine (column 0)
    and sine (column 1) basis: a (rungs, 2) table from one stack of circuits."""
    start = apply_gate(new_basis_state(1, 0), h(0)).amplitudes
    amps = np.tile(start, (len(phis), 2, 1))
    amps[..., 1] *= np.exp(1j * (phis[:, None] + [0.0, -math.pi / 2.0]))
    return _p1(_apply(amps, h(0)), 0)


def ticking_qubit_sync(
    true_delta_ns: float,
    n_bits: int,
    t_max_ns: float,
    shots_per_bit: int,
    rng: np.random.Generator,
) -> SyncResult:
    """Estimate a clock offset in (-t_max/2, t_max/2) to n_bits binary digits.

    Rung k sends qubits ticking at 2*pi*2^k / t_max; the measured phase pins
    the offset modulo t_max/2^k, and the previous rung's estimate resolves the
    integer ambiguity. With shots_per_bit >= 100 the final estimate lands
    within t_max/2^(n_bits+1) of the true offset on well over 99% of runs
    (a statistical contract, not a hard bound).
    """
    if n_bits < 1:
        raise DomainError(f"need n_bits >= 1, got {n_bits}")
    if n_bits > MAX_SYNC_BITS:
        raise DomainError(f"{n_bits} ladder rungs exceed the cap {MAX_SYNC_BITS}")
    if shots_per_bit < 2:
        raise DomainError(f"need shots_per_bit >= 2, got {shots_per_bit}")
    if shots_per_bit > MAX_SHOTS_PER_BIT:
        raise ResourceError(f"{shots_per_bit} shots per rung exceed the cap {MAX_SHOTS_PER_BIT}")
    if not 0 < t_max_ns < math.inf:
        raise DomainError(f"t_max_ns must be positive and finite, got {t_max_ns}")
    if not math.isfinite(TWO_PI * (1 << (n_bits - 1)) / t_max_ns):
        raise DomainError(f"t_max_ns {t_max_ns} too small for n_bits {n_bits}: rates overflow")
    if not abs(true_delta_ns) < t_max_ns / 2:
        raise DomainError(
            f"offset {true_delta_ns} ns outside the resolvable window +-{t_max_ns / 2} ns"
        )
    phis = np.array([TWO_PI * (1 << k) / t_max_ns * true_delta_ns for k in range(n_bits)])
    p1 = _ladder_p1(phis)
    m_cos = shots_per_bit // 2
    m_sin = shots_per_bit - m_cos
    delta_est = 0.0
    for k in range(n_bits):
        ones_cos = int((rng.random(m_cos) < p1[k, 0]).sum())
        ones_sin = int((rng.random(m_sin) < p1[k, 1]).sum())
        cos_est = 1.0 - 2.0 * ones_cos / m_cos
        sin_est = 1.0 - 2.0 * ones_sin / m_sin
        turns = math.atan2(sin_est, cos_est) / TWO_PI  # phi / (2 pi) in [-1/2, 1/2)
        modulus = t_max_ns / (1 << k)
        residue = turns * modulus
        if k == 0:
            delta_est = residue
        else:
            wraps = round((delta_est - residue) / modulus)
            delta_est = residue + wraps * modulus
    return SyncResult(delta_estimate_ns=delta_est, qubits_used=n_bits * shots_per_bit)
