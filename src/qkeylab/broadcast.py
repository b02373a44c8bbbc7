"""Simulated satellite bit broadcast, delay/offset-aware receivers, and the
bounded-storage eavesdropper.

The physical random source is replaced by a keyed pseudorandom stream
(SHA-256 over 256-bit blocks): bit i is a pure function of (seed, i), so any
two correctly aligned readers extract identical bits and reruns are exact.
Receivers convert party-local timestamps to stream indices by undoing their
clock offset and line-of-sight propagation delay.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .clocksync import Clock
from .errors import DomainError, ResourceError

LIGHT_SPEED_M_PER_S = 299_792_458  # exact
_BLOCK_BITS = 256
STREAM_BITS = _BLOCK_BITS << 64  # block indices are hashed as 8 bytes
MAX_WINDOW_BITS = 1 << 22  # a read holds one int64 index and one byte per bit
MAX_STORAGE_SPAN = 1 << 22  # drawing the stored subset holds one int64 per span index


@dataclass(frozen=True)
class BroadcastSource:
    """Keyed deterministic bit stream emitted at a fixed rate from `epoch_ns`."""

    seed: int
    bitrate: float  # bits per second
    epoch_ns: float = 0.0

    def __post_init__(self):
        if not 0 <= self.seed < (1 << 256):
            raise DomainError("seed must fit in 256 bits")
        if not self.bitrate > 0:
            raise DomainError(f"bitrate must be positive, got {self.bitrate}")

    @property
    def bit_period_ns(self) -> float:
        return 1e9 / self.bitrate


@dataclass(frozen=True)
class Receiver:
    label: str
    distance_m: float
    clock: Clock

    def __post_init__(self):
        if self.distance_m < 0:
            raise DomainError(f"distance must be >= 0, got {self.distance_m}")

    @property
    def propagation_delay_ns(self) -> float:
        return self.distance_m * 1e9 / LIGHT_SPEED_M_PER_S


@dataclass(frozen=True)
class KeyWindow:
    """`length` consecutive stream bits starting at a party-local timestamp."""

    start_local_time_ns: float
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise DomainError(f"window length must be >= 1, got {self.length}")
        if self.length > MAX_WINDOW_BITS:
            raise ResourceError(f"window length {self.length} exceeds the cap {MAX_WINDOW_BITS}")


def _block(seed: int, block_index: int) -> bytes:
    msg = seed.to_bytes(32, "big") + block_index.to_bytes(8, "big")
    return hashlib.sha256(msg).digest()


def _check_index(index: int) -> None:
    if not 0 <= index < STREAM_BITS:
        raise DomainError(f"stream index must be in [0, 2^72), got {index}")


def bit_at(source: BroadcastSource, index: int) -> int:
    """Stream bit at `index` (deterministic in (seed, index)), 0 <= index < STREAM_BITS."""
    _check_index(index)
    digest = _block(source.seed, index >> 8)
    byte = digest[(index & 255) >> 3]
    return (byte >> (7 - (index & 7))) & 1


def bits_range(source: BroadcastSource, start: int, length: int) -> np.ndarray:
    """Stream bits [start, start+length) as a uint8 array, within [0, STREAM_BITS)."""
    _check_index(start)
    if length < 1:
        raise DomainError(f"length must be >= 1, got {length}")
    _check_index(start + length - 1)
    first = start >> 8
    last = (start + length - 1) >> 8
    raw = b"".join(_block(source.seed, b) for b in range(first, last + 1))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    offset = start - (first << 8)
    return bits[offset : offset + length].copy()


def _stream_position(source: BroadcastSource, receiver: Receiver, local_time_ns: float) -> float:
    """Fractional stream index arriving at `receiver` when its clock reads `local_time_ns`."""
    emission_elapsed_ns = (
        local_time_ns
        - receiver.clock.offset_ns
        - receiver.propagation_delay_ns
        - source.epoch_ns
    )
    if emission_elapsed_ns < 0:
        raise DomainError(
            f"local time {local_time_ns} ns precedes the first receivable bit"
        )
    position = emission_elapsed_ns * source.bitrate / 1e9
    if not position < STREAM_BITS:  # also NaN and infinity
        raise DomainError(
            f"local time {local_time_ns} ns maps to stream position {position}, "
            f"beyond the end of the stream at 2^{STREAM_BITS.bit_length() - 1} bits"
        )
    return position


def reception_index(source: BroadcastSource, receiver: Receiver, local_time_ns: float) -> int:
    """Stream index arriving at `receiver` when its clock reads `local_time_ns`."""
    return int(math.floor(_stream_position(source, receiver, local_time_ns)))


def extract_key(source: BroadcastSource, receiver: Receiver, window: KeyWindow) -> np.ndarray:
    """The window's bits as seen by `receiver` (uint8 array)."""
    start = reception_index(source, receiver, window.start_local_time_ns)
    return bits_range(source, start, window.length)


def aligned_start_time(
    source: BroadcastSource, receiver: Receiver, earliest_local_ns: float
) -> float:
    """Smallest local time >= earliest whose reception sits mid-bit.

    Mid-bit alignment keeps index arithmetic robust against sub-bit timing
    error (sync residue, float rounding): a start time in the middle of a bit
    period tolerates misalignment up to half a period in either direction.
    """
    position = _stream_position(source, receiver, earliest_local_ns)
    idx = math.floor(position)
    mid = idx + 0.5 if position <= idx + 0.5 else idx + 1.5
    return earliest_local_ns + (mid - position) * source.bit_period_ns


# -- bit/bytes plumbing shared by the protocol modules ----------------------


def bits_to_int(bits: np.ndarray) -> int:
    """Interpret a bit array as an integer, first element most significant."""
    value = 0
    for b in np.asarray(bits).tolist():
        value = (value << 1) | int(b)
    return value


def int_to_bits(value: int, width: int) -> np.ndarray:
    if value < 0 or (width < 1) or value >= (1 << width):
        raise DomainError(f"{value} does not fit in {width} bit(s)")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    """Hex rendering of a bit array (bits packed MSB-first, zero padded)."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


# -- bounded-storage eavesdropper --------------------------------------------


@dataclass(frozen=True)
class StoredView:
    """What the eavesdropper managed to keep: a bounded subset of a stream span.

    `stored_indices` is sorted and unique; its size is at most
    stored_fraction * span + 1, the storage bound. `window` records the key
    window under attack for reporting; the storage choice never depends on it.
    """

    stored_fraction: float
    stored_indices: np.ndarray
    span_start: int
    span_length: int
    window: KeyWindow


@dataclass(frozen=True)
class EveRecovery:
    known_bits: int
    guess_success_probability: float
    recovered: np.ndarray  # int8: known bit values, -1 where unknown


def eve_store(
    source: BroadcastSource,
    window: KeyWindow,
    span_start: int,
    span_length: int,
    stored_fraction: float,
    rng: np.random.Generator,
    strategy: str = "uniform",
) -> StoredView:
    """Pick which stream indices the eavesdropper stores from the span.

    `uniform` keeps a uniformly random fixed-size subset; `prefix` keeps the
    leading indices (worst case for windows near the span start). Both respect
    the storage bound floor(stored_fraction * span_length).
    """
    if not 0.0 <= stored_fraction <= 1.0:
        raise DomainError(f"stored fraction must be in [0,1], got {stored_fraction}")
    if span_length < 1 or span_start < 0:
        raise DomainError("storage span must be non-empty and non-negative")
    if span_length > MAX_STORAGE_SPAN:
        raise ResourceError(f"storage span {span_length} exceeds the cap {MAX_STORAGE_SPAN}")
    budget = int(math.floor(stored_fraction * span_length))
    if strategy == "uniform":
        kept = rng.choice(span_length, size=budget, replace=False)
    elif strategy == "prefix":
        kept = np.arange(budget)
    else:
        raise DomainError(f"unknown storage strategy {strategy!r}")
    indices = np.sort(kept.astype(np.int64)) + span_start
    return StoredView(stored_fraction, indices, span_start, span_length, window)


def eve_recover(
    view: StoredView,
    source: BroadcastSource,
    receiver: Receiver,
    window: KeyWindow | None = None,
) -> EveRecovery:
    """How much of the window's key the stored view pins down.

    Unknown bits are uniform, so guessing the full key succeeds with
    probability 2^-(length - known).
    """
    window = view.window if window is None else window
    start = reception_index(source, receiver, window.start_local_time_ns)
    targets = np.arange(start, start + window.length, dtype=np.int64)
    hit = np.isin(targets, view.stored_indices)
    known = int(hit.sum())
    recovered = np.full(window.length, -1, dtype=np.int8)
    if known:
        recovered[hit] = bits_range(source, start, window.length)[hit]
    return EveRecovery(
        known_bits=known,
        guess_success_probability=2.0 ** -(window.length - known),
        recovered=recovered,
    )
