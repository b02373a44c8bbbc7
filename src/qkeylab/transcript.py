"""Protocol transcripts and one-shot key material.

A transcript is the ordered record of every message a protocol run produced.
Each record carries the channel it traveled on; the eavesdropper's view is
exactly the subset sent over classical public channels. Values conveyed by
teleportation or extracted from the broadcast stream never appear in that
subset, and derived key material never appears in any record at all.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .broadcast import bits_to_hex
from .errors import DomainError, LifecycleError

CHANNELS = ("public", "broadcast", "quantum")


@dataclass(frozen=True)
class TranscriptRecord:
    step: str
    sender: str
    channel: str
    payload: bytes
    time_ns: int

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise DomainError(f"unknown channel {self.channel!r}")

    def line(self) -> str:
        return "\t".join(
            (self.step, self.sender, self.channel, self.payload.hex(), str(self.time_ns))
        )


class Transcript:
    """Append-only message log; a record's time is its index in the log."""

    def __init__(self):
        self.records: list[TranscriptRecord] = []

    def add(self, step: str, sender: str, channel: str, payload: bytes) -> None:
        self.records.append(TranscriptRecord(step, sender, channel, payload, len(self.records)))

    @property
    def eve_view(self) -> tuple[TranscriptRecord, ...]:
        return tuple(r for r in self.records if r.channel == "public")

    def render(self) -> str:
        return "\n".join(r.line() for r in self.records)


def int_payload(value: int) -> bytes:
    if value < 0:
        raise DomainError("payload integers must be non-negative")
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


class SharedKey:
    """Key material that may be revealed exactly once, then vanishes.

    The agreed value is handed out a single time through `reveal`; any later
    access raises. `render` shows the value's hex only while the key is live,
    so a report built after a protocol run shows only the vanished marker.
    """

    __slots__ = ("_payload", "_vanished")

    def __init__(self, payload):
        self._payload = payload
        self._vanished = False

    @property
    def lifecycle(self) -> str:
        return "vanished" if self._vanished else "live"

    def reveal(self):
        if self._vanished:
            raise LifecycleError("key material already vanished")
        payload, self._payload = self._payload, None
        self._vanished = True
        return payload

    def render(self) -> str:
        if self._vanished:
            return "<vanished>"
        if isinstance(self._payload, (int, np.integer)):
            return int_payload(int(self._payload)).hex()
        return bits_to_hex(self._payload)

    def __repr__(self):
        return f"SharedKey({self.lifecycle})"
