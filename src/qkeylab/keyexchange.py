"""Key exchange protocols over a public channel, a broadcast stream, and a
teleportation side channel.

Three protocols, each producing a full transcript with an explicit
eavesdropper view:

* `classic_dh` - textbook discrete-log key exchange; everything Eve needs for
  a discrete-log attack is public.
* `pq_dh` - the generator is pulled out of the timed broadcast stream (never
  transmitted), then one of its bits is flipped at a position conveyed only
  by teleportation; only the start time, the modulus, and the two blinded
  shares go over the public channel.
* `private_exchange` - no arithmetic at all: the shared key is a broadcast
  window whose start slot is conveyed by teleportation against a public
  coarse slot schedule.

`classic_dh` and `pq_dh` publish their shares and derive their keys through
one Diffie-Hellman step; they differ only in the generators it raises.

Both broadcast-based protocols begin with a ticking-qubit clock sync and
start counting bits mid-bit-period, so they tolerate sync residue up to half
a bit period. The sync opens a `BroadcastRun`, which carries the link, the
generator and the transcript; the protocols (and `qwalk.walk_agreement`)
teleport their secret, read the stream and settle the keys through it.
Derived keys are one-shot: reading them a second time raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .broadcast import (
    BroadcastSource,
    KeyWindow,
    Receiver,
    aligned_start_time,
    bits_to_int,
    extract_key,
    reception_index,
)
from .clocksync import SYNC_N_BITS, SYNC_SHOTS_PER_BIT, SYNC_T_MAX_NS, ticking_qubit_sync
from .errors import DomainError, ProtocolError, ResourceError
from .numtheory import MAX_PRIME_BITS, is_probable_prime, random_below, random_prime
from .teleport import MAX_TELEPORT_BITS, teleport_index
from .transcript import SharedKey, Transcript, int_payload

_MAX_WINDOW_RETRIES = 16
_MAX_FLIP_RETRIES = 80
# The slot index is drawn as one int64 below 2**slot_bits.
MAX_SLOT_BITS = 32


def _check_modulus(p: int):
    """Refuse p unless it is an odd prime of at most MAX_PRIME_BITS bits; the cap comes first."""
    if p.bit_length() > MAX_PRIME_BITS:
        raise ResourceError(f"modulus of {p.bit_length()} bits exceeds the cap {MAX_PRIME_BITS}")
    if p < 3 or not is_probable_prime(p):
        raise DomainError(f"modulus {p} is not an odd prime")


@dataclass(frozen=True)
class DhParams:
    p: int
    g: int

    def __post_init__(self):
        _check_modulus(self.p)
        if not 1 <= self.g <= self.p - 1:
            raise DomainError(f"base {self.g} outside [1, {self.p - 1}]")


@dataclass(frozen=True)
class PartySecret:
    """A private exponent. Never serialized into any transcript."""

    exponent: int

    def __repr__(self):
        return "PartySecret(<hidden>)"


def _check_secret(secret: PartySecret, p: int):
    if not 1 <= secret.exponent <= p - 1:
        raise DomainError(f"secret exponent outside [1, {p - 1}]")


def random_secret(p: int, rng: np.random.Generator) -> PartySecret:
    """Uniform secret exponent in [1, p-1]; p may exceed 64 bits, up to MAX_PRIME_BITS."""
    if p < 3:
        raise DomainError(f"modulus too small: {p}")
    return PartySecret(1 + random_below(p - 1, rng))


def flip_bit(value: int, index: int) -> int:
    """Flip bit `index` of `value`, counting from the least significant bit."""
    if index < 0:
        raise DomainError(f"bit index must be >= 0, got {index}")
    if index >= MAX_TELEPORT_BITS:
        raise ResourceError(f"bit index {index} exceeds the teleport cap {MAX_TELEPORT_BITS}")
    return value ^ (1 << index)


def _dh_step(
    transcript: Transcript, g_alice: int, g_bob: int, a: PartySecret, b: PartySecret, p: int
) -> tuple[int, int, int, int]:
    """Publish g_alice^a and g_bob^b mod p; each side raises the other's share to its
    own exponent. Returns (share_alice, share_bob, key_alice, key_bob)."""
    share_alice = pow(g_alice, a.exponent, p)
    share_bob = pow(g_bob, b.exponent, p)
    transcript.add("share.alice", "alice", "public", int_payload(share_alice))
    transcript.add("share.bob", "bob", "public", int_payload(share_bob))
    return share_alice, share_bob, pow(share_bob, a.exponent, p), pow(share_alice, b.exponent, p)


# -- classic discrete-log exchange -------------------------------------------


@dataclass(frozen=True)
class DhResult:
    params: DhParams
    share_alice: int
    share_bob: int
    key_alice: SharedKey
    key_bob: SharedKey
    agreed: bool
    transcript: Transcript


def classic_dh(params: DhParams, a: PartySecret, b: PartySecret) -> DhResult:
    """Plain public-channel exchange: Eve sees p, g and both shares."""
    _check_secret(a, params.p)
    _check_secret(b, params.p)
    t = Transcript()
    t.add("params.p", "alice", "public", int_payload(params.p))
    t.add("params.g", "alice", "public", int_payload(params.g))
    share_a, share_b, k_a, k_b = _dh_step(t, params.g, params.g, a, b, params.p)
    return DhResult(params, share_a, share_b, SharedKey(k_a), SharedKey(k_b), k_a == k_b, t)


# -- broadcast-generator exchange --------------------------------------------


@dataclass(frozen=True)
class BroadcastRun:
    """One run of a broadcast protocol, opened by `run_clock_sync`.

    It holds the link (the source and both receivers), the run's generator
    and transcript, and the clock-sync outcome. The protocols teleport their
    secret, read the stream and settle the keys through it.
    """

    source: BroadcastSource
    alice: Receiver
    bob: Receiver
    rng: np.random.Generator
    transcript: Transcript
    estimate_ns: float
    error_ns: float

    def teleport(self, value: int, bit_width: int, step: str) -> int:
        """Send an integer over the teleportation channel, logging what Eve sees.

        The joint-measurement outcome bits travel on the public classical
        channel (they are useless without the entangled half); the value
        itself never appears in any record.
        """
        received, outcomes = teleport_index(value, bit_width, self.rng)
        self.transcript.add(f"{step}.epr", "alice", "quantum", int_payload(bit_width))
        for k, bits in enumerate(outcomes):
            self.transcript.add(f"{step}.outcome[{k}]", "alice", "public", bits.tobytes())
        return received

    def read(
        self, t_alice: float, t_nominal: float, length: int, step: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """`length` stream bits each, logged as two satellite reads: Alice's
        from local time `t_alice`, Bob's from `t_nominal` shifted by the
        delay gap and the sync estimate."""
        delay_gap_ns = self.bob.propagation_delay_ns - self.alice.propagation_delay_ns
        t_bob = t_nominal + delay_gap_ns + self.estimate_ns
        bits_alice = extract_key(self.source, self.alice, KeyWindow(t_alice, length))
        bits_bob = extract_key(self.source, self.bob, KeyWindow(t_bob, length))
        self.transcript.add(f"{step}.read", "satellite", "broadcast", b"")
        self.transcript.add(f"{step}.read", "satellite", "broadcast", b"")
        return bits_alice, bits_bob

    def settle(self, agreed: bool) -> bool:
        """Log a mismatch publicly when the keys differ; returns `agreed`."""
        if not agreed:
            self.transcript.add("key.mismatch", "bob", "public", b"")
        return agreed


def run_clock_sync(
    source: BroadcastSource,
    alice: Receiver,
    bob: Receiver,
    rng: np.random.Generator,
    n_bits: int,
    t_max_ns: float,
    shots_per_bit: int,
) -> BroadcastRun:
    """Open a run: a fresh transcript that starts with the ticking-qubit sync."""
    transcript = Transcript()
    true_delta = bob.clock.offset_ns - alice.clock.offset_ns
    result = ticking_qubit_sync(true_delta, n_bits, t_max_ns, shots_per_bit, rng)
    transcript.add("sync.qubits", "alice", "quantum", int_payload(result.qubits_used))
    estimate = result.delta_estimate_ns
    transcript.add("sync.estimate", "bob", "public", f"{estimate:.3f}".encode())
    return BroadcastRun(source, alice, bob, rng, transcript, estimate, estimate - true_delta)


@dataclass(frozen=True)
class PqDhResult:
    """Outcome of a broadcast-generator exchange run.

    Fields below `transcript` are simulator-side diagnostics (the secret
    values, for analysis); none of them appears in the transcript.
    """

    key_alice: SharedKey
    key_bob: SharedKey
    agreed: bool
    transcript: Transcript
    p: int
    generator_alice: int
    generator_bob: int
    tweaked_alice: int
    tweaked_bob: int
    flip_index: int
    share_alice: int
    share_bob: int
    sync_error_ns: float
    window_retries: int
    flip_retries: int


def pq_dh(
    source: BroadcastSource,
    alice: Receiver,
    bob: Receiver,
    window: KeyWindow,
    p: int,
    a: PartySecret,
    b: PartySecret,
    rng: np.random.Generator,
    sync_n_bits: int = SYNC_N_BITS,
    sync_t_max_ns: float = SYNC_T_MAX_NS,
    sync_shots_per_bit: int = SYNC_SHOTS_PER_BIT,
) -> PqDhResult:
    """Exchange with a broadcast-extracted, teleport-tweaked generator.

    Steps: sync clocks; publicly announce the start time t; both parties
    read `window.length` bits from the stream (their generator g, never
    transmitted); teleport the index of one bit of g to flip, giving g1;
    exchange g1^a and g1^b publicly; both sides derive g1^(a*b) mod p.
    Mismatched derivations are reported via `agreed=False`, never silently.
    """
    _check_modulus(p)
    _check_secret(a, p)
    _check_secret(b, p)
    width = window.length
    if width > MAX_TELEPORT_BITS:
        raise ResourceError(
            f"window length {width} exceeds the teleport cap {MAX_TELEPORT_BITS}"
        )
    run = run_clock_sync(source, alice, bob, rng, sync_n_bits, sync_t_max_ns, sync_shots_per_bit)
    transcript = run.transcript

    t_alice = aligned_start_time(source, alice, window.start_local_time_ns)
    window_retries = 0
    while True:
        transcript.add("start-time", "alice", "public", f"{t_alice:.3f}".encode())
        bits_alice, bits_bob = run.read(t_alice, t_alice, width, "generator")
        g_alice = bits_to_int(bits_alice) % p
        g_bob = bits_to_int(bits_bob) % p
        if g_alice != 0 and g_bob != 0:
            break
        window_retries += 1
        if window_retries > _MAX_WINDOW_RETRIES:
            raise ProtocolError("no usable generator window found")
        transcript.add("window.retry", "bob", "public", b"")
        t_alice = aligned_start_time(
            source, alice, t_alice + (width + 1) * source.bit_period_ns
        )

    flip_retries = 0
    while True:
        flip_index = int(rng.integers(width))
        received_index = run.teleport(flip_index, width, "flip-index")
        g1_alice = flip_bit(g_alice, flip_index)
        g1_bob = flip_bit(g_bob, received_index)
        if g1_alice % p != 0 and g1_bob % p != 0:
            break
        flip_retries += 1
        if flip_retries > _MAX_FLIP_RETRIES:
            raise ProtocolError("no usable flipped generator found")
        transcript.add("flip.retry", "alice", "public", b"")

    transcript.add("params.p", "alice", "public", int_payload(p))
    share_alice, share_bob, k_alice, k_bob = _dh_step(transcript, g1_alice, g1_bob, a, b, p)
    return PqDhResult(
        key_alice=SharedKey(k_alice),
        key_bob=SharedKey(k_bob),
        agreed=run.settle(k_alice == k_bob),
        transcript=transcript,
        p=p,
        generator_alice=g_alice,
        generator_bob=g_bob,
        tweaked_alice=g1_alice,
        tweaked_bob=g1_bob,
        flip_index=flip_index,
        share_alice=share_alice,
        share_bob=share_bob,
        sync_error_ns=run.error_ns,
        window_retries=window_retries,
        flip_retries=flip_retries,
    )


# -- private exchange (key straight from the stream) --------------------------


@dataclass(frozen=True)
class PrivateExchangeResult:
    key_alice: SharedKey
    key_bob: SharedKey
    agreed: bool
    transcript: Transcript
    slot_index: int
    sync_error_ns: float
    start_index_alice: int


def private_exchange(
    source: BroadcastSource,
    alice: Receiver,
    bob: Receiver,
    window: KeyWindow,
    rng: np.random.Generator,
    slot_bits: int = 8,
    sync_n_bits: int = SYNC_N_BITS,
    sync_t_max_ns: float = SYNC_T_MAX_NS,
    sync_shots_per_bit: int = SYNC_SHOTS_PER_BIT,
) -> PrivateExchangeResult:
    """Key = a broadcast window; only its slot index is secret (teleported).

    A coarse schedule of 2**slot_bits non-overlapping slots hanging off a
    public base time is announced; the chosen slot rides the teleportation
    channel. Eve sees the schedule but not which slot carries the key, and the
    stream itself is too voluminous for her to store.
    """
    if slot_bits < 1:
        raise DomainError(f"need slot_bits >= 1, got {slot_bits}")
    if slot_bits > MAX_SLOT_BITS:
        raise ResourceError(f"slot_bits {slot_bits} exceeds the cap {MAX_SLOT_BITS}")
    run = run_clock_sync(source, alice, bob, rng, sync_n_bits, sync_t_max_ns, sync_shots_per_bit)

    base_local = aligned_start_time(source, alice, window.start_local_time_ns)
    slot_period_ns = (window.length + 1) * source.bit_period_ns
    n_slots = 1 << slot_bits
    schedule = f"{base_local:.3f},{slot_period_ns:.3f},{n_slots}"
    run.transcript.add("slot-schedule", "alice", "public", schedule.encode())
    slot = int(rng.integers(n_slots))
    received_slot = run.teleport(slot, slot_bits, "slot-index")

    start_alice = base_local + slot * slot_period_ns
    key_a, key_b = run.read(
        start_alice, base_local + received_slot * slot_period_ns, window.length, "key"
    )
    return PrivateExchangeResult(
        key_alice=SharedKey(key_a),
        key_bob=SharedKey(key_b),
        agreed=run.settle(bool(np.array_equal(key_a, key_b))),
        transcript=run.transcript,
        slot_index=slot,
        sync_error_ns=run.error_ns,
        start_index_alice=reception_index(source, alice, start_alice),
    )


# -- desk-scale eavesdropper with unlimited classical compute -----------------


# A log table is an int32 per residue plus the int64 powers it is filled from, 48 MB
# at 2^22, and O(p) per call; a larger p needs baby-step giant-step or Pohlig-Hellman.
MAX_DLOG_PRIME = 1 << 22


def _log_table(p: int) -> np.ndarray:
    """L[r^k mod p] = k for k < p - 1, r the least primitive root of the odd prime p."""
    n = p - 1
    # r has order n, so is a primitive root, iff r^e != 1 for every proper divisor e of n.
    proper_divisors = np.flatnonzero(n % np.arange(1, n) == 0) + 1
    r = next(r for r in range(2, p) if all(pow(r, int(e), p) != 1 for e in proper_divisors))
    # Filled by doubling, powers[k:2k] = powers[:k] * r^k; products stay below p^2 < 2^44.
    powers, k = np.ones(n, dtype=np.int64), 1
    while k < n:
        powers[k : 2 * k] = powers[: min(k, n - k)] * pow(r, k, p) % p
        k *= 2
    table = np.zeros(p, dtype=np.int32)
    table[powers] = np.arange(n, dtype=np.int32)
    return table


def _discrete_log(p: int):
    """dlog(g, t): the smallest e with g^e == t mod p, or None, as the brute
    force gives it (g is reduced mod p, t is not), from one log table of the
    odd prime p <= MAX_DLOG_PRIME; the cap is checked before the table."""
    if p > MAX_DLOG_PRIME:
        raise ResourceError(f"discrete-log modulus {p} exceeds the cap {MAX_DLOG_PRIME}")
    table, n = _log_table(p), p - 1

    def dlog(g: int, t: int) -> int | None:
        g %= p
        if t == 1 or g == 0 or not 1 < t < p:
            return 0 if t == 1 else 1 if g == t == 0 else None
        # e * L[g] == L[t] mod n is solvable iff d = gcd(L[g], n) divides L[t].
        log_g, log_t = int(table[g]), int(table[t])
        d = math.gcd(log_g, n)
        return None if log_t % d else log_t // d * pow(log_g // d, -1, n // d) % (n // d)

    return dlog


def crack_classic_dh(p: int, g: int, share_a: int, share_b: int) -> int:
    """Recover the classic-exchange key from its public view (one O(p) log table).

    (p, g) must be valid `DhParams`, then p <= MAX_DLOG_PRIME, both checked first."""
    DhParams(p, g)
    a = _discrete_log(p)(g, share_a)
    if a is None:
        raise DomainError("share is not a power of the announced base")
    return pow(share_b, a, p)


def pq_candidate_keys(p: int, share_a: int, share_b: int, width: int) -> list[int]:
    """Every key consistent with the public view of a `pq_dh` run.

    Without the tweaked generator, Eve must try every candidate below
    2**width, which matters only mod p: one discrete log per residue in
    [1, min(2**width, p)), from one O(p) log table. Different candidates
    generally produce different keys, so the public view alone does not
    determine the key. p must be an odd prime, 1 <= width <= MAX_TELEPORT_BITS
    (the widest window `pq_dh` admits) and p <= MAX_DLOG_PRIME, all checked first.
    """
    _check_modulus(p)
    if width < 1:
        raise DomainError(f"need width >= 1, got {width}")
    if width > MAX_TELEPORT_BITS:
        raise ResourceError(f"width {width} exceeds the teleport cap {MAX_TELEPORT_BITS}")
    dlog = _discrete_log(p)
    logs = (dlog(g1, share_a) for g1 in range(1, min(1 << width, p)))
    return sorted({pow(share_b, e, p) for e in logs if e is not None})
