"""The benchmark's workloads: seeded inputs, the ops, their checks and their
canonical outputs.

A workload is a sequence of passes. Pass `k` holds PASS_LIGHT light ops and
PASS_HEAVY heavy ops (3:1), interleaved in an order drawn from the workload
seed. Every op gets its own 64-bit seed from `seeds.derive_seed(seed,
workload, pass, index)` and builds its generator from it inside the op, the
way the CLI's trial functions do. Input generation therefore calls only the
seed derivation of the library; everything else the library does runs inside
an op.

Ops call the library through module attributes (`keyexchange.pq_dh`, ...)
so that the tracer's wrapped bindings are the ones that run.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from qkeylab import broadcast, coinflip, ecurve, keyexchange, qwalk, seeds
from qkeylab.clocksync import Clock

PASS_LIGHT = 30
PASS_HEAVY = 10
PASS_OPS = PASS_LIGHT + PASS_HEAVY

LIGHT = "light"
HEAVY = "heavy"


@dataclass(frozen=True)
class Op:
    kind: str  # LIGHT or HEAVY
    seed: int  # the op's own generator seed
    params: tuple  # workload-specific inputs fixed at generation time


def _pass_order(seed: int, workload: str, pass_index: int) -> list[str]:
    kinds = [LIGHT] * PASS_LIGHT + [HEAVY] * PASS_HEAVY
    order = seeds.derive_rng(seed, workload, pass_index, "order").permutation(len(kinds))
    return [kinds[i] for i in order]


def _op_seeds(seed: int, workload: str, pass_index: int) -> list[int]:
    return [seeds.derive_seed(seed, workload, pass_index, i) for i in range(PASS_OPS)]


# -- protocol-sessions ------------------------------------------------------------
# CLI default geometry for `pqdh` and `private`.

_P_BITS = 48
_KEY_BITS = 128
_SLOT_BITS = 8
_BITRATE = 1e6


def _protocol_geometry(broadcast_seed: int):
    source = broadcast.BroadcastSource(seed=broadcast_seed, bitrate=_BITRATE)
    alice = broadcast.Receiver("alice", 0.0, Clock(0.0))
    bob = broadcast.Receiver("bob", 299792.458, Clock(40000.0))
    return source, alice, bob


def _session_window(alice, session_index: int, length: int) -> broadcast.KeyWindow:
    # Same placement as the CLI: one session every 10 ms after a 1 s lead-in.
    base = alice.propagation_delay_ns + alice.clock.offset_ns + 1e9 + session_index * 1e7
    return broadcast.KeyWindow(base, length)


def _protocol_inputs(seed, pass_index, kinds, op_seeds):
    broadcast_seed = seeds.derive_seed(seed, "protocol-sessions", pass_index, "broadcast")
    return [
        Op(kind, op_seed, (broadcast_seed, pass_index * PASS_OPS + i))
        for i, (kind, op_seed) in enumerate(zip(kinds, op_seeds))
    ]


def _protocol_run(op: Op):
    broadcast_seed, session_index = op.params
    rng = np.random.default_rng(op.seed)
    source, alice, bob = _protocol_geometry(broadcast_seed)
    if op.kind == LIGHT:
        window = _session_window(alice, session_index, _KEY_BITS)
        return keyexchange.private_exchange(source, alice, bob, window, rng, slot_bits=_SLOT_BITS)
    prime = keyexchange.random_prime(_P_BITS, rng)
    a = keyexchange.random_secret(prime, rng)
    b = keyexchange.random_secret(prime, rng)
    window = _session_window(alice, session_index, _P_BITS)
    return keyexchange.pq_dh(source, alice, bob, window, prime, a, b, rng)


def _protocol_check(op: Op, result) -> tuple[bool, str]:
    key_a, key_b = result.key_alice.reveal(), result.key_bob.reveal()
    if op.kind == LIGHT:
        ok = result.agreed and bool(np.array_equal(key_a, key_b))
        return ok, (
            f"private slot={result.slot_index} start={result.start_index_alice} "
            f"key={broadcast.bits_to_hex(key_a)}"
        )
    ok = result.agreed and key_a == key_b
    return ok, (
        f"pqdh p={result.p} flip={result.flip_index} window_retries={result.window_retries} "
        f"flip_retries={result.flip_retries} key={key_a}"
    )


# -- parity-scan ----------------------------------------------------------------

_PRNG_BITS = 256
_PRNG_ZERO_TOL = 0.15  # about 5 standard deviations at 256 bits
_SCAN_BOUND = 10_000
_SCAN_TOL = 0.08  # about 6 standard deviations at the ~1 200 primes below 10^4
_SCAN_DEGREES = (6, 3, 2, 1)
_EVEN_DENSITY = {6: 2 / 3, 3: 1 / 3, 2: 1.0, 1: 1.0}


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def curve_of_degree(degree: int, rng: np.random.Generator) -> tuple[int, int]:
    """Coefficients (a, b) of x^3 + ax + b whose splitting field over Q has the
    given degree, built so that the degree is known without the library."""
    while True:
        if degree == 1:
            # Three distinct integer roots summing to zero.
            r1, r2 = (int(v) for v in rng.integers(-40, 41, size=2))
            r3 = -(r1 + r2)
            if len({r1, r2, r3}) < 3:
                continue
            return r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        if degree == 2:
            # One integer root r times an irreducible x^2 + rx + c.
            r, c = (int(v) for v in rng.integers(-40, 41, size=2))
            if _is_square(r * r - 4 * c) or 2 * r * r + c == 0:
                continue
            return c - r * r, -r * c
        if degree == 3:
            # Shanks' simplest cubic x^3 - nx^2 - (n+3)x - 1 at n = 3t, shifted by
            # t: irreducible, cubic discriminant (n^2 + 3n + 9)^2.
            t = int(rng.integers(0, 200))
            return -3 * (t * t + t + 1), -(2 * t**3 + 3 * t * t + 3 * t + 1)
        # Eisenstein at q makes the cubic irreducible; a non-square cubic
        # discriminant then makes the degree 6.
        q = int(rng.choice((2, 3, 5, 7)))
        a = q * int(rng.integers(-30, 31))
        b = q * int(rng.integers(-30, 31))
        if b % (q * q) == 0 or _is_square(-4 * a**3 - 27 * b * b):
            continue
        return a, b


def _parity_inputs(seed, pass_index, kinds, op_seeds):
    rng = seeds.derive_rng(seed, "parity-scan", pass_index, "curves")
    used = set()
    ops = []
    heavy = 0
    for kind, op_seed in zip(kinds, op_seeds):
        if kind == LIGHT:
            ops.append(Op(kind, op_seed, (_PRNG_BITS,)))
            continue
        degree = _SCAN_DEGREES[heavy % len(_SCAN_DEGREES)]
        heavy += 1
        curve = curve_of_degree(degree, rng)
        while curve in used:
            curve = curve_of_degree(degree, rng)
        used.add(curve)
        ops.append(Op(kind, op_seed, (degree, *curve)))
    return ops


def _parity_run(op: Op):
    if op.kind == LIGHT:
        (n_bits,) = op.params
        return ecurve.parity_prng(op.seed, n_bits)
    _, a, b = op.params
    return ecurve.parity_density_scan(ecurve.Curve(a, b), _SCAN_BOUND)


def _parity_check(op: Op, result) -> tuple[bool, str]:
    if op.kind == LIGHT:
        (n_bits,) = op.params
        zero_fraction = float((result == 0).mean())
        ok = result.shape == (n_bits,) and abs(zero_fraction - 2 / 3) <= _PRNG_ZERO_TOL
        return ok, f"prng bits={broadcast.bits_to_hex(result)}"
    degree, a, b = op.params
    ok = abs(result.even_fraction - _EVEN_DENSITY[degree]) <= _SCAN_TOL
    return ok, (
        f"scan a={a} b={b} scanned={result.primes_scanned} "
        f"even={result.even_fraction!r} odd={result.odd_prime_count} "
        f"bad={','.join(map(str, result.excluded_bad_primes))}"
    )


# -- coinflip-sessions -------------------------------------------------------------

_COINFLIP_B = {LIGHT: 256, HEAVY: 4096}
_COINFLIP_K = 3
_COINFLIP_MAX_ROUNDS = 64
_COINFLIP_CHALLENGE_FACTOR = 10


def _coinflip_inputs(seed, pass_index, kinds, op_seeds):
    return [Op(kind, op_seed, (_COINFLIP_B[kind],)) for kind, op_seed in zip(kinds, op_seeds)]


def _coinflip_run(op: Op):
    (b_value,) = op.params
    rng = np.random.default_rng(op.seed)
    return coinflip.run_session(
        b_value, _COINFLIP_K, _COINFLIP_MAX_ROUNDS, rng, _COINFLIP_CHALLENGE_FACTOR
    )


def _coinflip_check(op: Op, result) -> tuple[bool, str]:
    (b_value,) = op.params
    transcript = hashlib.sha256(result.transcript.render().encode()).hexdigest()
    curve = result.session.curve
    return result.verified.ok, (
        f"coinflip B={b_value} curve={curve.a},{curve.b} verdict={result.verdict} "
        f"trials={result.n_trials} transcript={transcript}"
    )


# -- adversary -----------------------------------------------------------------------
# Storage settings of acceptance criterion 08.

_EVE_SPAN = 2048
_EVE_SETTINGS = ((8, 0.25), (8, 0.5), (128, 0.25), (128, 0.5))
_GRID_DEPTH = 10


def _adversary_inputs(seed, pass_index, kinds, op_seeds):
    broadcast_seed = seeds.derive_seed(seed, "adversary", pass_index, "broadcast")
    ops = []
    light = 0
    for kind, op_seed in zip(kinds, op_seeds):
        if kind == LIGHT:
            length, fraction = _EVE_SETTINGS[light % len(_EVE_SETTINGS)]
            light += 1
            ops.append(Op(kind, op_seed, (broadcast_seed, length, fraction)))
        else:
            ops.append(Op(kind, op_seed, (_GRID_DEPTH,)))
    return ops


def _adversary_run(op: Op):
    rng = np.random.default_rng(op.seed)
    if op.kind == LIGHT:
        broadcast_seed, length, fraction = op.params
        source = broadcast.BroadcastSource(seed=broadcast_seed, bitrate=_BITRATE)
        target = broadcast.Receiver("target", 0.0, Clock(0.0))
        start_index = (_EVE_SPAN - length) // 2
        window = broadcast.KeyWindow((start_index + 0.5) * source.bit_period_ns, length)
        view = broadcast.eve_store(source, window, 0, _EVE_SPAN, fraction, rng)
        return broadcast.eve_recover(view, source, target)
    (depth,) = op.params
    true_key = int(rng.integers(1 << depth))
    return true_key, qwalk.keyspace_grid_attack(true_key, depth)


def _adversary_check(op: Op, result) -> tuple[bool, str]:
    if op.kind == LIGHT:
        _, length, fraction = op.params
        known = result.known_bits
        ok = 0 <= known <= length and int((result.recovered >= 0).sum()) == known
        return ok, (
            f"eve L={length} f={fraction} known={known} "
            f"recovered={result.recovered.tobytes().hex()}"
        )
    (depth,) = op.params
    true_key, attack = result
    ok = attack.keyspace_size == 1 << depth and 0.0 < attack.p_star <= 1.0
    return ok, f"grid key={true_key} t_star={attack.t_star} p_star={attack.p_star!r}"


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object  # (seed, pass_index, kinds, op_seeds) -> list[Op]
    run: object  # Op -> library result; the only timed part of an op
    check: object  # (Op, result) -> (ok, canonical output line)

    def generate(self, seed: int, pass_index: int) -> list[Op]:
        """The ops of one pass; a pure function of (seed, pass_index)."""
        kinds = _pass_order(seed, self.name, pass_index)
        return self.inputs(seed, pass_index, kinds, _op_seeds(seed, self.name, pass_index))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("protocol-sessions", _protocol_inputs, _protocol_run, _protocol_check),
        Workload("parity-scan", _parity_inputs, _parity_run, _parity_check),
        Workload("coinflip-sessions", _coinflip_inputs, _coinflip_run, _coinflip_check),
        Workload("adversary", _adversary_inputs, _adversary_run, _adversary_check),
    )
}


def pass_digest(lines: list[str]) -> str:
    """Digest of one pass's canonical op outputs, in op order."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
