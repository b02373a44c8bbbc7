"""Coin flipping over a telephone line, committed through curve coefficients.

One party (Alice) commits to a secret curve by publishing the first m
coefficients of its multiplicative trace sequence; the other (Bob) challenges
with primes beyond the committed range. The parity pair at the challenge
primes decides the toss: (odd, even) is heads, (even, odd) is tails, anything
else is retried. Each parity comes from the O(log p) root test of
`ecurve._trace_is_even`; only the commitment needs point counts. After the
verdict Alice reveals the curve and Bob recomputes everything she ever sent.

For a degree-6 curve parities are odd with asymptotic frequency 1/3, so each
trial decides with probability about 2/9 + 2/9 = 4/9 and, when it decides,
heads and tails are equally likely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ecurve import (
    MAX_TABLE_PRIME,
    MAX_ZETA_LENGTH,
    Curve,
    ZetaCoeffs,
    _trace_is_even,
    splitting_degree,
    zeta_coefficients,
)
from .errors import DomainError, ResourceError
from .numtheory import is_probable_prime, primes_up_to
from .transcript import Transcript

HEADS = "heads"
TAILS = "tails"
RETRY = "retry"
UNDECIDED = "undecided"

_SETUP_BUDGET = 200_000
MAX_COMMITMENT = MAX_ZETA_LENGTH  # the commitment is a coefficient sequence a(1..m)


@dataclass(frozen=True)
class Trial:
    p: int
    p_prime: int
    parities: tuple[int, int] | None  # None: p or p' divides the discriminant, a retry
    verdict: str


@dataclass
class CoinFlipSession:
    """State of one protocol run; `curve` is Alice-private until reveal."""

    B: int
    k: int
    m: int
    curve: Curve
    commitment: ZetaCoeffs
    rounds: list[Trial] = field(default_factory=list)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failure: str | None = None
    first_mismatch: int | None = None


@dataclass(frozen=True)
class SessionResult:
    verdict: str
    n_trials: int
    session: CoinFlipSession
    verified: VerifyResult
    transcript: Transcript


def commitment_length(B: int, k: int) -> int:
    """m = floor(log2(B)^k), for B >= 2 and k >= 1, up to 2^64."""
    if B < 2 or k < 1:
        raise DomainError(f"need B >= 2 and k >= 1, got B={B}, k={k}")
    # Test in log space first: log2(B)^k overflows a float long before k is large.
    if k * math.log2(math.log2(B)) > 64:
        raise ResourceError(f"commitment length log2({B})^{k} exceeds 2^64")
    return int(math.floor(math.log2(B) ** k))


def alice_setup(B: int, k: int, rng: np.random.Generator, challenge_factor: int = 10) -> CoinFlipSession:
    """Pick a degree-6 curve with discriminant in [B, 2B] and commit to it."""
    if B < 16:
        raise DomainError(f"need B >= 16, got {B}")
    if k < 3:
        raise DomainError(f"need k >= 3, got {k}")
    if (m := commitment_length(B, k)) > MAX_COMMITMENT:
        raise ResourceError(f"commitment length log2({B})^{k} exceeds the cap {MAX_COMMITMENT}")
    _check_challenge_range(m, challenge_factor)
    a_cap = int((B / 2) ** (1 / 3)) + 1
    b_cap = math.isqrt(2 * B // 27) + 1
    for _ in range(_SETUP_BUDGET):
        a = int(rng.integers(-a_cap, a_cap + 1))
        b = int(rng.integers(-b_cap, b_cap + 1))
        disc = 4 * a**3 + 27 * b**2
        if not B <= disc <= 2 * B:
            continue
        if splitting_degree(a, b) != 6:
            continue
        curve = Curve(a, b)
        return CoinFlipSession(
            B=B,
            k=k,
            m=m,
            curve=curve,
            commitment=zeta_coefficients(curve, m),
        )
    raise ResourceError(f"no qualifying curve with discriminant in [{B}, {2 * B}]; enlarge B")


def _check_challenge_range(m: int, challenge_factor: int) -> None:
    """Refuse a challenge sieve past the cap, before it is built."""
    if challenge_factor * m > MAX_TABLE_PRIME:
        raise ResourceError(
            f"challenge primes up to {challenge_factor * m} exceed the cap {MAX_TABLE_PRIME}"
        )


def bob_choose_primes(
    m: int, rng: np.random.Generator, challenge_factor: int = 10
) -> tuple[int, int]:
    """Two random primes m < p < p' drawn from (m, challenge_factor * m]."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    _check_challenge_range(m, challenge_factor)
    pool = primes_up_to(challenge_factor * m)
    pool = pool[pool > m]
    if len(pool) < 2:
        raise DomainError(f"fewer than two primes in ({m}, {challenge_factor * m}]")
    picks = rng.choice(len(pool), size=2, replace=False)
    p, p_prime = sorted(int(pool[i]) for i in picks)
    return p, p_prime


def _challenge_error(m: int, p: int, p_prime: int) -> str | None:
    """Why (p, p') is not a valid challenge beyond the commitment m, or None."""
    if not m < p < p_prime:
        return f"need m < p < p', got m={m}, p={p}, p'={p_prime}"
    if not (is_probable_prime(p) and is_probable_prime(p_prime)):
        return "challenge values must be prime"
    return None


def _judge(curve: Curve, p: int, p_prime: int) -> Trial:
    """The trial at (p, p'): a retry if either prime divides the discriminant,
    else (1, 0) is heads, (0, 1) is tails and any other parity pair a retry,
    where a parity is the curve's trace parity at that prime."""
    if curve.discriminant % p == 0 or curve.discriminant % p_prime == 0:
        return Trial(p, p_prime, None, RETRY)
    parities = (int(not _trace_is_even(curve, p)), int(not _trace_is_even(curve, p_prime)))
    return Trial(p, p_prime, parities, {(1, 0): HEADS, (0, 1): TAILS}.get(parities, RETRY))


def run_trial(session: CoinFlipSession, p: int, p_prime: int) -> Trial:
    """Alice evaluates the parity pair at (p, p') and maps it to a verdict."""
    if error := _challenge_error(session.m, p, p_prime):
        raise DomainError(error)
    trial = _judge(session.curve, p, p_prime)
    session.rounds.append(trial)
    return trial


def bob_verify(session: CoinFlipSession) -> VerifyResult:
    """Recompute everything from the revealed curve and check it matches.

    Covers the setup constraints (discriminant interval, degree 6, commitment
    length), every committed coefficient, and every trial's challenge,
    parities and verdict. On a commitment mismatch, `first_mismatch` is the
    first index n whose coefficient disagrees; on a trial mismatch, the
    trial's index.
    """
    curve = session.curve
    disc = curve.discriminant
    if not session.B <= disc <= 2 * session.B:
        return VerifyResult(False, "discriminant outside [B, 2B]")
    if splitting_degree(curve.a, curve.b) != 6:
        return VerifyResult(False, "curve is not splitting degree 6")
    try:
        length_ok = session.m == commitment_length(session.B, session.k)
    except (DomainError, ResourceError):  # a k no setup admits
        length_ok = False
    if not length_ok:
        return VerifyResult(False, "commitment length mismatch")
    recomputed = zeta_coefficients(curve, session.m)
    diff = np.nonzero(recomputed.values != session.commitment.values)[0]
    if len(diff):
        return VerifyResult(False, "commitment coefficient mismatch", int(diff[0]) + 1)
    for i, trial in enumerate(session.rounds):
        if error := _challenge_error(session.m, trial.p, trial.p_prime):
            return VerifyResult(False, f"trial {i}: {error}", i)
        expected = _judge(curve, trial.p, trial.p_prime)
        if expected != trial:
            return VerifyResult(False, f"trial {i}: parity or verdict mismatch", i)
    return VerifyResult(True)


def run_session(
    B: int,
    k: int,
    max_rounds: int,
    rng: np.random.Generator,
    challenge_factor: int = 10,
) -> SessionResult:
    """Drive a full session: commit, challenge until decided, reveal, verify."""
    if max_rounds < 1:
        raise DomainError(f"need max_rounds >= 1, got {max_rounds}")
    session = alice_setup(B, k, rng, challenge_factor)
    transcript = Transcript()
    commitment = ",".join(str(v) for v in session.commitment.values.tolist())
    transcript.add("commit", "alice", "public", commitment.encode())
    verdict = UNDECIDED
    for _ in range(max_rounds):
        p, p_prime = bob_choose_primes(session.m, rng, challenge_factor)
        transcript.add("challenge", "bob", "public", f"{p},{p_prime}".encode())
        trial = run_trial(session, p, p_prime)
        shown = "-" if trial.parities is None else f"{trial.parities[0]}{trial.parities[1]}"
        transcript.add("trial", "alice", "public", f"{shown},{trial.verdict}".encode())
        if trial.verdict in (HEADS, TAILS):
            verdict = trial.verdict
            break
    transcript.add("reveal", "alice", "public", f"{session.curve.a},{session.curve.b}".encode())
    verified = bob_verify(session)
    transcript.add("verify", "bob", "public", b"ok" if verified.ok else b"fail")
    return SessionResult(
        verdict=verdict,
        n_trials=len(session.rounds),
        session=session,
        verified=verified,
        transcript=transcript,
    )
