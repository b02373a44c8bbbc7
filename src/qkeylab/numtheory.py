"""Small number-theory helpers: primality, prime sieves, random primes."""
from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import DomainError, ResourceError

# Miller-Rabin witnesses: the first k prime bases leave no strong pseudoprime
# below psi_k (OEIS A014233; psi_12 and psi_13 from Sorenson-Webster 2015), so
# n < psi_k needs only those k; stopping at 37 accepts psi_12 ~ 3.19e23 itself.
# From psi_13 on, chosen composites pass all 13 bases (Arnault 1995), so a
# strong Lucas test follows them there.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_1..psi_13 (psi_7 = psi_8 and psi_9 = psi_10 = psi_11).
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# A b-bit search tests about b*ln(2)/2 candidates at O(b^3) each: about 1 s at 1024.
MAX_PRIME_BITS = 1024
# The largest sieve bound: a 32 MB mask. parity_prng at MAX_SCAN bits sieves to
# about 2.2e7, the coin-flip challenge sieve to MAX_TABLE_PRIME = 2^22.
MAX_SIEVE = 1 << 25


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin over the first k prime bases for n < psi_k, deterministic
    below psi_13 ~ 3.3e24; from psi_13 on, all 13 bases 2..41 and a strong
    Lucas test (Baillie-PSW, which has no known counterexample)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[: bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI[-1] or _is_strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of an odd n > 1 with Selfridge's parameters: D the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D) / 4
    (Baillie-Wagstaff 1980). Composites such as 5459 pass it; it is only
    sound after Miller-Rabin."""
    if math.isqrt(n) ** 2 == n:  # no D with (D/n) = -1 exists
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):  # x / 2 mod n, n odd
        x %= n
        return (x + n if x & 1 else x) // 2

    # U_k, V_k, Q^k mod n from k = 1 up to k = d, one bit of d at a time.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def random_below(bound: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, bound), byte-sampled so bound may exceed 64 bits
    (up to MAX_PRIME_BITS bits, checked before any draw).

    Adds 8 bytes of headroom, keeping the modulo bias below 2^-64.
    """
    if bound < 1:
        raise DomainError(f"need a positive bound, got {bound}")
    if bound.bit_length() > MAX_PRIME_BITS:
        raise ResourceError(f"bound of {bound.bit_length()} bits exceeds the cap {MAX_PRIME_BITS}")
    width = (bound.bit_length() + 7) // 8 + 8
    return int.from_bytes(rng.bytes(width), "big") % bound


def random_prime(bits: int, rng: np.random.Generator) -> int:
    """Random prime with exactly `bits` bits (top bit set)."""
    if bits < 2:
        raise DomainError(f"need bits >= 2, got {bits}")
    if bits > MAX_PRIME_BITS:
        raise ResourceError(f"prime size {bits} bits exceeds the cap {MAX_PRIME_BITS}")
    while True:
        raw = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
        candidate = (raw | (1 << (bits - 1)) | 1) & ((1 << bits) - 1)
        if is_probable_prime(candidate):
            return candidate


_sieve_cache: dict = {"limit": 0, "primes": np.empty(0, dtype=np.int64)}


def primes_up_to(bound: int) -> np.ndarray:
    """All primes <= bound as an int64 array (sieve, cached and grown;
    bound <= MAX_SIEVE)."""
    if bound > MAX_SIEVE:
        raise ResourceError(f"sieve bound {bound} exceeds the cap {MAX_SIEVE}")
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    if _sieve_cache["limit"] < bound:
        limit = min(max(bound, 2 * _sieve_cache["limit"], 1 << 10), MAX_SIEVE)
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        _sieve_cache["limit"] = limit
        _sieve_cache["primes"] = np.nonzero(mask)[0].astype(np.int64)
    primes = _sieve_cache["primes"]
    return primes[: int(np.searchsorted(primes, bound, side="right"))]
