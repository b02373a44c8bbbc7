"""Small number-theory helpers: primality, prime sieves, random primes."""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResourceError

# Deterministic Miller-Rabin witnesses: the primes up to 41 leave no strong
# pseudoprime below psi_13 ~ 3.3e24 (Sorenson-Webster 2015), far beyond the
# 64-bit moduli used here; stopping at 37 accepts psi_12 ~ 3.19e23 itself.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# A b-bit search tests about b*ln(2)/2 candidates at O(b^3) each: about 1 s at 1024.
MAX_PRIME_BITS = 1024


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin over the prime bases 2..41 (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_below(bound: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, bound), byte-sampled so bound may exceed 64 bits.

    Adds 8 bytes of headroom, keeping the modulo bias below 2^-64.
    """
    if bound < 1:
        raise DomainError(f"need a positive bound, got {bound}")
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
    """All primes <= bound as an int64 array (sieve, cached and grown)."""
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    if _sieve_cache["limit"] < bound:
        limit = max(bound, 2 * _sieve_cache["limit"], 1 << 10)
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        _sieve_cache["limit"] = limit
        _sieve_cache["primes"] = np.nonzero(mask)[0].astype(np.int64)
    primes = _sieve_cache["primes"]
    return primes[: int(np.searchsorted(primes, bound, side="right"))]


_spf_cache: dict = {"limit": 0, "spf": np.zeros(1, dtype=np.int64)}


def smallest_prime_factors(bound: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n, for 0 <= n <= bound (spf[0..1] = 0).

    A read-only view of a sieve that is cached and grown like `primes_up_to`'s.
    """
    if _spf_cache["limit"] < bound:
        limit = max(bound, 2 * _spf_cache["limit"], 1 << 10)
        spf = np.zeros(limit + 1, dtype=np.int64)
        primes = primes_up_to(limit)
        # Largest prime first, so each composite keeps the smallest factor written.
        for p in primes[primes <= math.isqrt(limit)][::-1].tolist():
            spf[p * p :: p] = p
        spf[primes] = primes
        spf.flags.writeable = False
        _spf_cache["limit"] = limit
        _spf_cache["spf"] = spf
    return _spf_cache["spf"][: max(bound + 1, 0)]
