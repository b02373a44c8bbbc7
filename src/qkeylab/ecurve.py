"""Elliptic curves y^2 = x^3 + ax + b over prime fields, at desk scale.

One parity path: parity scans, the parity-stream generator and coin-flip
trials need only a_p mod 2, which costs O(log p) per prime: p + 1 is even, so
a_p is even exactly when #E(F_p) is, that is, when E has a point of order 2
over F_p, a point (r, 0) with r a root of x^3 + ax + b mod p. `_trace_is_even`
reads the root count mod p off the trace of Frobenius on F_p[x]/(f), from
x^p mod (f, p), for one prime (an int) or an array of primes at once; its
products are summed before one reduction, below 4p^2, in the narrowest exact
dtype, so any good prime is exact. Only the coefficients a(p) of the
sequence a(1..m) need exact counts: `_affine_counts`, the one point-count
kernel, counts the affine points of the cubic at every odd prime <= m at
once, in blocks of consecutive primes that share one quadratic-residue table
pass, and a(p) = p - count at good and bad primes alike. The parts of a block
that do not depend on the curve (x, x^2 mod p and the square counts) are
built on first use and kept, up to `_COUNT_TABLE_BYTES` = 2 MB, beside the
memo of sequences (at most 32 MB), so a run of curves over the same primes
builds them once. The remaining
pieces are the splitting-degree classification of the cubic over the
rationals, parity-density scans, and a deterministic parity-stream generator
whose zero frequency tends to 2/3.

Discriminant sign convention: `Curve.discriminant` is 4a^3 + 27b^2 (used for
good/bad prime tests and the commitment interval in the coin-flip protocol);
the discriminant of the cubic polynomial itself is its negative, and that is
what the perfect-square test in `splitting_degree` uses.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .numtheory import primes_up_to

_ODD_SAMPLE_CAP = 32
MAX_SCAN = 10**6  # largest prime bound of a parity scan and length of a parity stream
MAX_TABLE_PRIME = 1 << 22  # largest coin-flip challenge prime: the bound of the challenge sieve
MAX_ZETA_LENGTH = 1 << 16  # a(1..m) costs ~m^2 / log m; m = 6^7 took minutes
_ZETA_MEMO = 64  # coefficient sequences kept by `zeta_coefficients`: at most 32 MB
_COUNT_BLOCK = 1 << 13  # (p, x) pairs per block of `_affine_counts`: 64 kB per int64 array, 40 kB held
# Bytes of block tables `_count_tables` keeps beside the memo's 32 MB, never
# evicted: 5 B per (p, x) pair (int16 x and x^2 mod p, int8 square counts) in
# a block of at most 2^15 pairs, 9 B above. 2 MB holds every odd prime up to
# 2 473, so each block of m = 512 and m = 1 728; a block past it is built for
# its one call.
_COUNT_TABLE_BYTES = 1 << 21
_SCALAR_COEFFS = 1 << 31  # |a|, |b| below it enter the count as ints: (x^2 + a) x + b stays below 2^48
_SELECT_BOUND = 16  # select_curve draws a and b from [-16, 16]
_SELECT_BUDGET = 10_000  # draws select_curve makes before it gives up


@dataclass(frozen=True)
class Curve:
    a: int
    b: int

    def __post_init__(self):
        if self.discriminant == 0:
            raise DomainError(f"singular curve: 4a^3 + 27b^2 = 0 for (a,b)=({self.a},{self.b})")

    @property
    def discriminant(self) -> int:
        return 4 * self.a**3 + 27 * self.b**2


# -- splitting degree of the cubic over Q -------------------------------------


def _integer_roots(a: int, b: int) -> list[int]:
    # Monic integer cubic: its rational roots are integers. Bisect each run of
    # integers on which f is monotone, so coefficients of any size are exact.
    def f(x):
        return x * x * x + a * x + b

    def root_between(lo, hi, sign):  # sign * f increases on [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo if f(lo) == 0 else None

    bound = 1 + abs(a) + abs(b)  # Cauchy bound on |root|
    if a >= 0:
        runs = [(-bound, bound, 1)]
    else:
        c = math.isqrt((-a - 1) // 3) + 1  # least c >= 0 with 3c^2 >= -a: f' >= 0 for |x| >= c
        runs = [(-bound, -c, 1), (1 - c, c - 1, -1), (c, bound, 1)]
    return [r for r in (root_between(*run) for run in runs) if r is not None]


def splitting_degree(a: int, b: int) -> int:
    """Degree over Q of the field generated by all roots of x^3 + ax + b.

    Returns 1 (splits rationally), 2 (one rational root), 3 (irreducible,
    cubic discriminant a perfect square), or 6 (irreducible, non-square).
    """
    if 4 * a**3 + 27 * b**2 == 0:
        raise DomainError("cubic has a repeated root (zero discriminant)")
    n_roots = len(_integer_roots(a, b))
    if n_roots == 3:
        return 1
    if n_roots == 1:
        return 2
    disc = -4 * a**3 - 27 * b**2
    if disc > 0 and math.isqrt(disc) ** 2 == disc:
        return 3
    return 6


# -- multiplicative coefficient sequence --------------------------------------


@dataclass(frozen=True)
class ZetaCoeffs:
    """First m coefficients a(1..m); a(n) = values[n-1]."""

    m: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", values)
        if values.shape != (self.m,):
            raise DomainError(f"expected {self.m} values, got {values.shape}")
        if self.m >= 1 and values[0] != 1:
            raise DomainError("a(1) must be 1")


def zeta_coefficients(curve: Curve, m: int) -> ZetaCoeffs:
    """a(1..m): a(p) from the curve, prime powers by the standard recursion
    a(p^k) = a(p) a(p^(k-1)) - p a(p^(k-2)) at good primes (a(p)^k at bad
    ones), multiplicativity everywhere else.

    Every a(p) but a(2) = 0 is p minus the affine count of one blocked
    residue-table pass over the odd primes <= m (`_affine_counts`). At a bad
    prime the singular cubic has p, p - 1 or p + 1 affine points (cusp,
    split or non-split node; Silverman, GTM 106, Prop. III.2.5), so that is
    the reduction type 0, 1 or -1. Primes above sqrt(m) divide each n <= m
    at most once, so one array product per cofactor places them.

    m is capped at `MAX_ZETA_LENGTH` = 2^16. Each sequence is computed once
    per process and shared: `values` is a read-only array (copy it to change
    it). The memo keeps the last `_ZETA_MEMO` = 64 sequences, at most
    64 * 2^16 * 8 B = 32 MB. The count's curve-independent block tables are
    kept too, up to `_COUNT_TABLE_BYTES` = 2 MB, so a fresh sequence over
    primes seen before builds none of them.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    if m > MAX_ZETA_LENGTH:
        raise ResourceError(f"sequence length {m} exceeds the cap {MAX_ZETA_LENGTH}")
    return ZetaCoeffs(m, _zeta_values(curve.a, curve.b, m))


def _affine_counts(curve: Curve, primes: np.ndarray) -> np.ndarray:
    """The affine points of y^2 = x^3 + ax + b (#E(F_p) - 1 at a good prime)
    at each odd prime, good or bad, of the int64 array `primes` (each
    p <= MAX_ZETA_LENGTH), from residue tables.

    Runs of consecutive primes whose sum is at most `_COUNT_BLOCK` share one
    table of (p, x) pairs, x = 0..p-1 for each p in turn from offset `start`,
    so no int64 array exceeds 64 kB; a larger prime is a block of its own.
    In the same layout, points[start + v] is the number of y with y^2 = v
    mod p: 2 at the nonzero squares x^2, 1 at 0. Each prime's count is the
    sum of points[start + f(x)], with f(x) = (x^2 + a) x + b reduced once.
    x, x^2 mod p and `points` depend only on the block's primes, so they come
    from `_count_tables`, which holds at most `_COUNT_TABLE_BYTES` = 2 MB of
    them. a and b enter as ints below `_SCALAR_COEFFS` = 2^31, so f(x) stays
    below 2^48, and as residues mod p otherwise: int64 is exact either way.
    """
    residues = max(abs(curve.a), abs(curve.b)) >= _SCALAR_COEFFS
    a, b = (_residues(curve.a, primes), _residues(curve.b, primes)) if residues else (curve.a, curve.b)
    ends = np.cumsum(primes)
    starts = ends - primes
    counts = np.empty(len(primes), dtype=np.int64)
    lo = 0
    while lo < len(primes):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _COUNT_BLOCK, side="right")))
        p = primes[lo:hi]
        offsets = starts[lo:hi] - starts[lo]
        start, pp = np.repeat(offsets, p), np.repeat(p, p)
        x, x2, points = _count_tables(p, offsets, start, pp)
        ca, cb = (np.repeat(a[lo:hi], p), np.repeat(b[lo:hi], p)) if residues else (a, b)
        t = np.add(x2, ca, dtype=np.int64)
        t *= x
        t += cb
        t %= pp
        t += start
        counts[lo:hi] = np.add.reduceat(points[t], offsets, dtype=np.int64)
        lo = hi
    return counts


class _TableCache:
    """x, x^2 mod p and the square counts of each block of `_affine_counts`,
    keyed by the block's primes, so a block of any `_COUNT_BLOCK` layout is
    found only by the same primes. Filled once and never evicted: a block
    that would take the held bytes past `_COUNT_TABLE_BYTES` is built in
    int64 for its one call and dropped, as an LRU over a layout larger than
    the bound would drop every block before its next use. Kept blocks are
    narrowed to int16 up to 2^15 pairs, int32 above: each x and x^2 mod p is
    below the block's length."""

    def __init__(self):
        self.blocks = {}
        self.nbytes = self.hits = self.misses = 0

    def __call__(self, p, offsets, start, pp):
        key = p.tobytes()
        if key in self.blocks:
            self.hits += 1
            return self.blocks[key]
        self.misses += 1
        x = np.arange(len(pp), dtype=np.int64)
        x -= start
        x2 = x * x
        x2 %= pp
        points = np.zeros(len(pp), dtype=np.int8)
        points[start + x2] = 2
        points[offsets] = 1
        narrow = np.dtype(np.int16 if len(pp) <= 1 << 15 else np.int32)
        size = len(pp) * (2 * narrow.itemsize + 1)
        if self.nbytes + size > _COUNT_TABLE_BYTES:
            return x, x2, points
        self.nbytes += size
        tables = self.blocks[key] = (x.astype(narrow), x2.astype(narrow), points)
        return tables


_count_tables = _TableCache()


@functools.lru_cache(maxsize=_ZETA_MEMO)
def _zeta_values(a: int, b: int, m: int) -> np.ndarray:
    curve = Curve(a, b)
    primes = primes_up_to(m)
    bad = _residues(curve.discriminant, primes) == 0
    ap = np.zeros(len(primes), dtype=np.int64)  # a(2) = 0: one y for each x over F_2
    ap[1:] = primes[1:] - _affine_counts(curve, primes[1:])
    values = np.ones(m + 1, dtype=np.int64)
    root = math.isqrt(m)
    n_small = int(np.searchsorted(primes, root, side="right"))
    for p, a_p, good in zip(primes[:n_small].tolist(), ap[:n_small].tolist(), (~bad[:n_small]).tolist()):
        # part[j - 1] ends as a(p^k) for the power p^k that exactly divides j * p.
        part = np.full(m // p, a_p, dtype=np.int64)
        q, prev, prev2 = p, a_p, 1
        while q * p <= m:
            nxt = a_p * prev - p * prev2 if good else a_p * prev
            part[q - 1 :: q] = nxt
            q *= p
            prev2, prev = prev, nxt
        values[p::p] *= part
    # A prime p > sqrt(m) divides n <= m at most once, with cofactor k <= m / p.
    large, a_large = primes[n_small:], ap[n_small:]
    for k in range(1, m // (root + 1) + 1):
        n = int(np.searchsorted(large, m // k, side="right"))
        values[k * large[:n]] *= a_large[:n]
    values.flags.writeable = False
    return values[1:]


# -- parity densities  ---------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    x_bound: int
    primes_scanned: int
    even_fraction: float
    excluded_bad_primes: tuple[int, ...]
    odd_prime_count: int
    odd_primes_sample: tuple[int, ...]


def _residues(n: int, primes):
    """n mod p for each p < 2^32 of an int64 array (or one int p), exact for a
    Python int n of any size: Horner's rule over 31-bit limbs keeps every
    partial value below 2^63."""
    r = primes * 0
    m = abs(n)
    for shift in range(m.bit_length() // 31 * 31, -1, -31):
        r = ((r << 31) + ((m >> shift) & 0x7FFFFFFF)) % primes
    return r if n >= 0 else -r % primes


def _trace_is_even(curve: Curve, primes):
    """Whether a_p is even at each good prime of `primes`: a bool for an int,
    a bool array for an array.

    a_p is even iff f = x^3 + ax + b has a root mod p, or p = 2 (a_2 = 0: in
    characteristic 2 each x has one y). One square-and-multiply pass over the
    bits of max(primes), selecting with c + bit * (s - c), computes x^p =
    c0 + c1 x + c2 x^2 in F_p[x]/(f) for every prime at once. In the basis
    1, x, x^2, Frobenius g -> g^p has trace T = 1 + c1 + [x^2](x^p)^2, and
    T = r mod p for the number r in {0, 1, 3} of roots (Berlekamp's Q-matrix),
    so T != 0 decides p > 3; at p = 3, r = 3 shows as x^p = x. Products of
    residues are summed, then reduced once, so every value stays below 4p^2.
    Any good prime is exact: an int runs on Python ints, and an array (primes
    below 2^32, as `_residues` needs) in the narrowest dtype that holds
    4 max(p)^2: int32 up to p = 23 167, int64 up to about 1.5e9, else object.
    """
    p = top = primes
    na, nb = -_residues(curve.a, p) % p, -_residues(curve.b, p) % p
    if isinstance(p, np.ndarray):
        top = int(p.max(initial=0))
        bound = 4 * top**2
        dtype = np.int32 if bound < 1 << 31 else np.int64 if bound < 1 << 63 else object
        p, na, nb = p.astype(dtype), na.astype(dtype), nb.astype(dtype)
    c0, c1, c2 = p * 0 + 1, p * 0, p * 0
    for i in range(top.bit_length() - 1, -1, -1):
        # Square, folding x^4 = -ax^2 - bx and x^3 = -ax - b back in.
        d3, d4 = 2 * c1 * c2 % p, c2 * c2 % p
        c0, c1, c2 = (
            (c0 * c0 + nb * d3) % p,
            (2 * c0 * c1 + nb * d4 + na * d3) % p,
            (2 * c0 * c2 + c1 * c1 + na * d4) % p,
        )
        # Multiply by x where bit i of p is set: x^3 again folds to -ax - b.
        bit, s0, s1 = (p >> i) & 1, nb * c2 % p, (c0 + na * c2) % p
        c0, c1, c2 = c0 + bit * (s0 - c0), c1 + bit * (s1 - c1), c2 + bit * (c1 - c2)
    trace = (1 + c1 + 2 * c0 * c2 + c1 * c1 + na * (c2 * c2 % p)) % p
    return (trace != 0) | (c0 == 0) & (c1 == 1) & (c2 == 0) | (p == 2)


def _good_primes(curve: Curve, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(good, bad): the primes > 3 of `primes` that do not and that do divide
    the discriminant."""
    primes = primes[primes > 3]
    bad = _residues(curve.discriminant, primes) == 0
    return primes[~bad], primes[bad]


def parity_density_scan(curve: Curve, x_bound: int) -> DensityReport:
    """Fraction of good primes p <= x_bound with even trace.

    Primes 2 and 3 are always skipped (the short model is unreliable there);
    primes dividing the discriminant are excluded and listed. The density
    tends to 2/3 for splitting degree 6 curves, 1/3 for degree 3, and 1 for
    degrees 1 and 2 (up to finitely many exceptional primes, sampled below).
    """
    if x_bound < 100:
        raise DomainError(f"need a scan bound >= 100, got {x_bound}")
    if x_bound > MAX_SCAN:
        raise ResourceError(f"scan bound {x_bound} exceeds the cap {MAX_SCAN}")
    good, bad = _good_primes(curve, primes_up_to(x_bound))
    if len(good) == 0:
        raise DomainError("no good primes in range")
    even = _trace_is_even(curve, good)
    odd_primes = good[~even]
    return DensityReport(
        x_bound=x_bound,
        primes_scanned=len(good),
        even_fraction=int(even.sum()) / len(good),
        excluded_bad_primes=tuple(bad.tolist()),
        odd_prime_count=len(odd_primes),
        odd_primes_sample=tuple(odd_primes[:_ODD_SAMPLE_CAP].tolist()),
    )


# -- parity-stream pseudorandom generator -------------------------------------


def select_curve(seed: int) -> Curve:
    """Deterministically pick a splitting-degree-6 curve from a seeded scan."""
    if seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    for _ in range(_SELECT_BUDGET):
        a = int(rng.integers(-_SELECT_BOUND, _SELECT_BOUND + 1))
        b = int(rng.integers(-_SELECT_BOUND, _SELECT_BOUND + 1))
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        if splitting_degree(a, b) == 6:
            return Curve(a, b)
    raise ResourceError("no degree-6 curve found within the search budget")


def parity_prng(seed: int, n_bits: int) -> np.ndarray:
    """Deterministic bit stream: bit i is the trace parity at the i-th good
    prime of the degree-6 curve `select_curve(seed)`. Zeros appear with
    asymptotic frequency 2/3 (ones 1/3)."""
    if n_bits < 1:
        raise DomainError(f"need n_bits >= 1, got {n_bits}")
    if n_bits > MAX_SCAN:
        raise ResourceError(f"stream length {n_bits} exceeds the cap {MAX_SCAN}")
    curve = select_curve(seed)
    chunks, filled = [], 0
    lo, hi = 0, max(100, int(1.3 * n_bits * (math.log(n_bits + 2) + 3)))
    while filled < n_bits:
        primes = primes_up_to(hi)
        good, _ = _good_primes(curve, primes[primes > lo])
        good = good[: n_bits - filled]
        chunks.append(~_trace_is_even(curve, good))
        filled += len(good)
        lo, hi = hi, int(hi * 1.5)  # bad primes ate the estimate: scan only the next stretch
    return np.concatenate(chunks).astype(np.uint8)
