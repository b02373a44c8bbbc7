"""Elliptic curves y^2 = x^3 + ax + b over prime fields, at desk scale.

Two point-count paths. The exact count #E(F_p) is an O(p) quadratic-residue
table scan, capped at `MAX_TABLE_PRIME`; it gives the trace values
a_p = p + 1 - #E(F_p) and their multiplicative extension a_n to all indices.
Parity scans and the parity-stream generator need only a_p mod 2, which costs
O(log p) per prime: p + 1 is even, so a_p is even exactly when #E(F_p) is,
that is, when E has a point of order 2 over F_p, a point (r, 0) with r a root
of x^3 + ax + b mod p. `_trace_is_even` decides that for a whole array of
primes at once from x^p mod (f, p) and the quadratic character of the cubic's
discriminant. The remaining pieces are the splitting-degree classification of
the cubic over the rationals, parity-density scans, and a deterministic
parity-stream generator whose zero frequency tends to 2/3.

Discriminant sign convention: `Curve.discriminant` is 4a^3 + 27b^2 (used for
good/bad prime tests and the commitment interval in the coin-flip protocol);
the discriminant of the cubic polynomial itself is its negative, and that is
what the perfect-square test in `splitting_degree` and the root test use.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .numtheory import is_probable_prime, primes_up_to, smallest_prime_factors

_ODD_SAMPLE_CAP = 32
MAX_SCAN = 10**6  # largest prime bound of a parity scan and length of a parity stream
MAX_TABLE_PRIME = 1 << 22  # largest p for the O(p) tables (a few int64 arrays of length p)
_ZETA_MEMO = 64  # coefficient sequences kept by `zeta_coefficients`


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


def _check_table_size(p: int) -> None:
    if p > MAX_TABLE_PRIME:
        raise ResourceError(f"p = {p} exceeds the O(p) table cap {MAX_TABLE_PRIME}")


def _count_points_table(curve: Curve, p: int) -> int:
    # Assumes p > 3 prime and p coprime to the discriminant. Each x value
    # contributes 2 points if f(x) is a nonzero square, 1 if it is zero,
    # 0 otherwise; the is-a-square table is built from one squaring pass.
    _check_table_size(p)
    x = np.arange(p, dtype=np.int64)
    xx = x * x
    xx %= p
    is_square = np.zeros(p, dtype=bool)
    is_square[xx] = True
    xx += curve.a % p
    xx %= p
    xx *= x
    xx += curve.b % p
    xx %= p
    affine = 2 * int(is_square[xx].sum()) - int((xx == 0).sum())
    return affine + 1


def count_points(curve: Curve, p: int) -> int:
    """#E(F_p) including the point at infinity, by residue-table scan
    (p <= MAX_TABLE_PRIME)."""
    if p <= 3 or not is_probable_prime(p):
        raise DomainError(f"need a prime p > 3, got {p}")
    if curve.discriminant % p == 0:
        raise DomainError(f"curve degenerates mod {p} (divides the discriminant)")
    return _count_points_table(curve, p)


def frobenius_trace(curve: Curve, p: int) -> int:
    """a_p = p + 1 - #E(F_p); satisfies |a_p| <= 2*sqrt(p) (Hasse bound)."""
    return p + 1 - count_points(curve, p)


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

    def a(self, n: int) -> int:
        if not 1 <= n <= self.m:
            raise DomainError(f"index {n} outside [1, {self.m}]")
        return int(self.values[n - 1])


def _count_small(curve: Curve, p: int) -> int:
    count = 1
    for xv in range(p):
        fx = (xv * xv * xv + curve.a * xv + curve.b) % p
        for yv in range(p):
            if yv * yv % p == fx:
                count += 1
    return count


def _bad_prime_coefficient(curve: Curve, p: int) -> int:
    # Degenerate reduction: 0 for a cusp, +-1 for a node depending on whether
    # the tangent slopes at the node live in F_p.
    if p <= 3:
        return 0
    _check_table_size(p)
    x = np.arange(p, dtype=np.int64)
    fx = ((x * x % p) * x + (curve.a % p) * x + curve.b % p) % p
    dfx = (3 * (x * x % p) + curve.a % p) % p
    sing = np.nonzero((fx == 0) & (dfx == 0))[0]
    if len(sing) == 0:
        raise DomainError(f"{p} divides the discriminant but no singular point found")
    x0 = int(sing[0])
    x1 = (-2 * x0) % p
    if x1 == x0:
        return 0
    return 1 if pow(3 * x0 % p, (p - 1) // 2, p) == 1 else -1


def _prime_coefficient_sieved(curve: Curve, p: int) -> int:
    # `p` must come from a prime sieve; skips the primality check.
    if curve.discriminant % p == 0:
        return _bad_prime_coefficient(curve, p)
    if p <= 3:
        return p + 1 - _count_small(curve, p)
    return p + 1 - _count_points_table(curve, p)


def prime_coefficient(curve: Curve, p: int) -> int:
    """a(p) for prime p: the trace for good primes, the reduction-type
    convention (0, +1, -1) for primes dividing the discriminant, and the
    direct affine count for p <= 3."""
    if not is_probable_prime(p):
        raise DomainError(f"{p} is not prime")
    return _prime_coefficient_sieved(curve, p)


def zeta_coefficients(curve: Curve, m: int) -> ZetaCoeffs:
    """a(1..m): a(p) from the curve, prime powers by the standard recursion
    a(p^k) = a(p) a(p^(k-1)) - p a(p^(k-2)) at good primes (a(p)^k at bad
    ones), multiplicativity everywhere else.

    Each sequence is computed once per process and shared: `values` is a
    read-only array (copy it to change it). The memo keeps the last
    `_ZETA_MEMO` = 64 sequences; at the coin-flip cap m <= 2^16 that is at
    most 64 * 2^16 * 8 B = 32 MB.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    return ZetaCoeffs(m, _zeta_values(curve.a, curve.b, m))


@functools.lru_cache(maxsize=_ZETA_MEMO)
def _zeta_values(a: int, b: int, m: int) -> np.ndarray:
    curve = Curve(a, b)
    values = np.zeros(m + 1, dtype=np.int64)
    values[1] = 1
    spf = smallest_prime_factors(m)
    for p in primes_up_to(m).tolist():
        ap = _prime_coefficient_sieved(curve, p)
        good = curve.discriminant % p != 0
        q = p
        prev, prev2 = ap, 1
        if q <= m:
            values[q] = ap
        while q * p <= m:
            q *= p
            if good:
                nxt = ap * prev - p * prev2
            else:
                nxt = ap * prev
            values[q] = nxt
            prev2, prev = prev, nxt
    for n in range(2, m + 1):
        p = int(spf[n])
        q = p
        rest = n // p
        while rest % p == 0:
            q *= p
            rest //= p
        if rest > 1:
            values[n] = values[q] * values[rest]
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


def _residues(n: int, primes: np.ndarray) -> np.ndarray:
    """n mod p for each p < 2^32, exact for a Python int n of any size:
    Horner's rule over 31-bit limbs keeps every partial value below 2^63."""
    r = np.zeros_like(primes)
    m = abs(n)
    for shift in range(m.bit_length() // 31 * 31, -1, -31):
        r = ((r << 31) + ((m >> shift) & 0x7FFFFFFF)) % primes
    return r if n >= 0 else -r % primes


def _trace_is_even(curve: Curve, primes: np.ndarray) -> np.ndarray:
    """Whether a_p is even at each prime of `primes`, all good and in (3, 3.03e9).

    a_p is even iff f = x^3 + ax + b has a root mod p. With r roots in F_p,
    x^p = x in F_p[x]/(f) iff r = 3, and r = 1 iff the cubic's discriminant
    -(4a^3 + 27b^2) is a non-residue (Frobenius acts on the roots as an odd
    permutation, a transposition); otherwise r = 0. So the root test is
    gcd(x^p - x, f) != 1 without a gcd. One square-and-multiply pass over the
    bits of max(primes) computes x^p (degree <= 2 residues c0 + c1 x + c2 x^2)
    and disc^((p-1)/2) for every prime at once. Every product of two residues
    is reduced before it is added, so int64 is exact while p^2 < 2^63.
    """
    p = primes
    a, b = _residues(curve.a, p), _residues(curve.b, p)
    disc = _residues(-curve.discriminant, p)

    def mul(u, v):
        return u * v % p

    c0, c1, c2 = np.ones_like(p), np.zeros_like(p), np.zeros_like(p)
    legendre = np.ones_like(p)
    for i in range(int(p.max(initial=0)).bit_length() - 1, -1, -1):
        # Square, then fold x^4 = -ax^2 - bx and x^3 = -ax - b back in.
        d3 = 2 * mul(c1, c2) % p
        d4 = mul(c2, c2)
        new2 = (2 * mul(c0, c2) + mul(c1, c1) - mul(a, d4)) % p
        new1 = (2 * mul(c0, c1) - mul(b, d4) - mul(a, d3)) % p
        c0, c1, c2 = (mul(c0, c0) - mul(b, d3)) % p, new1, new2
        # Multiply by x where bit i of p is set: x^3 again folds to -ax - b.
        bit = (p >> i) & 1 == 1
        c0, c1, c2 = (
            np.where(bit, -mul(b, c2) % p, c0),
            np.where(bit, (c0 - mul(a, c2)) % p, c1),
            np.where(bit, c1, c2),
        )
        # disc^((p-1)/2): bit i of (p-1)/2 is bit i+1 of p.
        legendre = mul(legendre, legendre)
        legendre = np.where((p >> (i + 1)) & 1 == 1, mul(legendre, disc), legendre)
    three_roots = (c0 == 0) & (c1 == 1) & (c2 == 0)
    return three_roots | (legendre == p - 1)


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


def select_curve(seed: int, coeff_bound: int = 16, budget: int = 10000) -> Curve:
    """Deterministically pick a splitting-degree-6 curve from a seeded scan."""
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        a = int(rng.integers(-coeff_bound, coeff_bound + 1))
        b = int(rng.integers(-coeff_bound, coeff_bound + 1))
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        if splitting_degree(a, b) == 6:
            return Curve(a, b)
    raise ResourceError("no degree-6 curve found within the search budget")


def parity_prng(seed: int, n_bits: int, curve: Curve | None = None) -> np.ndarray:
    """Deterministic bit stream: bit i is the trace parity at the i-th good
    prime of a seed-selected degree-6 curve. Zeros appear with asymptotic
    frequency 2/3 (ones 1/3)."""
    if n_bits < 1:
        raise DomainError(f"need n_bits >= 1, got {n_bits}")
    if n_bits > MAX_SCAN:
        raise ResourceError(f"stream length {n_bits} exceeds the cap {MAX_SCAN}")
    if curve is None:
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
