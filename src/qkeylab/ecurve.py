"""Elliptic curves y^2 = x^3 + ax + b over prime fields, at desk scale.

Point counting is the naive O(p) quadratic-residue-table scan, which is exact
and comfortably fast for the prime ranges used here (p up to ~10^6). On top
of it sit the trace values a_p = p + 1 - #E(F_p), their multiplicative
extension a_n to all indices, the splitting-degree classification of the
cubic x^3 + ax + b over the rationals, parity-density scans, and a
deterministic parity-stream generator whose zero frequency tends to 2/3.

Discriminant sign convention: `Curve.discriminant` is 4a^3 + 27b^2 (used for
good/bad prime tests and the commitment interval in the coin-flip protocol);
the discriminant of the cubic polynomial itself is its negative, and that is
what the perfect-square test in `splitting_degree` uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .numtheory import is_probable_prime, primes_up_to, smallest_prime_factors

_ODD_SAMPLE_CAP = 32


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


def _count_points_table(curve: Curve, p: int) -> int:
    # Assumes p > 3 prime and p coprime to the discriminant. Each x value
    # contributes 2 points if f(x) is a nonzero square, 1 if it is zero,
    # 0 otherwise; the is-a-square table is built from one squaring pass.
    x = np.arange(p, dtype=np.int64)
    xx = x * x
    xx %= p
    is_square = np.zeros(p, dtype=bool)
    is_square[xx] = True
    xx += curve.a
    xx %= p
    xx *= x
    xx += curve.b
    xx %= p
    affine = 2 * int(is_square[xx].sum()) - int((xx == 0).sum())
    return affine + 1


def count_points(curve: Curve, p: int) -> int:
    """#E(F_p) including the point at infinity, by residue-table scan."""
    if p <= 3 or not is_probable_prime(p):
        raise DomainError(f"need a prime p > 3, got {p}")
    if curve.discriminant % p == 0:
        raise DomainError(f"curve degenerates mod {p} (divides the discriminant)")
    return _count_points_table(curve, p)


def frobenius_trace(curve: Curve, p: int) -> int:
    """a_p = p + 1 - #E(F_p); satisfies |a_p| <= 2*sqrt(p) (Hasse bound)."""
    return p + 1 - count_points(curve, p)


# -- splitting degree of the cubic over Q -------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _integer_roots(a: int, b: int) -> list[int]:
    # Monic integer cubic: rational roots are integers dividing b.
    if b == 0:
        roots = {0}
        if a < 0:
            s = math.isqrt(-a)
            if s * s == -a:
                roots.update((s, -s))
        return sorted(roots)
    roots = set()
    for d in _divisors(b):
        for r in (d, -d):
            if r * r * r + a * r + b == 0:
                roots.add(r)
    return sorted(roots)


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
    ones), multiplicativity everywhere else."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
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
    return ZetaCoeffs(m, values[1:])


# -- parity densities  ---------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    x_bound: int
    primes_scanned: int
    even_fraction: float
    excluded_bad_primes: tuple[int, ...]
    odd_prime_count: int
    odd_primes_sample: tuple[int, ...]


def parity_density_scan(curve: Curve, x_bound: int) -> DensityReport:
    """Fraction of good primes p <= x_bound with even trace.

    Primes 2 and 3 are always skipped (the short model is unreliable there);
    primes dividing the discriminant are excluded and listed. The density
    tends to 2/3 for splitting degree 6 curves, 1/3 for degree 3, and 1 for
    degrees 1 and 2 (up to finitely many exceptional primes, sampled below).
    """
    if x_bound < 100:
        raise DomainError(f"need a scan bound >= 100, got {x_bound}")
    disc = curve.discriminant
    bad, odd_primes = [], []
    scanned = even = 0
    for p in primes_up_to(x_bound).tolist():
        if p <= 3:
            continue
        if disc % p == 0:
            bad.append(p)
            continue
        scanned += 1
        if (p + 1 - _count_points_table(curve, p)) % 2 == 0:
            even += 1
        else:
            odd_primes.append(p)
    if scanned == 0:
        raise DomainError("no good primes in range")
    return DensityReport(
        x_bound=x_bound,
        primes_scanned=scanned,
        even_fraction=even / scanned,
        excluded_bad_primes=tuple(bad),
        odd_prime_count=len(odd_primes),
        odd_primes_sample=tuple(odd_primes[:_ODD_SAMPLE_CAP]),
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
    if curve is None:
        curve = select_curve(seed)
    disc = curve.discriminant
    bits = np.empty(n_bits, dtype=np.uint8)
    filled = 0
    bound = max(100, int(1.3 * n_bits * (math.log(n_bits + 2) + 3)))
    while True:
        for p in primes_up_to(bound).tolist():
            if p <= 3 or disc % p == 0:
                continue
            bits[filled] = (p + 1 - _count_points_table(curve, p)) & 1
            filled += 1
            if filled == n_bits:
                return bits
        bound = int(bound * 1.5)  # prime estimate fell short; widen and rescan
        filled = 0
