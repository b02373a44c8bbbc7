import math

import numpy as np
import pytest

from qkeylab.errors import DomainError
from qkeylab import numtheory
from qkeylab.numtheory import is_probable_prime, primes_up_to, smallest_prime_factors
from qkeylab.ecurve import (
    _ZETA_MEMO,
    _zeta_values,
    Curve,
    count_points,
    frobenius_trace,
    parity_density_scan,
    parity_prng,
    prime_coefficient,
    select_curve,
    splitting_degree,
    zeta_coefficients,
)


def brute_count(a, b, p):
    """Enumerate all affine pairs plus the point at infinity."""
    total = 1
    for xv in range(p):
        fx = (xv**3 + a * xv + b) % p
        for yv in range(p):
            if yv * yv % p == fx:
                total += 1
    return total


def good_primes(curve, lo, hi):
    disc = curve.discriminant
    return [int(p) for p in primes_up_to(hi).tolist() if lo <= p and disc % p]


class TestCountPoints:
    def test_worked_example(self):
        assert count_points(Curve(1, 1), 5) == 9

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 40:
            a, b = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
            if 4 * a**3 + 27 * b**2 == 0:
                continue
            curve = Curve(a, b)
            pool = good_primes(curve, 5, 150)
            p = int(rng.choice(pool))
            assert count_points(curve, p) == brute_count(a, b, p)
            checked += 1

    def test_hasse_bound_sweep(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 1000:
            a, b = int(rng.integers(-50, 51)), int(rng.integers(-50, 51))
            if 4 * a**3 + 27 * b**2 == 0:
                continue
            curve = Curve(a, b)
            pool = good_primes(curve, 5, 500)
            p = int(rng.choice(pool))
            count = count_points(curve, p)
            assert abs(p + 1 - count) <= 2 * math.sqrt(p)
            checked += 1

    def test_bad_prime_rejected(self):
        curve = Curve(1, 1)  # discriminant 31
        with pytest.raises(DomainError):
            count_points(curve, 31)

    def test_small_or_composite_p_rejected(self):
        with pytest.raises(DomainError):
            count_points(Curve(1, 1), 3)
        with pytest.raises(DomainError):
            count_points(Curve(1, 1), 15)

    def test_singular_curve_rejected(self):
        with pytest.raises(DomainError):
            Curve(-3, 2)  # 4*(-27) + 27*4 = 0


class TestFrobeniusTrace:
    def test_worked_example(self):
        assert frobenius_trace(Curve(1, 1), 5) == 5 + 1 - 9 == -3

    def test_parity_identity(self):
        curve = Curve(2, 3)
        for p in good_primes(curve, 5, 100):
            assert frobenius_trace(curve, p) % 2 == (count_points(curve, p) - p - 1) % 2


class TestSplittingDegree:
    def test_full_rational_factorization(self):
        assert splitting_degree(-1, 0) == 1  # x(x-1)(x+1)

    def test_single_rational_root(self):
        assert splitting_degree(0, -1) == 2  # x^3 - 1

    def test_irreducible_square_discriminant(self):
        assert splitting_degree(-3, 1) == 3  # discriminant 81 = 9^2

    def test_irreducible_nonsquare_discriminant(self):
        assert splitting_degree(0, -2) == 6  # discriminant -108

    def test_zero_discriminant_rejected(self):
        with pytest.raises(DomainError):
            splitting_degree(0, 0)

    def test_matches_factorization_type_oracle(self):
        # Infer the degree from root-count patterns of the cubic modulo many
        # primes: degree 1 always splits; degree 2 never has zero roots;
        # degree 3 never has exactly one; degree 6 shows all three patterns.
        def oracle(a, b):
            disc = 4 * a**3 + 27 * b**2
            counts = set()
            for p in primes_up_to(1000).tolist():
                if p <= 3 or disc % p == 0:
                    continue
                roots = sum((x * x % p * x + a * x + b) % p == 0 for x in range(p))
                counts.add(roots)
            if counts == {3}:
                return 1
            if 0 not in counts:
                return 2
            if 1 not in counts:
                return 3
            return 6

        rng = np.random.default_rng(7)
        checked = 0
        while checked < 50:
            a, b = int(rng.integers(-15, 16)), int(rng.integers(-15, 16))
            if 4 * a**3 + 27 * b**2 == 0:
                continue
            assert splitting_degree(a, b) == oracle(a, b), (a, b)
            checked += 1


def sample_curves(count=10):
    """`count` seeded nonsingular curves with |a|, |b| <= 10."""
    rng = np.random.default_rng(8)
    curves = []
    while len(curves) < count:
        a, b = int(rng.integers(-10, 11)), int(rng.integers(-10, 11))
        if 4 * a**3 + 27 * b**2 != 0:
            curves.append(Curve(a, b))
    return curves


class TestZetaCoefficients:
    def test_normalization(self):
        assert zeta_coefficients(Curve(1, 1), 1).a(1) == 1

    def test_multiplicative_instances(self):
        seq = zeta_coefficients(Curve(1, 1), 30)
        assert seq.a(15) == seq.a(3) * seq.a(5)
        assert seq.a(25) == seq.a(5) ** 2 - 5 * seq.a(1)
        assert seq.a(12) == seq.a(4) * seq.a(3)

    def test_against_direct_recomputation(self):
        # Rebuild each a(n) from scratch out of prime coefficients, without
        # the sieve bookkeeping the implementation uses.
        def direct(curve, n):
            if n == 1:
                return 1
            value = 1
            for p in primes_up_to(n).tolist():
                if n % p:
                    continue
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                ap = prime_coefficient(curve, p)
                if curve.discriminant % p == 0:
                    term = ap**e
                else:
                    prev2, prev = 1, ap
                    for _ in range(e - 1):
                        prev2, prev = prev, ap * prev - p * prev2
                    term = prev
                value *= term
            return value

        for curve in sample_curves():
            seq = zeta_coefficients(curve, 200)
            for n in range(1, 201):
                assert seq.a(n) == direct(curve, n), (curve, n)

    def test_values_are_read_only(self):
        seq = zeta_coefficients(Curve(1, 1), 30)
        with pytest.raises(ValueError):
            seq.values[3] = 0

    def test_memo_equals_uncached_computation(self):
        _zeta_values.cache_clear()
        for curve in sample_curves():
            for m in (1, 200):
                memo = zeta_coefficients(curve, m).values
                assert np.array_equal(memo, _zeta_values.__wrapped__(curve.a, curve.b, m))
                assert zeta_coefficients(curve, m).values is memo

    def test_memo_stays_bounded(self):
        for m in range(1, _ZETA_MEMO + 20):
            zeta_coefficients(Curve(1, 1), m)
        assert _zeta_values.cache_info().currsize <= _ZETA_MEMO

    def test_hasse_bound_at_good_primes(self):
        curve = Curve(-2, 5)
        seq = zeta_coefficients(curve, 180)
        for p in good_primes(curve, 5, 180):
            assert abs(seq.a(p)) <= 2 * math.sqrt(p)

    def test_bad_prime_reduction_types(self):
        # The naive affine count over F_p (singular point included) still obeys
        # #points = p + 1 - a_p where a_p is the reduction-type coefficient.
        cases = [Curve(1, 1), Curve(-1, 1), Curve(3, 5), Curve(0, 1)]
        for curve in cases:
            for p in primes_up_to(200).tolist():
                if p <= 3 or curve.discriminant % p:
                    continue
                ap = prime_coefficient(curve, p)
                assert ap in (-1, 0, 1)
                assert ap == p + 1 - brute_count(curve.a, curve.b, p)

    def test_additive_reduction_when_p_divides_both(self):
        curve = Curve(5, 25)  # disc = 4*125 + 27*625 = 17375 = 5^3 * 139
        assert curve.discriminant % 5 == 0
        assert prime_coefficient(curve, 5) == 0

    def test_invalid_length_rejected(self):
        with pytest.raises(DomainError):
            zeta_coefficients(Curve(1, 1), 0)


class TestDensityScan:
    def test_degree6_curve_near_two_thirds(self):
        report = parity_density_scan(Curve(0, -2), 10_000)
        assert abs(report.even_fraction - 2 / 3) <= 0.04

    def test_degree3_curve_near_one_third(self):
        report = parity_density_scan(Curve(-3, 1), 10_000)
        assert abs(report.even_fraction - 1 / 3) <= 0.04

    def test_degree1_curve_even_almost_everywhere(self):
        report = parity_density_scan(Curve(-1, 0), 10_000)
        assert report.even_fraction >= 0.99
        assert report.odd_prime_count == len(report.odd_primes_sample)

    def test_convergence_toward_target(self):
        coarse = parity_density_scan(Curve(0, -2), 1000)
        finer = parity_density_scan(Curve(0, -2), 10_000)
        assert abs(finer.even_fraction - 2 / 3) <= abs(coarse.even_fraction - 2 / 3) + 0.02

    def test_bad_primes_listed(self):
        report = parity_density_scan(Curve(1, 1), 1000)  # discriminant 31
        assert report.excluded_bad_primes == (31,)

    def test_small_bound_rejected(self):
        with pytest.raises(DomainError):
            parity_density_scan(Curve(0, -2), 50)


class TestParityPrng:
    def test_deterministic(self):
        assert np.array_equal(parity_prng(1, 500), parity_prng(1, 500))

    def test_seed_selects_degree6_curve(self):
        for seed in (1, 2, 3):
            curve = select_curve(seed)
            assert splitting_degree(curve.a, curve.b) == 6

    def test_distinct_seeds_distinct_curves(self):
        assert select_curve(1) != select_curve(2)

    def test_zero_fraction_near_two_thirds(self):
        bits = parity_prng(1, 2000)
        assert abs(float((bits == 0).mean()) - 2 / 3) <= 0.05

    def test_bits_match_trace_parities(self):
        curve = select_curve(4)
        bits = parity_prng(4, 40, curve)
        disc = curve.discriminant
        expected = []
        for p in primes_up_to(10_000).tolist():
            if p <= 3 or disc % p == 0:
                continue
            expected.append(frobenius_trace(curve, p) & 1)
            if len(expected) == 40:
                break
        assert bits.tolist() == expected

    def test_empty_request_rejected(self):
        with pytest.raises(DomainError):
            parity_prng(1, 0)


class TestPrimality:
    def test_against_sieve(self):
        sieve = set(primes_up_to(2000).tolist())
        for n in range(2, 2000):
            assert is_probable_prime(n) == (n in sieve)

    def test_psi12_rejected(self):
        # 399165290221 * 798330580441 is a strong pseudoprime to every prime
        # base up to 37 (Sorenson-Webster psi_12); base 41 exposes it.
        assert not is_probable_prime(318665857834031151167461)
        assert is_probable_prime(2**89 - 1)

    def test_smallest_prime_factors_across_growth(self, monkeypatch):
        def trial_division(n):
            return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)

        expected = [0, 0] + [trial_division(n) for n in range(2, 5001)]
        monkeypatch.setattr(numtheory, "_spf_cache", {"limit": 0, "spf": np.zeros(1, np.int64)})
        for bound in (100, 5000, 300):
            spf = smallest_prime_factors(bound)
            assert spf.tolist() == expected[: bound + 1]
            assert not spf.flags.writeable


class TestSmallPrimeCoefficients:
    def test_value_at_two_from_affine_count(self):
        # Over F_2 squaring is the identity, so every x gives exactly one y:
        # 2 affine points + infinity = 3, hence a(2) = 2 + 1 - 3 = 0.
        assert prime_coefficient(Curve(1, 1), 2) == 0

    def test_value_at_three_by_hand(self):
        # f(x) = x^3 + x + 1 mod 3 takes values 1, 0, 2 at x = 0, 1, 2;
        # squares mod 3 come with multiplicities {0: 1, 1: 2, 2: 0}, so the
        # affine count is 2 + 1 + 0 = 3 and a(3) = 3 + 1 - 4 = 0.
        assert prime_coefficient(Curve(1, 1), 3) == 0

    def test_zeta_sequence_includes_small_primes(self):
        seq = zeta_coefficients(Curve(1, 1), 12)
        assert seq.a(2) == 0 and seq.a(3) == 0
        assert seq.a(4) == seq.a(2) ** 2 - 2  # good-prime power recursion
