import math

import numpy as np
import pytest

from qkeylab import ecurve, numtheory
from qkeylab.errors import DomainError, ResourceError
from qkeylab.numtheory import is_probable_prime, primes_up_to
from qkeylab.ecurve import (
    _ZETA_MEMO,
    MAX_ZETA_LENGTH,
    _zeta_values,
    Curve,
    parity_density_scan,
    parity_prng,
    select_curve,
    splitting_degree,
    zeta_coefficients,
)
from oracles import count_points, frobenius_trace, prime_coefficient
from test_input_caps import ARNAULT_P1, BASE_41_PSEUDOPRIMES


def brute_count(a, b, p):
    """Enumerate all affine pairs plus the point at infinity."""
    total = 1
    for xv in range(p):
        fx = (xv**3 + a * xv + b) % p
        for yv in range(p):
            if yv * yv % p == fx:
                total += 1
    return total


def scanned_bad_prime_coefficient(curve, p):
    """The reduction-type coefficient at an odd bad prime p from an O(p)
    scan for the singular point x0: 0 for a cusp (the other root -2x0 equals
    x0, as at p = 3), else the quadratic character of 3x0, whose square roots
    are the slopes of the tangents at the node."""
    x = np.arange(p, dtype=np.int64)
    fx = ((x * x % p) * x + (curve.a % p) * x + curve.b % p) % p
    dfx = (3 * (x * x % p) + curve.a % p) % p
    (x0, *_) = np.nonzero((fx == 0) & (dfx == 0))[0].tolist()
    if (-2 * x0) % p == x0:
        return 0
    return 1 if pow(3 * x0 % p, (p - 1) // 2, p) == 1 else -1


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
        assert zeta_coefficients(Curve(1, 1), 1).values[0] == 1

    def test_multiplicative_instances(self):
        a = dict(enumerate(zeta_coefficients(Curve(1, 1), 30).values, start=1))
        assert a[15] == a[3] * a[5]
        assert a[25] == a[5] ** 2 - 5 * a[1]
        assert a[12] == a[4] * a[3]

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

        # Short lengths that end on a power of 2 or 3.
        for curve in sample_curves():
            for m in (2, 4, 8, 9, 16, 27, 32, 200):
                seq = zeta_coefficients(curve, m)
                for n in range(1, m + 1):
                    assert seq.values[n - 1] == direct(curve, n), (curve, m, n)

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
            assert abs(seq.values[p - 1]) <= 2 * math.sqrt(p)

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

    def test_bad_prime_closed_form_matches_scan(self):
        # The point count's a(p) = p - (affine points) at a bad prime is the
        # reduction type read off the singular point. Every nonsingular curve
        # with |a|, |b| <= 30 and 300 seeded curves with |a|, |b| < 10^6, at
        # each of their bad primes 3 <= p <= 5000.
        rng = np.random.default_rng(11)
        small = [(a, b) for a in range(-30, 31) for b in range(-30, 31)]
        large = [tuple(int(v) for v in rng.integers(-10**6 + 1, 10**6, size=2)) for _ in range(300)]
        primes = primes_up_to(5000)[1:]
        seen, seen_at_3 = set(), set()
        for a, b in small + large:
            disc = 4 * a**3 + 27 * b**2
            if disc == 0:
                continue
            curve = Curve(a, b)
            bad = np.array([p for p in primes.tolist() if disc % p == 0], dtype=np.int64)
            counted = bad - ecurve._affine_counts(curve, bad)
            for p, ap in zip(bad.tolist(), counted.tolist()):
                assert ap == scanned_bad_prime_coefficient(curve, p), (a, b, p)
                (seen_at_3 if p == 3 else seen).add(ap)
        assert seen == {-1, 0, 1}  # split nodes, non-split nodes and cusps
        assert seen_at_3 == {0}

    def test_additive_reduction_when_p_divides_both(self):
        curve = Curve(5, 25)  # disc = 4*125 + 27*625 = 17375 = 5^3 * 139
        assert curve.discriminant % 5 == 0
        assert prime_coefficient(curve, 5) == zeta_coefficients(curve, 5).values[4] == 0

    def test_invalid_length_rejected(self):
        with pytest.raises(DomainError):
            zeta_coefficients(Curve(1, 1), 0)

    def test_length_cap_fires_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started past the cap")

        monkeypatch.setattr(ecurve, "_zeta_values", refuse)
        with pytest.raises(ResourceError, match="cap"):
            zeta_coefficients(Curve(1, 1), MAX_ZETA_LENGTH + 1)


# Seeded small curves, coefficients past 2^64 (so `_residues` reduces them
# limb by limb), Curve(5, 25) with disc = 5^3 * 139, and Curve(-1, 1) with
# disc = 23: bad primes on both sides of sqrt(m).
BLOCK_CURVES = sample_curves(4) + [
    Curve(2**70 + 3, -(3**45)),
    Curve(-(10**30) + 7, 10**21 + 9),
    Curve(5, 25),
    Curve(-1, 1),
]


def per_prime_zeta(curve, m):
    """a(1..m) one prime at a time from `prime_coefficient`, with the
    prime-power recursion at every prime."""
    values = np.ones(m + 1, dtype=np.int64)
    for p in primes_up_to(m).tolist():
        ap = prime_coefficient(curve, p)
        good = curve.discriminant % p != 0
        part = np.full(m // p, ap, dtype=np.int64)
        q, prev, prev2 = p, ap, 1
        while q * p <= m:
            nxt = ap * prev - p * prev2 if good else ap * prev
            part[q - 1 :: q] = nxt
            q *= p
            prev2, prev = prev, nxt
        values[p::p] *= part
    return values[1:]


class TestBlockedCounts:
    @pytest.mark.parametrize("block", [1, 7, ecurve._COUNT_BLOCK])
    def test_affine_counts_equal_the_table_at_every_good_odd_prime(self, monkeypatch, block):
        # Every odd prime, bad ones included, so bad primes share blocks
        # with good ones.
        monkeypatch.setattr(ecurve, "_COUNT_BLOCK", block)
        primes = primes_up_to(3000)[1:]
        for curve in BLOCK_CURVES:
            counts = ecurve._affine_counts(curve, primes) + 1
            expected = [count_points(curve, p) for p in primes.tolist()]
            assert counts.tolist() == expected, curve

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 9, 24, 25, 26, 48, 49, 120, 121, 168, 169, 512, 1728])
    def test_sequence_equals_the_per_prime_loop(self, m):
        for curve in BLOCK_CURVES:
            values = _zeta_values.__wrapped__(curve.a, curve.b, m)
            assert np.array_equal(values, per_prime_zeta(curve, m)), (curve, m)

    def test_sequence_builds_no_per_prime_table(self):
        # No per-prime count is left to refuse: `_affine_counts` is the
        # library's one point count. A bad prime above sqrt(m) still takes
        # its reduction type.
        values = _zeta_values.__wrapped__(5, 25, 1728)
        assert values[138] == scanned_bad_prime_coefficient(Curve(5, 25), 139)


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
        bits = parity_prng(4, 40)
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

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            select_curve(-1)
        with pytest.raises(DomainError, match="seed"):
            parity_prng(-1, 16)


def thirteen_base_miller_rabin(n):
    """Miller-Rabin over all 13 prime bases 2..41 at every n, without tiers:
    the twin of `is_probable_prime` below psi_13."""
    if n < 2:
        return False
    for p in numtheory._SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in numtheory._MR_WITNESSES:
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


class TestPrimality:
    def test_each_tier_bound_rejected(self):
        # psi_k passes the first k bases; one more base (or, for psi_7,
        # psi_9 and psi_10, the next distinct psi) exposes it.
        assert len(numtheory._PSI) == len(numtheory._MR_WITNESSES) == 13
        for psi in numtheory._PSI[:12]:
            assert not is_probable_prime(psi)

    def test_tiers_agree_with_all_thirteen_bases_below_1e5(self):
        for n in range(1, 10**5, 2):
            assert is_probable_prime(n) == thirteen_base_miller_rabin(n), n

    @pytest.mark.parametrize("bits", [20, 32, 48, 64])
    def test_tiers_agree_with_all_thirteen_bases_on_seeded_samples(self, bits):
        rng = np.random.default_rng(bits)
        odd = [int.from_bytes(rng.bytes(8), "big") % (1 << bits) | (1 << (bits - 1)) | 1 for _ in range(500)]
        primes = [numtheory.random_prime(bits, rng) for _ in range(50)]
        for n in odd + primes:
            assert is_probable_prime(n) == thirteen_base_miller_rabin(n), n
        assert all(thirteen_base_miller_rabin(p) for p in primes)

    def test_tiers_agree_with_all_thirteen_bases_around_each_bound(self):
        # Every odd n within 400 of each psi_k, which includes the primes next to it.
        for psi in numtheory._PSI[:12]:
            window = range(psi - 400, psi + 401, 2)
            assert sum(map(thirteen_base_miller_rabin, window)) >= 2, psi
            for n in window:
                assert is_probable_prime(n) == thirteen_base_miller_rabin(n), n

    def test_against_sieve(self):
        sieve = set(primes_up_to(2000).tolist())
        for n in range(2, 2000):
            assert is_probable_prime(n) == (n in sieve)

    def test_psi12_rejected(self):
        # 399165290221 * 798330580441 is a strong pseudoprime to every prime
        # base up to 37 (Sorenson-Webster psi_12); base 41 exposes it.
        assert not is_probable_prime(318665857834031151167461)
        assert is_probable_prime(2**89 - 1)

    def test_base_41_pseudoprimes_rejected(self, monkeypatch):
        # psi_13 and Arnault's p1 * p2 * p3 pass Miller-Rabin to every prime
        # base up to 41; the strong Lucas test exposes both.
        p1 = ARNAULT_P1
        assert all(is_probable_prime(q) for q in (p1, 53 * (p1 - 1) + 1, 61 * (p1 - 1) + 1))
        assert not any(is_probable_prime(n) for n in BASE_41_PSEUDOPRIMES)
        monkeypatch.setattr(numtheory, "_is_strong_lucas_probable_prime", lambda n: True)
        assert all(is_probable_prime(n) for n in BASE_41_PSEUDOPRIMES)  # the 13 bases alone

    def test_mersenne_primes_accepted(self):
        for e in (127, 521, 607):
            assert is_probable_prime(2**e - 1)
        assert not is_probable_prime(2**523 - 1)  # 2^523 - 1 is composite

    def test_lucas_step_alone_accepts_strong_lucas_pseudoprimes(self):
        # OEIS A217255: composites that pass the strong Lucas test. Run
        # after the Miller-Rabin bases it exposes no known composite; alone
        # it is wrong, so it never runs alone.
        for n in (5459, 5777, 10877):
            assert numtheory._is_strong_lucas_probable_prime(n)
            assert not is_probable_prime(n)
        primes = primes_up_to(20_000)[1:].tolist()
        assert all(numtheory._is_strong_lucas_probable_prime(p) for p in primes)


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

    def test_values_at_two_and_three_from_affine_count(self):
        # Every curve of a small box with good reduction at p: the residue
        # table (p = 3) and a(2) = 0 against enumerating all affine pairs.
        checked = 0
        for a in range(-6, 7):
            for b in range(-6, 7):
                disc = 4 * a**3 + 27 * b**2
                if disc == 0:
                    continue
                seq = zeta_coefficients(Curve(a, b), 3).values
                for p in (2, 3):
                    if disc % p:
                        expected = p + 1 - brute_count(a, b, p)
                        assert prime_coefficient(Curve(a, b), p) == seq[p - 1] == expected
                        checked += 1
        assert checked > 100

    def test_zeta_sequence_includes_small_primes(self):
        a = dict(enumerate(zeta_coefficients(Curve(1, 1), 12).values, start=1))
        assert a[2] == 0 and a[3] == 0
        assert a[4] == a[2] ** 2 - 2  # good-prime power recursion
