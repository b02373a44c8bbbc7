"""The O(log p) trace-parity path, for one prime or many, against its O(p)
point-count twin, and the size caps of the parity scans."""
import math
import random

import numpy as np
import pytest

from qkeylab import ecurve
from qkeylab.ecurve import (
    MAX_SCAN,
    Curve,
    _integer_roots,
    _residues,
    _trace_is_even,
    parity_density_scan,
    parity_prng,
    splitting_degree,
)
from qkeylab.errors import ResourceError
from qkeylab.numtheory import is_probable_prime, primes_up_to
from oracles import frobenius_trace, prime_coefficient

BEYOND_INT64 = 1 << 70
NAMED_CURVES = {(-1, 0): 1, (0, -1): 2, (-3, 1): 3, (0, -2): 6}


def table_parity_is_even(curve, primes):
    return np.array([frobenius_trace(curve, p) & 1 == 0 for p in primes.tolist()])


def good_primes(curve, hi, lo=5):
    primes = primes_up_to(hi)
    return np.array([p for p in primes.tolist() if p >= lo and curve.discriminant % p])


def python_trace_is_even(a, b, p):
    """An independent root test in Python ints: x^p in F_p[x]/(x^3 + ax + b)
    by right-to-left square-and-multiply, where x^p = x means three roots,
    plus Euler's criterion on the cubic's discriminant, a non-residue exactly
    when there is one root. The kernel reads the root count off the trace of
    Frobenius instead, so the two agree only if both algebras are right."""

    def mul(u, v):
        d = [0] * 5
        for i in range(3):
            for j in range(3):
                d[i + j] += u[i] * v[j]
        d[2] -= a * d[4]  # x^4 = -a x^2 - b x
        d[1] -= b * d[4]
        d[1] -= a * d[3]  # x^3 = -a x - b
        d[0] -= b * d[3]
        return [d[0] % p, d[1] % p, d[2] % p]

    result, base, e = [1, 0, 0], [0, 1, 0], p
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    non_residue = pow(-(4 * a**3 + 27 * b**2) % p, (p - 1) // 2, p) == p - 1
    return result == [0, 1, 0] or non_residue


def random_curves(count, seed):
    rng = random.Random(seed)
    curves = []
    while len(curves) < count:
        scale = (60, 1 << 40, BEYOND_INT64)[len(curves) % 3]
        a, b = rng.randint(-scale, scale), rng.randint(-scale, scale)
        if 4 * a**3 + 27 * b**2:
            curves.append(Curve(a, b))
    return curves


class TestAgainstPointCount:
    @pytest.mark.parametrize("coeffs", sorted(NAMED_CURVES), ids=lambda c: f"degree{NAMED_CURVES[c]}")
    def test_each_splitting_degree(self, coeffs):
        assert splitting_degree(*coeffs) == NAMED_CURVES[coeffs]
        curve = Curve(*coeffs)
        primes = good_primes(curve, 20_000)
        assert np.array_equal(_trace_is_even(curve, primes), table_parity_is_even(curve, primes))

    def test_seeded_random_curves(self):
        curves = random_curves(21, seed=2024)
        assert any(c.a < 0 for c in curves) and any(c.b < 0 for c in curves)
        assert any(abs(c.a) > 2**63 or abs(c.b) > 2**63 for c in curves)
        for curve in curves:
            primes = good_primes(curve, 20_000)
            fast = _trace_is_even(curve, primes)
            assert np.array_equal(fast, table_parity_is_even(curve, primes)), curve

    def test_python_twin_agrees_with_point_count(self):
        for curve in (Curve(0, -2), Curve(-3, 1), *random_curves(3, seed=5)):
            primes = good_primes(curve, 2000)
            twin = [python_trace_is_even(curve.a, curve.b, p) for p in primes.tolist()]
            assert twin == table_parity_is_even(curve, primes).tolist()


def qualifying_curves(B):
    """The coin-flip commitment space at B: every degree-6 curve with
    discriminant in [B, 2B], from the coefficient box `alice_setup` draws from."""
    a_cap, b_cap = int((B / 2) ** (1 / 3)) + 1, math.isqrt(2 * B // 27) + 1
    return [
        Curve(a, b)
        for a in range(-a_cap, a_cap + 1)
        for b in range(-b_cap, b_cap + 1)
        if B <= 4 * a**3 + 27 * b**2 <= 2 * B and splitting_degree(a, b) == 6
    ]


class TestOnePrimeOrMany:
    """The kernel on one int prime (coin-flip trials) and on an array (scans)
    against the point-count oracle, on the challenge range (m, 10m]."""

    @pytest.mark.parametrize("B, count, step", [(256, 20, 1), (4096, 232, 11)])
    def test_int_and_array_paths_equal_the_oracle(self, B, count, step):
        curves = qualifying_curves(B)
        assert len(curves) == count
        m = math.floor(math.log2(B) ** 3)
        for curve in curves[::step]:
            primes = good_primes(curve, 10 * m, lo=m + 1)
            oracle = [frobenius_trace(curve, p) & 1 == 0 for p in primes.tolist()]
            assert _trace_is_even(curve, primes).tolist() == oracle, curve
            assert [_trace_is_even(curve, p) for p in primes.tolist()] == oracle, curve

    def test_int_path_returns_a_bool(self):
        for p in (5, 521, 17_209, 3_029_999_977):
            assert type(_trace_is_even(Curve(0, -2), p)) is bool

    def test_int_path_at_two_and_three(self):
        # Below the scans' range the root test still gives the parity of the
        # coefficient a(2) = 0 and of the residue-table a(3) at good primes,
        # for one int prime and for the array of the good ones among {2, 3}.
        for a in range(-6, 7):
            for b in range(-6, 7):
                good = [p for p in (2, 3) if (4 * a**3 + 27 * b**2) % p]
                if not good:  # singular
                    continue
                curve = Curve(a, b)
                even = [prime_coefficient(curve, p) & 1 == 0 for p in good]
                assert [_trace_is_even(curve, p) for p in good] == even, (a, b)
                assert _trace_is_even(curve, np.array(good, dtype=np.int64)).tolist() == even, (a, b)


class TestDtypeSwitches:
    """The array path picks int32, int64 or Python ints by 4 max(p)^2; each
    side of each switch, alone and in one array, against the Python twin."""

    CURVES = (Curve(0, -2), Curve(-3, 1), Curve(-1, 0), *random_curves(6, seed=7))

    @pytest.mark.parametrize(
        "below, above, log2_limit",
        [(23_167, 23_173, 31), (1_073_741_789, 1_073_741_827, 62), (1_518_500_213, 1_518_500_279, 63)],
        ids=["int32-int64", "2^30", "int64-object"],
    )
    def test_each_side_alone_and_both(self, below, above, log2_limit):
        assert 4 * below**2 < 2**log2_limit <= 4 * above**2
        assert any(abs(c.a) > 2**63 or abs(c.b) > 2**63 for c in self.CURVES)
        for curve in self.CURVES:
            good = [p for p in (below, above) if curve.discriminant % p]
            expected = [python_trace_is_even(curve.a, curve.b, p) for p in good]
            alone = [_trace_is_even(curve, np.array([p], dtype=np.int64)).item() for p in good]
            both = _trace_is_even(curve, np.array(good, dtype=np.int64)).tolist()
            assert alone == expected and both == expected, curve

    def test_every_prime_up_to_twice_the_int32_switch(self):
        # Typical sums reach about 1.5 p^2, past 2^31 here: int32 would wrap.
        for curve in self.CURVES[::2]:
            primes = good_primes(curve, 46_000, lo=23_000)
            expected = [python_trace_is_even(curve.a, curve.b, p) for p in primes.tolist()]
            assert _trace_is_even(curve, primes).tolist() == expected, curve

    def test_empty_array(self):
        even = _trace_is_even(Curve(0, -2), np.array([], dtype=np.int64))
        assert even.dtype == bool and even.shape == (0,)


class TestNearInt64Limit:
    def test_matches_python_twin_below_3_03e9(self):
        # p^2 is within 0.5% of 2^63 here: a product added before reduction overflows.
        primes = [p for p in range(3_030_000_000, 3_029_998_000, -1) if is_probable_prime(p)][:6]
        assert len(primes) == 6
        for curve in (Curve(0, -2), Curve(-3, 1), Curve(-1, 0), *random_curves(6, seed=99)):
            good = np.array([p for p in primes if curve.discriminant % p], dtype=np.int64)
            expected = [python_trace_is_even(curve.a, curve.b, p) for p in good.tolist()]
            assert _trace_is_even(curve, good).tolist() == expected, curve


class TestParityStream:
    def test_prefix_does_not_depend_on_length(self):
        for seed in (1, 2, 5):
            full = parity_prng(seed, 3000)
            for k in (1, 7, 256, 1000, 2999):
                assert np.array_equal(parity_prng(seed, k), full[:k]), (seed, k)

    def test_widens_past_bad_primes(self, monkeypatch):
        # Every prime in (3, 83] divides the discriminant, so the first
        # stretch, (3, 100], yields only the bits at 89 and 97; the stream
        # continues past 100 without repeating them.
        q = math.prod(primes_up_to(83)[2:].tolist())
        curve = Curve(3 * q, q)  # discriminant 27 q^2 (4q + 1)
        monkeypatch.setattr(ecurve, "select_curve", lambda seed: curve)
        bits = parity_prng(0, 12)
        primes = good_primes(curve, 1000)[:12]
        assert primes[:3].tolist() == [89, 97, 101]
        assert bits.tolist() == [int(not even) for even in table_parity_is_even(curve, primes)]


class TestHugeCoefficients:
    def test_scan_matches_point_count(self):
        curve = Curve(10**20, 1)
        report = parity_density_scan(curve, 2000)
        primes = good_primes(curve, 2000)
        even = table_parity_is_even(curve, primes)
        assert report.primes_scanned == len(primes)
        assert report.even_fraction == int(even.sum()) / len(primes)

    def test_residues_exact(self):
        moduli = np.append(primes_up_to(1000), [3_029_999_977, 2**32 - 5])
        for n in (0, -1, 2**31, -(2**63), 2**64 + 5, -(10**40) - 7, 3**200):
            assert _residues(n, moduli).tolist() == [n % q for q in moduli.tolist()], n

    def test_integer_roots_exact(self):
        r1, r2 = 10**15, 2 * 10**15 + 1
        r3 = -(r1 + r2)
        assert _integer_roots(r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3) == sorted([r1, r2, r3])
        r = 10**18 + 7  # (x - r)(x^2 + rx + 1)
        assert splitting_degree(1 - r * r, -r) == 2
        t = 10**12  # Shanks' simplest cubic, shifted
        assert splitting_degree(-3 * (t * t + t + 1), -(2 * t**3 + 3 * t * t + 3 * t + 1)) == 3
        assert splitting_degree(0, -2 * 10**30) == 6

    def test_integer_roots_match_brute_force(self):
        for a in range(-12, 13):
            for b in range(-12, 13):
                expected = [r for r in range(-30, 31) if r**3 + a * r + b == 0]
                assert _integer_roots(a, b) == expected, (a, b)


class TestCaps:
    @pytest.fixture
    def no_sieve(self, monkeypatch):
        def refuse(bound):
            raise AssertionError(f"sieve of {bound} requested past the cap")

        monkeypatch.setattr(ecurve, "primes_up_to", refuse)

    def test_scan_bound_capped(self, no_sieve):
        with pytest.raises(ResourceError):
            parity_density_scan(Curve(0, -2), MAX_SCAN + 1)

    def test_stream_length_capped(self, no_sieve):
        with pytest.raises(ResourceError):
            parity_prng(1, MAX_SCAN + 1)
