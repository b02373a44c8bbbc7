import dataclasses

import numpy as np
import pytest

from qkeylab import coinflip
from qkeylab.errors import DomainError, ResourceError
from qkeylab.ecurve import Curve, splitting_degree, zeta_coefficients
from qkeylab.coinflip import (
    HEADS,
    MAX_COMMITMENT,
    RETRY,
    TAILS,
    UNDECIDED,
    CoinFlipSession,
    Trial,
    alice_setup,
    bob_choose_primes,
    bob_verify,
    commitment_length,
    run_session,
    run_trial,
)


def make_session(curve, B, k, challenge_factor=10):
    m = commitment_length(B, k)
    return CoinFlipSession(
        B=B,
        k=k,
        m=m,
        curve=curve,
        commitment=zeta_coefficients(curve, m),
        challenge_factor=challenge_factor,
    )


class TestSetup:
    def test_session_satisfies_constraints(self):
        rng = np.random.default_rng(1)
        session = alice_setup(64, 3, rng)
        disc = session.curve.discriminant
        assert 64 <= disc <= 128
        assert splitting_degree(session.curve.a, session.curve.b) == 6
        assert session.m == commitment_length(64, 3) == 216
        assert session.commitment.m == session.m

    def test_commitment_length_power_of_two_base(self):
        assert commitment_length(1024, 3) == 1000

    def test_parameter_floors(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DomainError):
            alice_setup(8, 3, rng)
        with pytest.raises(DomainError):
            alice_setup(64, 2, rng)

    def test_deterministic_under_seed(self):
        first = alice_setup(64, 3, np.random.default_rng(9)).curve
        second = alice_setup(64, 3, np.random.default_rng(9)).curve
        assert first == second


class TestChallenges:
    def test_primes_exceed_commitment_range(self):
        rng = np.random.default_rng(2)
        p, p_prime = bob_choose_primes(10, rng)
        assert p > 10 and p_prime > p
        for value in (p, p_prime):
            assert all(value % q for q in range(2, value))

    def test_deterministic_under_seed(self):
        assert bob_choose_primes(50, np.random.default_rng(3)) == bob_choose_primes(
            50, np.random.default_rng(3)
        )

    def test_tiny_m_rejected(self):
        with pytest.raises(DomainError):
            bob_choose_primes(0, np.random.default_rng(3))


class TestTrials:
    def find_parity_prime(self, session, parity, lo):
        p = lo
        while True:
            p += 1
            if all(p % q for q in range(2, int(p**0.5) + 1)):
                if session.curve.discriminant % p == 0:
                    continue
                if session.trace_parity(p) == parity:
                    return p

    def test_verdict_mapping(self):
        session = make_session(Curve(0, -2), 64, 3)
        odd = self.find_parity_prime(session, 1, session.m)
        even = self.find_parity_prime(session, 0, odd)
        if odd < even:
            assert run_trial(session, odd, even).verdict == HEADS
        else:
            assert run_trial(session, even, odd).verdict == TAILS
        even2 = self.find_parity_prime(session, 0, even)
        assert run_trial(session, even, even2).verdict == RETRY
        odd2 = self.find_parity_prime(session, 1, odd)
        assert run_trial(session, odd, odd2).verdict == RETRY
        assert len(session.rounds) == 3

    def test_bad_challenge_prime_flags_retry(self):
        # Curve (1, 7) has prime discriminant 1327, inside [1024, 2048] and
        # beyond m = 1000, so Bob can hit it with a challenge by chance.
        session = make_session(Curve(1, 7), 1024, 3)
        assert session.curve.discriminant == 1327
        assert session.m < 1327
        trial = run_trial(session, 1327, 1361)
        assert trial.verdict == RETRY and trial.bad_prime
        assert trial.parities is None

    def test_challenge_ordering_enforced(self):
        session = make_session(Curve(0, -2), 64, 3)
        with pytest.raises(DomainError):
            run_trial(session, 229, 227)
        with pytest.raises(DomainError):
            run_trial(session, 100, 227)  # below m

    def test_composite_challenge_rejected(self):
        session = make_session(Curve(0, -2), 64, 3)
        with pytest.raises(DomainError):
            run_trial(session, 221, 227)  # 221 = 13 * 17


class TestVerification:
    def honest_session(self, seed=4):
        rng = np.random.default_rng(seed)
        session = alice_setup(64, 3, rng)
        for _ in range(8):
            p, p_prime = bob_choose_primes(session.m, rng)
            if run_trial(session, p, p_prime).verdict in (HEADS, TAILS):
                break
        return session

    def test_honest_session_verifies(self):
        assert bob_verify(self.honest_session()).ok

    def test_tampered_commitment_rejected_with_index(self):
        session = self.honest_session()
        doctored = session.commitment.values.copy()
        doctored[17] += 2  # keep a(1) = 1 so the vector itself stays well formed
        session.commitment = dataclasses.replace(session.commitment, values=doctored)
        result = bob_verify(session)
        assert not result.ok
        assert result.first_mismatch == 18

    def test_swapped_curve_rejected(self):
        session = self.honest_session()
        rng = np.random.default_rng(99)
        other = alice_setup(64, 3, rng).curve
        while other == session.curve:
            other = alice_setup(64, 3, rng).curve
        session.curve = other
        assert not bob_verify(session).ok

    def test_tampering_detected_while_the_honest_sequence_is_memoized(self):
        session = self.honest_session()
        curve, honest = session.curve, session.commitment.values
        assert zeta_coefficients(curve, session.m).values is honest  # served from the memo
        doctored = honest.copy()
        doctored[17] += 2
        session.commitment = dataclasses.replace(session.commitment, values=doctored)
        assert bob_verify(session).first_mismatch == 18
        session.commitment = dataclasses.replace(session.commitment, values=honest)
        assert bob_verify(session).ok
        # The mirror curve shares the discriminant and degree, not the sequence.
        session.curve = Curve(curve.a, -curve.b)
        result = bob_verify(session)
        assert result.failure == "commitment coefficient mismatch"
        session.curve = curve
        assert bob_verify(session).ok

    def test_tampered_trial_parity_rejected(self):
        session = self.honest_session()
        trial = session.rounds[-1]
        flipped = (1 - trial.parities[0], trial.parities[1])
        session.rounds[-1] = Trial(trial.p, trial.p_prime, flipped, trial.verdict)
        assert not bob_verify(session).ok

    def test_out_of_window_discriminant_rejected(self):
        session = self.honest_session()
        session.B *= 8  # discriminant no longer lies in [B, 2B]
        assert not bob_verify(session).ok


class TestSessions:
    def test_full_session_decides_and_verifies(self):
        result = run_session(64, 3, 64, np.random.default_rng(6))
        assert result.verdict in (HEADS, TAILS)
        assert result.verified.ok
        steps = [r.step for r in result.transcript.records]
        assert steps[0] == "commit"
        assert steps[-2:] == ["reveal", "verify"]

    def test_single_round_can_stay_undecided(self):
        for seed in range(50):
            result = run_session(64, 3, 1, np.random.default_rng(seed))
            if result.verdict == UNDECIDED:
                assert result.n_trials == 1
                break
        else:
            pytest.fail("no undecided single-round session in 50 seeds")

    def test_statistics_track_targets(self):
        rng = np.random.default_rng(7)
        trials = decided = heads = 0
        for _ in range(600):
            result = run_session(64, 3, 64, rng)
            trials += result.n_trials
            if result.verdict in (HEADS, TAILS):
                decided += 1
                heads += result.verdict == HEADS
            assert result.verified.ok
        assert abs(decided / trials - 4 / 9) <= 0.05
        assert abs(heads / decided - 0.5) <= 0.07


class TestHiding:
    def test_commitment_does_not_pin_the_parity_stream(self):
        # Mirror curves (a, b) and (a, -b) both qualify for the same window
        # and share every trace parity, so the committed parities alone cannot
        # identify which curve produced them.
        found = None
        for a in range(-6, 7):
            for b in range(1, 12):
                disc = 4 * a**3 + 27 * b**2
                if not 64 <= disc <= 128:
                    continue
                if splitting_degree(a, b) != 6:
                    continue
                found = (a, b)
                break
            if found:
                break
        assert found, "no qualifying curve with b != 0"
        a, b = found
        one, two = Curve(a, b), Curve(a, -b)
        assert one.discriminant == two.discriminant
        m = commitment_length(64, 3)
        v1 = zeta_coefficients(one, m).values
        v2 = zeta_coefficients(two, m).values
        assert not np.array_equal(v1, v2)  # the vectors differ in sign pattern
        assert np.array_equal(v1 & 1, v2 & 1)  # but every parity coincides


class TestCommitmentCap:
    def test_oversized_commitment_rejected_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started past the cap")

        monkeypatch.setattr(coinflip, "zeta_coefficients", refuse)
        monkeypatch.setattr(coinflip, "primes_up_to", refuse)
        rng = np.random.default_rng(1)
        for B, k in ((64, 7), (64, 10**6), (10**400, 3)):
            with pytest.raises(ResourceError, match="commitment"):
                alice_setup(B, k, rng)
        with pytest.raises(ResourceError, match="challenge"):
            alice_setup(64, 3, rng, challenge_factor=10**5)

    def test_configured_lengths_fit(self):
        # The CLI default (B=64), the acceptance run (B=256) and the largest
        # benchmarked window (B=4096), all at k=3; k=6 at B=64 is the largest allowed.
        assert [commitment_length(B, 3) for B in (64, 256, 4096)] == [216, 512, 1728]
        assert commitment_length(64, 6) <= MAX_COMMITMENT < commitment_length(64, 7)
