import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkeylab import keyexchange
from qkeylab.errors import DomainError, LifecycleError
from qkeylab.clocksync import Clock
from qkeylab.broadcast import BroadcastSource, KeyWindow, Receiver, bits_to_hex
from qkeylab.keyexchange import (
    DhParams,
    PartySecret,
    classic_dh,
    crack_classic_dh,
    flip_bit,
    pq_candidate_keys,
    pq_dh,
    private_exchange,
    random_prime,
)
from qkeylab.qwalk import walk_agreement
from qkeylab.transcript import int_payload
from qkeylab.numtheory import is_probable_prime
from oracles import brute_force_dlog


def pow_oracle(base, exponent, modulus):
    # Independent check: plain repeated multiplication.
    result = 1
    for _ in range(exponent):
        result = result * base % modulus
    return result


def make_link(bitrate=1e6, distance_b=299_792.458, offset_b=40_000.0):
    source = BroadcastSource(seed=99, bitrate=bitrate)
    alice = Receiver("alice", 0.0, Clock(0.0))
    bob = Receiver("bob", distance_b, Clock(offset_b))
    return source, alice, bob


class TestDhArithmetic:
    def test_worked_example_against_oracle(self):
        result = classic_dh(DhParams(23, 5), PartySecret(6), PartySecret(15))
        assert result.share_alice == pow_oracle(5, 6, 23) == 8
        assert result.share_bob == pow_oracle(5, 15, 23) == 19

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([q for q in range(3, 400) if is_probable_prime(q)]))
    def test_matches_repeated_multiplication(self, data, p):
        g = data.draw(st.integers(min_value=1, max_value=p - 1), label="g")
        a = data.draw(st.integers(min_value=1, max_value=p - 1), label="a")
        b = data.draw(st.integers(min_value=1, max_value=p - 1), label="b")
        result = classic_dh(DhParams(p, g), PartySecret(a), PartySecret(b))
        assert result.share_alice == pow_oracle(g, a, p)
        assert result.share_bob == pow_oracle(g, b, p)
        assert result.key_alice.reveal() == pow_oracle(result.share_bob, a, p)
        assert result.key_bob.reveal() == pow_oracle(result.share_alice, b, p)


class TestParams:
    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            DhParams(21, 2)

    def test_base_range(self):
        with pytest.raises(DomainError):
            DhParams(23, 0)
        with pytest.raises(DomainError):
            DhParams(23, 23)

    def test_secret_never_in_repr(self):
        assert "6" not in repr(PartySecret(6))

    def test_random_prime_size_and_primality(self):
        rng = np.random.default_rng(0)
        for bits in (16, 32, 48):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert all(p % q for q in (2, 3, 5, 7, 11, 13) if q < p)


class TestClassicDh:
    def test_worked_example(self):
        result = classic_dh(DhParams(23, 5), PartySecret(6), PartySecret(15))
        assert result.agreed
        assert result.key_alice.reveal() == 2
        assert result.key_bob.reveal() == 2

    def test_unit_exponents(self):
        result = classic_dh(DhParams(23, 5), PartySecret(1), PartySecret(1))
        assert result.key_alice.reveal() == 5 % 23

    def test_exhaustive_small_prime(self):
        params = DhParams(23, 5)
        for a in range(1, 23):
            for b in range(1, 23):
                result = classic_dh(params, PartySecret(a), PartySecret(b))
                assert result.agreed
                assert result.key_alice.reveal() == result.key_bob.reveal()

    def test_eve_view_is_exactly_the_public_data(self):
        result = classic_dh(DhParams(23, 5), PartySecret(6), PartySecret(15))
        view = {(r.step, int.from_bytes(r.payload, "big")) for r in result.transcript.eve_view}
        assert view == {
            ("params.p", 23),
            ("params.g", 5),
            ("share.alice", result.share_alice),
            ("share.bob", result.share_bob),
        }


class TestSharedKeyLifecycle:
    def test_reveal_once(self):
        result = classic_dh(DhParams(23, 5), PartySecret(3), PartySecret(4))
        key = result.key_alice
        assert key.lifecycle == "live"
        key.reveal()
        assert key.lifecycle == "vanished"
        with pytest.raises(LifecycleError):
            key.reveal()

    @pytest.mark.parametrize(
        "exchange", ["classic_dh", "pq_dh", "private_exchange", "walk_agreement"]
    )
    def test_every_exchange_reveals_each_key_once(self, exchange):
        source, alice, bob = make_link()
        window, rng = KeyWindow(2e9, 16), np.random.default_rng(1)
        a, b = PartySecret(3), PartySecret(4)
        run = {
            "classic_dh": lambda: classic_dh(DhParams(23, 5), a, b),
            "pq_dh": lambda: pq_dh(source, alice, bob, window, 65_521, a, b, rng),
            "private_exchange": lambda: private_exchange(source, alice, bob, window, rng),
            "walk_agreement": lambda: walk_agreement(alice, bob, source, window, rng),
        }[exchange]
        result = run()
        for key in (result.key_alice, result.key_bob):
            key.reveal()
            with pytest.raises(LifecycleError):
                key.reveal()

    def test_render_hides_used_key(self):
        result = classic_dh(DhParams(23, 5), PartySecret(3), PartySecret(4))
        assert result.key_alice.render() != "<vanished>"
        result.key_alice.reveal()
        assert result.key_alice.render() == "<vanished>"


class TestFlipConvention:
    def test_worked_example(self):
        # 0b1011 with bit 2 flipped becomes 0b1111.
        assert flip_bit(11, 2) == 15

    def test_involution(self):
        for value in (0, 1, 77, 2**40 + 5):
            for index in (0, 3, 17):
                assert flip_bit(flip_bit(value, index), index) == value

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            flip_bit(4, -1)


class TestPqDh:
    def run_session(self, seed=5, p_bits=48, **link_kwargs):
        rng = np.random.default_rng(seed)
        source, alice, bob = make_link(**link_kwargs)
        p = random_prime(p_bits, rng)
        a = PartySecret(int(rng.integers(1, p)))
        b = PartySecret(int(rng.integers(1, p)))
        window = KeyWindow(2e9, p_bits)
        return p, pq_dh(source, alice, bob, window, p, a, b, rng)

    def test_end_to_end_agreement(self):
        _, result = self.run_session()
        assert result.agreed
        assert result.key_alice.reveal() == result.key_bob.reveal()
        assert result.generator_alice == result.generator_bob
        assert result.tweaked_alice == result.tweaked_bob

    def test_tweak_applies_flip_convention(self):
        _, result = self.run_session(seed=8)
        assert result.tweaked_alice == flip_bit(result.generator_alice, result.flip_index)

    def test_eve_view_structure(self):
        p, result = self.run_session(seed=9)
        allowed = {
            "sync.estimate",
            "start-time",
            "window.retry",
            "flip.retry",
            "params.p",
            "share.alice",
            "share.bob",
        }
        secrets = {
            result.generator_alice,
            result.tweaked_alice,
            result.flip_index,
        }
        saw = set()
        for record in result.transcript.eve_view:
            step = record.step.split("[")[0]
            saw.add(step)
            assert step in allowed | {"flip-index.outcome"}
            if step in ("params.p", "share.alice", "share.bob"):
                value = int.from_bytes(record.payload, "big")
                assert value not in secrets or value in (result.share_alice, result.share_bob, p)
        assert {"start-time", "params.p", "share.alice", "share.bob"} <= saw
        # the teleported flip index and both generators never ride a public record
        for value in secrets:
            assert int_payload(value) not in [r.payload for r in result.transcript.eve_view]

    def test_quantum_records_present_but_private(self):
        _, result = self.run_session(seed=10)
        channels = {r.channel for r in result.transcript.records}
        assert {"public", "quantum", "broadcast"} <= channels
        assert all(r.channel == "public" for r in result.transcript.eve_view)

    def test_no_key_material_in_transcript(self):
        _, result = self.run_session(seed=11)
        key = result.key_alice.reveal()
        payloads = [r.payload for r in result.transcript.records]
        assert int_payload(key) not in payloads

    def test_desync_is_flagged_not_silent(self):
        # At 1 ns bit period the sync residue exceeds one bit, so the windows
        # drift apart and the run must report disagreement.
        for seed in range(40):
            _, result = self.run_session(seed=seed, bitrate=1e9, offset_b=250_000.0)
            if not result.agreed:
                steps = {r.step for r in result.transcript.records}
                assert "key.mismatch" in steps
                break
        else:
            pytest.fail("expected at least one desynchronized session in 40 runs")

    def test_invalid_modulus_rejected(self):
        rng = np.random.default_rng(0)
        source, alice, bob = make_link()
        with pytest.raises(DomainError):
            pq_dh(source, alice, bob, KeyWindow(2e9, 8), 21, PartySecret(2), PartySecret(3), rng)


class TestPrivateExchange:
    def test_matched_run_identical_keys(self):
        rng = np.random.default_rng(3)
        source, alice, bob = make_link()
        result = private_exchange(source, alice, bob, KeyWindow(2e9, 128), rng)
        assert result.agreed
        key_a = result.key_alice.reveal()
        key_b = result.key_bob.reveal()
        assert len(key_a) == 128
        assert np.array_equal(key_a, key_b)

    def test_keys_vanish_after_use(self):
        rng = np.random.default_rng(4)
        source, alice, bob = make_link()
        result = private_exchange(source, alice, bob, KeyWindow(2e9, 64), rng)
        result.key_alice.reveal()
        with pytest.raises(LifecycleError):
            result.key_alice.reveal()
        assert result.key_alice.render() == "<vanished>"

    def test_slot_index_never_public(self):
        rng = np.random.default_rng(5)
        source, alice, bob = make_link()
        result = private_exchange(source, alice, bob, KeyWindow(2e9, 32), rng)
        assert int_payload(result.slot_index) not in [
            r.payload for r in result.transcript.eve_view
        ]
        steps = {r.step.split("[")[0] for r in result.transcript.eve_view}
        assert "slot-schedule" in steps
        assert "slot-index.outcome" in steps  # measurement bits alone are useless


class TestDeskScaleEve:
    def test_classic_exchange_falls_to_discrete_log(self):
        result = classic_dh(DhParams(23, 5), PartySecret(6), PartySecret(15))
        cracked = crack_classic_dh(23, 5, result.share_alice, result.share_bob)
        assert cracked == result.key_alice.reveal()

    def test_dlog_outside_subgroup_returns_none(self):
        # 2 generates a proper subgroup of (Z/7)*: {1, 2, 4}.
        assert brute_force_dlog(7, 2, 5) is None

    def test_hidden_generator_leaves_eve_ambiguous(self):
        rng = np.random.default_rng(6)
        source, alice, bob = make_link()
        p = 23
        width = 5
        a = PartySecret(int(rng.integers(1, p)))
        b = PartySecret(int(rng.integers(1, p)))
        result = pq_dh(source, alice, bob, KeyWindow(2e9, width), p, a, b, rng)
        true_key = result.key_alice.reveal()
        candidates = pq_candidate_keys(p, result.share_alice, result.share_bob, width)
        assert true_key in candidates
        assert len(candidates) > 1


SMALL_PRIMES = [p for p in range(3, 60) if is_probable_prime(p)]


def candidate_keys_over_every_generator(p, share_a, share_b, width):
    """The candidate loop over all 2**width generators, one brute-force log each."""
    keys = set()
    for g1 in range(1, 1 << width):
        if g1 % p == 0:
            continue
        e = brute_force_dlog(p, g1 % p, share_a)
        if e is None:
            continue
        keys.add(pow(share_b, e, p))
    return sorted(keys)


class TestLogTable:
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_equals_the_brute_force_on_a_full_grid(self, p):
        # g spans three periods (g = 0, p, 2p are all 0 mod p); t runs from
        # negative values through 0 and 1 to past p.
        dlog = keyexchange._discrete_log(p)
        for g in range(-p, 2 * p + 1):
            for t in range(-3, 2 * p + 3):
                assert dlog(g, t) == brute_force_dlog(p, g, t), (g, t)

    @pytest.mark.parametrize("p", [257, 7919, 65537])
    def test_equals_the_brute_force_at_larger_primes(self, p):
        dlog = keyexchange._discrete_log(p)
        targets = [-1, 0, 1, 2, 3, p // 2, p - 2, p - 1, p, p + 1]
        for g in [*range(12), p - 2, p - 1, p, p + 3]:
            for t in targets:
                assert dlog(g, t) == brute_force_dlog(p, g, t), (g, t)

    @pytest.mark.parametrize("p", SMALL_PRIMES[:8])
    def test_classic_crack_equals_the_brute_force(self, p):
        for g in range(1, p):
            for share_a in range(-2, p + 3):
                e = brute_force_dlog(p, g, share_a)
                for share_b in (0, 2, p - 1, p + 3):
                    if e is None:
                        with pytest.raises(DomainError, match="not a power"):
                            crack_classic_dh(p, g, share_a, share_b)
                    else:
                        assert crack_classic_dh(p, g, share_a, share_b) == pow(share_b, e, p)

    @pytest.mark.parametrize(
        "seed,p,width", [(6, 23, 5), (7, 101, 8), (8, 11, 6), (9, 257, 10), (10, 23, 3)]
    )
    def test_candidates_equal_the_loop_over_every_generator(self, seed, p, width):
        rng = np.random.default_rng(seed)
        source, alice, bob = make_link()
        a = PartySecret(int(rng.integers(1, p)))
        b = PartySecret(int(rng.integers(1, p)))
        result = pq_dh(source, alice, bob, KeyWindow(2e9, width), p, a, b, rng)
        for share_a in (result.share_alice, 0, 1, p - 1, p, p + 3, -1):
            for share_b in (result.share_bob, 0, p + 3):
                expected = candidate_keys_over_every_generator(p, share_a, share_b, width)
                assert pq_candidate_keys(p, share_a, share_b, width) == expected
        assert result.key_alice.reveal() in pq_candidate_keys(
            p, result.share_alice, result.share_bob, width
        )


class TestPrivateExchangeEve:
    def test_blind_eavesdropper_guesses_at_chance(self):
        # A full protocol run, then the bounded-storage attack against the
        # actual window it used: with nothing stored the guess probability
        # is exactly 2^-128.
        from qkeylab.broadcast import eve_recover, eve_store

        rng = np.random.default_rng(12)
        source, alice, bob = make_link()
        result = private_exchange(source, alice, bob, KeyWindow(2e9, 128), rng)
        window = KeyWindow(
            (result.start_index_alice + 0.5) * source.bit_period_ns, 128
        )
        span_start = max(0, result.start_index_alice - 1000)
        view = eve_store(source, window, span_start, 4096, 0.0, rng)
        recovery = eve_recover(view, source, Receiver("eve", 0.0, Clock(0.0)))
        assert recovery.known_bits == 0
        assert recovery.guess_success_probability == pytest.approx(2.0**-128)

    def test_no_key_material_in_transcript(self):
        rng = np.random.default_rng(13)
        source, alice, bob = make_link()
        result = private_exchange(source, alice, bob, KeyWindow(2e9, 64), rng)
        key = result.key_alice.reveal()
        assert bytes.fromhex(bits_to_hex(key)) not in [r.payload for r in result.transcript.records]


class TestArbitraryPrecision:
    def test_exchange_with_128_bit_modulus(self):
        rng = np.random.default_rng(77)
        p = random_prime(128, rng)
        g = 2 + int(rng.integers(1000))
        from qkeylab.keyexchange import random_secret

        a = random_secret(p, rng)
        b = random_secret(p, rng)
        result = classic_dh(DhParams(p, g), a, b)
        key = result.key_alice.reveal()
        assert key == result.key_bob.reveal()
        assert key == pow(g, a.exponent * b.exponent, p)
        assert p.bit_length() == 128
