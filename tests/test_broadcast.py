import numpy as np
import pytest

from qkeylab.errors import DomainError
from qkeylab.clocksync import Clock
from qkeylab.broadcast import (
    STREAM_BITS,
    BroadcastSource,
    KeyWindow,
    Receiver,
    aligned_start_time,
    bit_at,
    bits_range,
    bits_to_hex,
    bits_to_int,
    eve_recover,
    eve_store,
    extract_key,
    int_to_bits,
    reception_index,
)

SOURCE = BroadcastSource(seed=0xDEADBEEF, bitrate=1e6)


def receiver(label="alice", distance_m=0.0, offset_ns=0.0):
    return Receiver(label, distance_m, Clock(offset_ns))


class TestStreamBits:
    def test_deterministic(self):
        other = BroadcastSource(seed=0xDEADBEEF, bitrate=2e6)
        for index in (0, 7, 255, 256, 10_000):
            assert bit_at(SOURCE, index) == bit_at(other, index)

    def test_bits_range_matches_bit_at(self):
        window = bits_range(SOURCE, 250, 20)
        assert window.tolist() == [bit_at(SOURCE, 250 + i) for i in range(20)]

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            bit_at(SOURCE, -1)
        with pytest.raises(DomainError):
            bits_range(SOURCE, -5, 3)

    def test_stream_end(self):
        last = STREAM_BITS - 1
        assert bits_range(SOURCE, last - 3, 4)[-1] == bit_at(SOURCE, last)
        with pytest.raises(DomainError):
            bit_at(SOURCE, STREAM_BITS)
        with pytest.raises(DomainError):
            bits_range(SOURCE, last - 2, 4)
        with pytest.raises(DomainError):
            bits_range(SOURCE, STREAM_BITS, 4)

    def test_ones_fraction_over_million_bit_prefix(self):
        ones = int(bits_range(SOURCE, 0, 1_000_000).sum())
        assert 0.498 <= ones / 1_000_000 <= 0.502

    def test_two_seeds_hamming_distance(self):
        other = BroadcastSource(seed=0xDEADBEEF + 1, bitrate=1e6)
        a = bits_range(SOURCE, 0, 10_000)
        b = bits_range(other, 0, 10_000)
        distance = int((a != b).sum())
        assert 4700 <= distance <= 5300

    def test_seed_bounds(self):
        with pytest.raises(DomainError):
            BroadcastSource(seed=-1, bitrate=1e6)
        with pytest.raises(DomainError):
            BroadcastSource(seed=1 << 256, bitrate=1e6)


class TestReceptionIndex:
    def test_equidistant_parties_align(self):
        alice = receiver("alice")
        bob = receiver("bob")
        t = 12_345_678.5
        assert reception_index(SOURCE, alice, t) == reception_index(SOURCE, bob, t)

    def test_light_millisecond_lags_thousand_bits(self):
        # 299792.458 m is one light-millisecond; at 1e6 b/s that is 1000 bits.
        near = receiver("near", 0.0)
        far = receiver("far", 299_792.458)
        t = 5_000_000.5
        assert reception_index(SOURCE, near, t) - reception_index(SOURCE, far, t) == 1000

    def test_clock_offset_shifts_index(self):
        on_time = receiver("a", 0.0, offset_ns=0.0)
        ahead = receiver("b", 0.0, offset_ns=2000.0)  # clock reads 2 bits early
        t = 9_999_999.5
        assert (
            reception_index(SOURCE, on_time, t) - reception_index(SOURCE, ahead, t) == 2
        )

    def test_before_epoch_rejected(self):
        late_epoch = BroadcastSource(seed=1, bitrate=1e6, epoch_ns=1e9)
        with pytest.raises(DomainError):
            reception_index(late_epoch, receiver(), 0.5e9)


class TestExtractKey:
    def test_compensated_parties_agree(self):
        alice = receiver("alice", 100.0, offset_ns=0.0)
        bob = receiver("bob", 523_000.0, offset_ns=-77_000.0)
        t_alice = aligned_start_time(SOURCE, alice, 3e9)
        # Bob compensates with the true delay gap and true clock offset gap.
        t_bob = (
            t_alice
            + (bob.propagation_delay_ns - alice.propagation_delay_ns)
            + (bob.clock.offset_ns - alice.clock.offset_ns)
        )
        key_a = extract_key(SOURCE, alice, KeyWindow(t_alice, 128))
        key_b = extract_key(SOURCE, bob, KeyWindow(t_bob, 128))
        assert np.array_equal(key_a, key_b)

    def test_uncompensated_start_diverges(self):
        alice = receiver("alice", 0.0)
        bob = receiver("bob", 299_792.458)
        t = aligned_start_time(SOURCE, alice, 3e9)
        key_a = extract_key(SOURCE, alice, KeyWindow(t, 128))
        key_b = extract_key(SOURCE, bob, KeyWindow(t, 128))
        assert not np.array_equal(key_a, key_b)

    def test_one_bit_shift_changes_key(self):
        alice = receiver("alice")
        t = aligned_start_time(SOURCE, alice, 3e9)
        base = extract_key(SOURCE, alice, KeyWindow(t, 128))
        shifted = extract_key(
            SOURCE, alice, KeyWindow(t + SOURCE.bit_period_ns, 128)
        )
        assert not np.array_equal(base, shifted)

    def test_zero_length_window_rejected(self):
        with pytest.raises(DomainError):
            KeyWindow(1e9, 0)


class TestAlignedStartTime:
    def test_lands_mid_bit(self):
        alice = receiver("alice", 12_345.0, offset_ns=777.0)
        t = aligned_start_time(SOURCE, alice, 2.5e9)
        elapsed = (
            t - alice.clock.offset_ns - alice.propagation_delay_ns - SOURCE.epoch_ns
        )
        position = elapsed * SOURCE.bitrate / 1e9
        assert position - np.floor(position) == pytest.approx(0.5, abs=1e-6)
        assert t >= 2.5e9


class TestEve:
    def window(self, length=8, span=1024, start_index=None):
        if start_index is None:
            start_index = (span - length) // 2
        return KeyWindow((start_index + 0.5) * SOURCE.bit_period_ns, length)

    def test_full_storage_recovers_everything(self):
        rng = np.random.default_rng(1)
        window = self.window(length=32)
        view = eve_store(SOURCE, window, 0, 1024, 1.0, rng)
        recovery = eve_recover(view, SOURCE, receiver())
        assert recovery.known_bits == 32
        assert recovery.guess_success_probability == pytest.approx(1.0)
        assert np.array_equal(
            recovery.recovered, extract_key(SOURCE, receiver(), window).astype(np.int8)
        )

    def test_empty_storage_guesses_blind(self):
        rng = np.random.default_rng(1)
        window = self.window(length=16)
        view = eve_store(SOURCE, window, 0, 1024, 0.0, rng)
        recovery = eve_recover(view, SOURCE, receiver())
        assert recovery.known_bits == 0
        assert recovery.guess_success_probability == pytest.approx(2.0**-16)
        assert (recovery.recovered == -1).all()

    def test_storage_budget_respected(self):
        rng = np.random.default_rng(2)
        for fraction in (0.1, 0.33, 0.5, 0.9):
            view = eve_store(SOURCE, self.window(), 0, 1000, fraction, rng)
            assert len(view.stored_indices) <= fraction * 1000 + 1
            assert len(np.unique(view.stored_indices)) == len(view.stored_indices)

    def test_mean_known_bits_half_storage(self):
        # 1000 draws at fraction 1/2 against a 128-bit window.
        window = self.window(length=128, span=2048)
        known = []
        for i in range(1000):
            rng = np.random.default_rng(3000 + i)
            view = eve_store(SOURCE, window, 0, 2048, 0.5, rng)
            known.append(eve_recover(view, SOURCE, receiver()).known_bits)
        assert abs(float(np.mean(known)) - 64.0) <= 3.4

    def test_prefix_strategy(self):
        rng = np.random.default_rng(4)
        window = self.window(length=8, span=1024, start_index=0)
        view = eve_store(SOURCE, window, 0, 1024, 0.25, rng, strategy="prefix")
        assert view.stored_indices.tolist() == list(range(256))
        assert eve_recover(view, SOURCE, receiver()).known_bits == 8

    def test_unknown_strategy_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DomainError):
            eve_store(SOURCE, self.window(), 0, 1024, 0.5, rng, strategy="clever")


class TestBitPlumbing:
    def test_int_round_trip(self):
        for value, width in ((0, 4), (11, 4), (255, 8), (1, 1), (2**20 - 3, 20)):
            bits = int_to_bits(value, width)
            assert bits_to_int(bits) == value

    def test_known_conversion(self):
        assert bits_to_int(np.array([1, 0, 1, 1], dtype=np.uint8)) == 11
        assert int_to_bits(11, 4).tolist() == [1, 0, 1, 1]

    def test_hex_rendering(self):
        assert bits_to_hex(np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)) == "f0"

    def test_width_overflow_rejected(self):
        with pytest.raises(DomainError):
            int_to_bits(16, 4)


class TestKeyAgreementSweep:
    def test_compensated_parties_agree_across_random_geometry(self):
        # Invariant: with correct delay and offset compensation the two
        # extractions are identical bits for any seed and geometry.
        for i in range(25):
            rng = np.random.default_rng(5000 + i)
            source = BroadcastSource(seed=int(rng.integers(1 << 62)), bitrate=float(rng.choice([1e5, 1e6, 1e7])))
            alice = Receiver("alice", float(rng.uniform(0, 2e6)), Clock(float(rng.uniform(-5e5, 5e5))))
            bob = Receiver("bob", float(rng.uniform(0, 2e6)), Clock(float(rng.uniform(-5e5, 5e5))))
            t_alice = aligned_start_time(source, alice, 4e9)
            t_bob = (
                t_alice
                + (bob.propagation_delay_ns - alice.propagation_delay_ns)
                + (bob.clock.offset_ns - alice.clock.offset_ns)
            )
            length = int(rng.integers(1, 257))
            key_a = extract_key(source, alice, KeyWindow(t_alice, length))
            key_b = extract_key(source, bob, KeyWindow(t_bob, length))
            assert np.array_equal(key_a, key_b)
