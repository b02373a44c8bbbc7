"""Size caps on primes, stream reads, storage spans and sync shots, and the
stream-position check on receiver geometry."""
import numpy as np
import pytest

from qkeylab import broadcast, clocksync, numtheory
from qkeylab.broadcast import (
    BroadcastSource,
    KeyWindow,
    Receiver,
    aligned_start_time,
    eve_store,
    reception_index,
)
from qkeylab.clocksync import Clock, ticking_qubit_sync
from qkeylab.errors import DomainError, ResourceError


class RefusingGenerator:
    """Stands in for numpy's Generator: any draw means work started past a cap."""

    def __getattr__(self, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"rng.{name} called past the cap")

        return refuse


def test_caps_admit_every_shipped_config():
    # p_bits 48, length_bits 128, span 2048 and 100 shots per rung are the
    # golden, acceptance and benchmark sizes.
    assert numtheory.MAX_PRIME_BITS >= 48
    assert broadcast.MAX_WINDOW_BITS >= 128
    assert broadcast.MAX_STORAGE_SPAN >= 2048
    assert clocksync.MAX_SHOTS_PER_BIT >= clocksync.SYNC_SHOTS_PER_BIT == 100
    assert numtheory.random_prime(48, np.random.default_rng(1)).bit_length() == 48


def test_random_prime_cap_fires_before_drawing():
    with pytest.raises(ResourceError, match="cap"):
        numtheory.random_prime(numtheory.MAX_PRIME_BITS + 1, RefusingGenerator())


def test_sync_shot_cap_fires_before_drawing():
    with pytest.raises(ResourceError, match="cap"):
        ticking_qubit_sync(0.0, 4, 1e6, clocksync.MAX_SHOTS_PER_BIT + 1, RefusingGenerator())


def test_storage_span_cap_fires_before_drawing():
    source = BroadcastSource(seed=7, bitrate=1e6)
    window = KeyWindow(1e6, 8)
    with pytest.raises(ResourceError, match="cap"):
        eve_store(source, window, 0, broadcast.MAX_STORAGE_SPAN + 1, 0.9, RefusingGenerator())
    view = eve_store(source, window, 0, 2048, 0.5, np.random.default_rng(2))
    assert view.stored_indices.size == 1024


def test_window_cap():
    assert KeyWindow(0.0, broadcast.MAX_WINDOW_BITS).length == broadcast.MAX_WINDOW_BITS
    with pytest.raises(ResourceError, match="cap"):
        KeyWindow(0.0, broadcast.MAX_WINDOW_BITS + 1)


@pytest.mark.parametrize(
    "bitrate,distance_m,local_ns",
    [
        (1e6, 1e300, float("inf")),  # infinite delay and time: NaN elapsed
        (1e300, 0.0, 1e9),  # infinite position
        (1e6, 0.0, float("inf")),
        (1e6, 0.0, 1e300),  # finite, past the stream's 2^72 bits
    ],
)
def test_geometry_without_a_stream_position_is_a_domain_error(bitrate, distance_m, local_ns):
    source = BroadcastSource(seed=7, bitrate=bitrate)
    receiver = Receiver("r", distance_m, Clock(0.0))
    for fn in (reception_index, aligned_start_time):
        with pytest.raises(DomainError, match="stream position"):
            fn(source, receiver, local_ns)


def test_last_stream_positions_still_resolve():
    source = BroadcastSource(seed=7, bitrate=1e9)
    receiver = Receiver("r", 0.0, Clock(0.0))
    assert reception_index(source, receiver, 2.0**71) == 2**71
    with pytest.raises(DomainError, match="stream position"):
        reception_index(source, receiver, 2.0**72)
