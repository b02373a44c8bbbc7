"""Size caps on primes and moduli, stream reads, storage spans, sync ladders, teleported
integers, slot schedules, walk graphs, searches, traces and sweeps, and the
stream-position check on receiver geometry."""
import math

import numpy as np
import pytest

from qkeylab import broadcast, clocksync, keyexchange, numtheory, qwalk, teleport
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
from qkeylab.keyexchange import DhParams, PartySecret, pq_dh, private_exchange
from qkeylab.teleport import teleport_index


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
    # pq_dh teleports a flip index as wide as its modulus, private_exchange a slot.
    assert teleport.MAX_TELEPORT_BITS >= numtheory.MAX_PRIME_BITS
    assert teleport.MAX_TELEPORT_BITS >= keyexchange.MAX_SLOT_BITS
    # One marked torus vertex (4 arcs) at the step cap: the sweep and eve-qwalk.
    assert qwalk.MAX_TRACE_VALUES >= 4 * (qwalk.MAX_WALK_STEPS + 1)
    assert numtheory.random_prime(48, np.random.default_rng(1)).bit_length() == 48


def test_random_prime_cap_fires_before_drawing():
    with pytest.raises(ResourceError, match="cap"):
        numtheory.random_prime(numtheory.MAX_PRIME_BITS + 1, RefusingGenerator())


def test_sync_shot_cap_fires_before_drawing():
    with pytest.raises(ResourceError, match="cap"):
        ticking_qubit_sync(0.0, 4, 1e6, clocksync.MAX_SHOTS_PER_BIT + 1, RefusingGenerator())


@pytest.mark.parametrize(
    "n_bits,t_max_ns",
    [
        (clocksync.MAX_SYNC_BITS + 1, 1e6),
        (1100, 1e6),  # 2^1100 overflows to an infinite rung frequency
        (14, math.inf),
        (14, math.nan),
    ],
)
def test_sync_ladder_limits_fire_before_drawing(n_bits, t_max_ns):
    with pytest.raises(DomainError):
        ticking_qubit_sync(0.0, n_bits, t_max_ns, 100, RefusingGenerator())


def test_sync_window_too_small_for_its_rungs_fires_before_drawing():
    # The top rung's rate 2*pi*2^39 / 1e-300 overflows to inf.
    with pytest.raises(DomainError, match="t_max_ns .* n_bits"):
        ticking_qubit_sync(0.0, 40, 1e-300, 100, RefusingGenerator())


def test_sync_ladder_runs_at_its_cap():
    rng = np.random.default_rng(3)
    result = ticking_qubit_sync(1e3, clocksync.MAX_SYNC_BITS, 1e6, 2, rng)
    assert math.isfinite(result.delta_estimate_ns)


def _link():
    source = BroadcastSource(seed=7, bitrate=1e6)
    return source, Receiver("alice", 0.0, Clock(0.0)), Receiver("bob", 0.0, Clock(0.0))


def test_teleport_width_cap_fires_before_drawing():
    with pytest.raises(ResourceError, match="cap"):
        teleport_index(0, teleport.MAX_TELEPORT_BITS + 1, RefusingGenerator())
    n = (1 << teleport.MAX_TELEPORT_BITS) - 3
    value, records = teleport_index(n, teleport.MAX_TELEPORT_BITS, np.random.default_rng(4))
    assert value == n
    assert len(records) == teleport.MAX_TELEPORT_BITS


def test_pq_dh_window_past_the_teleport_cap_fires_before_the_sync():
    window = KeyWindow(0.0, teleport.MAX_TELEPORT_BITS + 1)
    with pytest.raises(ResourceError, match="cap"):
        pq_dh(*_link(), window, 23, PartySecret(3), PartySecret(5), RefusingGenerator())


def _refuse_primality_tests(monkeypatch):
    def refuse(n):
        raise AssertionError("primality test started past the modulus cap")

    monkeypatch.setattr(keyexchange, "is_probable_prime", refuse)


# 2^1024 - 105 is the largest 1024-bit prime; 2^1024 + 1 has 1025 bits.
PRIME_1024 = (1 << 1024) - 105


def test_modulus_cap_fires_before_the_primality_test(monkeypatch):
    _refuse_primality_tests(monkeypatch)
    with pytest.raises(ResourceError, match="cap"):
        DhParams((1 << numtheory.MAX_PRIME_BITS) + 1, 3)


def test_pq_dh_modulus_cap_fires_before_the_primality_test_and_the_sync(monkeypatch):
    _refuse_primality_tests(monkeypatch)
    p = (1 << numtheory.MAX_PRIME_BITS) + 1
    with pytest.raises(ResourceError, match="cap"):
        pq_dh(*_link(), KeyWindow(0.0, 8), p, PartySecret(3), PartySecret(5), RefusingGenerator())


def test_modulus_at_the_cap_is_accepted():
    assert PRIME_1024.bit_length() == numtheory.MAX_PRIME_BITS
    assert DhParams(PRIME_1024, 3).p == PRIME_1024
    with pytest.raises(DomainError, match="not an odd prime"):
        DhParams(PRIME_1024 - 2, 3)


# Composites that pass Miller-Rabin to every prime base up to 41: psi_13 and
# Arnault's 225-bit p1 * p2 * p3.
ARNAULT_P1 = 2065184673071070978043
BASE_41_PSEUDOPRIMES = [
    3317044064679887385961981,
    ARNAULT_P1 * (53 * (ARNAULT_P1 - 1) + 1) * (61 * (ARNAULT_P1 - 1) + 1),
]


@pytest.mark.parametrize("n", BASE_41_PSEUDOPRIMES, ids=lambda n: f"{n.bit_length()}bits")
def test_base_41_pseudoprime_modulus_rejected_before_the_sync(n):
    with pytest.raises(DomainError, match="not an odd prime"):
        DhParams(n, 3)
    with pytest.raises(DomainError, match="not an odd prime"):
        pq_dh(*_link(), KeyWindow(0.0, 8), n, PartySecret(3), PartySecret(5), RefusingGenerator())


def test_slot_bits_cap_fires_before_the_sync():
    with pytest.raises(ResourceError, match="cap"):
        private_exchange(
            *_link(),
            KeyWindow(0.0, 8),
            RefusingGenerator(),
            slot_bits=keyexchange.MAX_SLOT_BITS + 1,
        )


def test_trace_value_cap_fires_before_the_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walk started past the cap")

    monkeypatch.setattr(qwalk, "_walk", refuse)
    graph = qwalk.binary_tree_graph(1, marked={1})  # a leaf: one marked arc
    assert graph.marked_arcs.size == 1
    with pytest.raises(ResourceError, match="cap"):
        qwalk.success_probability_trace(graph, qwalk.MAX_TRACE_VALUES)  # cap + 1 values
    with pytest.raises(AssertionError, match="walk started"):
        qwalk.success_probability_trace(graph, qwalk.MAX_TRACE_VALUES - 1)


def test_walk_caps_fire_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started past the cap")

    n = qwalk.MAX_VERTICES
    too_big = [
        (qwalk.cycle_graph, n + 1),
        (qwalk.torus_graph, (math.isqrt(n) + 1) ** 2),
        (qwalk.binary_tree_graph, 16),  # 2^17 - 1 vertices
        (qwalk.binary_tree_graph, 10**9),
    ]
    with monkeypatch.context() as patched:
        patched.setattr(qwalk.np, "arange", refuse)
        for build, size in too_big:
            with pytest.raises(ResourceError, match="cap"):
                build(size)
    assert qwalk.cycle_graph(n).n_vertices == n
    assert qwalk.torus_graph(n).n_vertices == n
    assert qwalk.binary_tree_graph(15).n_vertices == n - 1
    graph = qwalk.cycle_graph(5, marked={1})
    monkeypatch.setattr(qwalk, "walk_distribution", refuse)
    with pytest.raises(ResourceError, match="cap"):
        qwalk.search(graph, 4, RefusingGenerator(), qwalk.MAX_SEARCH_TRIALS + 1)


def test_sweep_size_count_cap_fires_before_any_walk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walk started past the cap")

    sizes = [qwalk.MAX_VERTICES] * (qwalk.MAX_SWEEP_SIZES + 1)
    with monkeypatch.context() as patched:
        patched.setattr(qwalk, "torus_graph", refuse)
        patched.setattr(qwalk, "success_probability_trace", refuse)
        with pytest.raises(ResourceError, match="cap"):
            qwalk.scaling_sweep(sizes, 16.0)
    points = qwalk.scaling_sweep([9] * qwalk.MAX_SWEEP_SIZES)
    assert len(points) == qwalk.MAX_SWEEP_SIZES


BAD_CAP_FACTORS = [math.nan, math.inf, -math.inf, 1e308]  # 1e308 overflows the step bound
WALK_DOMAIN_CASES = [
    (qwalk.torus_graph, (-1,)),
    (qwalk.scaling_sweep, ([-1],)),
    (qwalk.sweep_step_cap, (0,)),
    (qwalk.sweep_step_cap, (-1,)),
    *((qwalk.sweep_step_cap, (16, x)) for x in BAD_CAP_FACTORS),
    *((qwalk.keyspace_grid_attack, (0, 6, x)) for x in BAD_CAP_FACTORS),
]


@pytest.mark.parametrize(
    "fn, call", WALK_DOMAIN_CASES, ids=[f"{fn.__name__}{call}" for fn, call in WALK_DOMAIN_CASES]
)
def test_walk_sizes_and_step_bounds_out_of_domain_raise_domain_error(fn, call, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walk started before the check")

    monkeypatch.setattr(qwalk, "success_probability_trace", refuse)
    with pytest.raises(DomainError):
        fn(*call)


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
