"""Size caps on primes and moduli, stream reads, storage spans, sync ladders, teleported
integers and flip indices, bit conversions, slot schedules, walk graphs and key grids,
searches, traces and sweeps, the desk-scale eavesdropper's moduli and widths, the
stream-position checks on receiver geometry and stored indices, and the size and number
of the draws behind one sync ladder or one teleported integer."""
import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qkeylab import broadcast, clocksync, ecurve, keyexchange, numtheory, qwalk, teleport
from qkeylab.broadcast import (
    BroadcastSource,
    KeyWindow,
    Receiver,
    aligned_start_time,
    eve_recover,
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


class RecordingGenerator:
    """Wraps numpy's Generator and records the number of doubles of every `random` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.requests = []

    def random(self, size=None, out=None):
        self.requests.append(int(np.prod(size if out is None else out.shape)))
        return self.rng.random(size, out=out)


ROOT = Path(__file__).resolve().parents[1]


def test_every_cap_is_named_in_the_readme():
    caps = [
        f"{path.stem}.{target.id}"
        for path in sorted((ROOT / "src" / "qkeylab").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    ]
    assert "keyexchange.MAX_DLOG_PRIME" in caps
    readme = (ROOT / "README.md").read_text()
    assert [cap for cap in caps if f"`{cap}`" not in readme] == []


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


def test_random_bound_cap_fires_before_drawing():
    too_wide = 1 << numtheory.MAX_PRIME_BITS  # MAX_PRIME_BITS + 1 bits
    with pytest.raises(ResourceError, match="cap"):
        numtheory.random_below(too_wide, RefusingGenerator())
    with pytest.raises(ResourceError, match="cap"):
        keyexchange.random_secret(too_wide + 1, RefusingGenerator())  # p - 1 has the same width
    assert 0 <= numtheory.random_below(too_wide - 1, np.random.default_rng(1)) < too_wide - 1


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


def test_sync_ladder_at_both_caps_draws_in_bounded_chunks():
    rungs, shots = clocksync.MAX_SYNC_BITS, clocksync.MAX_SHOTS_PER_BIT
    rng = RecordingGenerator(3)
    tracemalloc.start()
    try:
        result = ticking_qubit_sync(1e3, rungs, 1e6, shots, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(result.delta_estimate_ns)
    assert sum(rng.requests) == rungs * shots
    assert max(rng.requests) <= clocksync.MAX_SHOTS_PER_BIT
    # One chunk of draws (8 MB) and its two masks (1 MB). A second live chunk
    # would pass 16 MB; a (rungs, shots) matrix of draws, thresholds or masks
    # would hold 54 to 436 MB.
    assert peak < 12 * clocksync.MAX_SHOTS_PER_BIT


def test_default_sync_ladder_draws_once():
    rng = RecordingGenerator(4)
    ticking_qubit_sync(1234.5, clocksync.SYNC_N_BITS, clocksync.SYNC_T_MAX_NS, 100, rng)
    assert rng.requests == [clocksync.SYNC_N_BITS * 100]


def _link():
    source = BroadcastSource(seed=7, bitrate=1e6)
    return source, Receiver("alice", 0.0, Clock(0.0)), Receiver("bob", 0.0, Clock(0.0))


def test_teleport_width_cap_fires_before_drawing():
    with pytest.raises(ResourceError, match="cap"):
        teleport_index(0, teleport.MAX_TELEPORT_BITS + 1, RefusingGenerator())
    n = (1 << teleport.MAX_TELEPORT_BITS) - 3
    value, outcomes = teleport_index(n, teleport.MAX_TELEPORT_BITS, np.random.default_rng(4))
    assert value == n
    assert outcomes.shape == (teleport.MAX_TELEPORT_BITS, 2)


def test_teleport_index_draws_once_per_call():
    for width in (1, 48, teleport.MAX_TELEPORT_BITS):
        rng = RecordingGenerator(width)
        assert teleport_index(width - 1, width, rng)[0] == width - 1
        assert rng.requests == [3 * width]


def test_pq_dh_window_past_the_teleport_cap_fires_before_the_sync():
    window = KeyWindow(0.0, teleport.MAX_TELEPORT_BITS + 1)
    with pytest.raises(ResourceError, match="cap"):
        pq_dh(*_link(), window, 23, PartySecret(3), PartySecret(5), RefusingGenerator())


def test_walk_agreement_window_past_the_teleport_cap_fires_before_the_sync(monkeypatch):
    def refuse(*args):
        raise AssertionError("the clock sync ran past the cap")

    monkeypatch.setattr(qwalk, "run_clock_sync", refuse)
    source, alice, bob = _link()
    window = KeyWindow(0.0, teleport.MAX_TELEPORT_BITS + 1)
    with pytest.raises(ResourceError, match="cap"):
        qwalk.walk_agreement(alice, bob, source, window, RefusingGenerator())


def _refuse_dlog(monkeypatch):
    def refuse(*args):
        raise AssertionError("a log table was built before the argument checks")

    monkeypatch.setattr(keyexchange, "_log_table", refuse)


# Primes past the log-table cap: the first one after 2^22, and 2^61 - 1.
PAST_THE_DLOG_CAP = [4194319, 2**61 - 1]

# (p, share_a, share_b, width, error): moduli that are no odd prime or pass
# the modulus or log-table cap, and widths outside 1..MAX_TELEPORT_BITS.
BAD_CANDIDATE_ARGS = [
    *(pytest.param(p, 4, 4, 40, ResourceError, id=f"dlog-cap-{p}") for p in PAST_THE_DLOG_CAP),
    (0, 1, 1, 4, DomainError),
    (1, 1, 1, 4, DomainError),
    (4, 1, 1, 4, DomainError),
    (-23, 1, 1, 4, DomainError),
    pytest.param((1 << numtheory.MAX_PRIME_BITS) + 1, 1, 1, 4, ResourceError, id="p-past-the-cap"),
    (23, 1, 1, 0, DomainError),
    (23, 1, 1, -1, DomainError),
    (23, 1, 1, teleport.MAX_TELEPORT_BITS + 1, ResourceError),
    (23, 1, 1, 2**63, ResourceError),
]


@pytest.mark.parametrize("p,share_a,share_b,width,error", BAD_CANDIDATE_ARGS)
def test_candidate_keys_check_their_arguments_before_any_discrete_log(
    p, share_a, share_b, width, error, monkeypatch
):
    _refuse_dlog(monkeypatch)
    with pytest.raises(error):
        keyexchange.pq_candidate_keys(p, share_a, share_b, width)


@pytest.mark.parametrize(
    "p,g,error",
    [
        (0, 1, DomainError),
        (4, 3, DomainError),
        (23, 0, DomainError),
        (23, 23, DomainError),
        pytest.param((1 << numtheory.MAX_PRIME_BITS) + 1, 3, ResourceError, id="p-past-the-cap"),
        *(pytest.param(p, 3, ResourceError, id=f"dlog-cap-{p}") for p in PAST_THE_DLOG_CAP),
    ],
)
def test_classic_crack_checks_its_parameters_before_any_discrete_log(p, g, error, monkeypatch):
    _refuse_dlog(monkeypatch)
    with pytest.raises(error):
        keyexchange.crack_classic_dh(p, g, 1, 1)


def test_discrete_log_cap_admits_its_largest_prime():
    p = 4194301  # the last prime below 2^22
    assert p <= keyexchange.MAX_DLOG_PRIME < PAST_THE_DLOG_CAP[0]
    assert numtheory.is_probable_prime(p) and numtheory.is_probable_prime(PAST_THE_DLOG_CAP[0])
    assert keyexchange.crack_classic_dh(p, 2, pow(2, 12345, p), 7) == pow(7, 12345, p)
    assert len(keyexchange.pq_candidate_keys(p, 5, 7, 8)) > 1


def test_candidate_keys_past_every_residue_equal_the_narrowest_covering_width():
    # 2^5 - 1 >= 22 already covers every residue mod 23, so widening adds no candidate.
    assert keyexchange.pq_candidate_keys(23, 4, 4, 40) == keyexchange.pq_candidate_keys(23, 4, 4, 5)


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


@pytest.mark.parametrize("n", [2**31, 2**63])
def test_graph_vertex_cap_fires_before_allocating(n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started past the cap")

    monkeypatch.setattr(qwalk.np, "bincount", refuse)
    with pytest.raises(ResourceError, match="cap"):
        qwalk.Graph(n, [0, 1], [1, 0])


@pytest.mark.parametrize("bound", [numtheory.MAX_SIEVE + 1, 2**63])
def test_sieve_cap_fires_before_allocating(bound, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sieve was allocated past the cap")

    monkeypatch.setattr(numtheory.np, "ones", refuse)
    with pytest.raises(ResourceError, match="cap"):
        numtheory.primes_up_to(bound)


def test_sieve_cap_admits_the_largest_library_sieves():
    # parity_prng's first stretch at MAX_SCAN bits, and the challenge sieve.
    first_stretch = int(1.3 * ecurve.MAX_SCAN * (math.log(ecurve.MAX_SCAN + 2) + 3))
    assert first_stretch <= numtheory.MAX_SIEVE
    assert ecurve.MAX_TABLE_PRIME <= numtheory.MAX_SIEVE


def test_sieve_growth_stops_at_the_cap(monkeypatch):
    monkeypatch.setattr(numtheory, "MAX_SIEVE", 5000)
    monkeypatch.setattr(numtheory, "_sieve_cache", {"limit": 0, "primes": np.empty(0, dtype=np.int64)})
    assert numtheory.primes_up_to(3000)[-1] == 2999
    assert numtheory._sieve_cache["limit"] == 3000
    assert numtheory.primes_up_to(4000)[-1] == 3989  # doubling would sieve to 6000
    assert numtheory._sieve_cache["limit"] == 5000
    assert numtheory.primes_up_to(5000)[-1] == 4999


def test_count_tables_stay_within_their_bound_and_serve_a_repeated_length(monkeypatch):
    tables = ecurve._TableCache()
    monkeypatch.setattr(ecurve, "_count_tables", tables)
    ecurve._zeta_values.__wrapped__(1, 1, 512)
    before = tables.hits + tables.misses
    ecurve._zeta_values.__wrapped__(1, 1, 1728)
    n_blocks = tables.hits + tables.misses - before  # every block of the m = 1 728 layout
    ecurve._zeta_values.__wrapped__(1, 1, 8000)  # its blocks pass the bound
    assert tables.nbytes == sum(a.nbytes for block in tables.blocks.values() for a in block)
    assert tables.nbytes <= ecurve._COUNT_TABLE_BYTES
    hits, misses = tables.hits, tables.misses
    ecurve._zeta_values.__wrapped__(2, -3, 1728)
    assert (tables.hits - hits, tables.misses - misses) == (n_blocks, 0)


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


@pytest.mark.parametrize("n", [0, -1])
def test_graph_without_vertices_rejected_before_allocating(n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the vertex check")

    monkeypatch.setattr(qwalk.np, "bincount", refuse)
    with pytest.raises(DomainError, match=">= 1 vertex"):
        qwalk.Graph(n, [], [])


def test_sweep_step_cap_past_the_vertex_cap_raises_resource_error():
    # 2^1100 overflows the float step bound; the vertex cap fires first.
    with pytest.raises(ResourceError, match="cap"):
        qwalk.sweep_step_cap(2**1100)
    with pytest.raises(ResourceError, match="cap"):
        qwalk.sweep_step_cap(qwalk.MAX_VERTICES + 1)


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


@pytest.mark.parametrize("strategy", ["uniform", "prefix"])
def test_storage_span_past_int64_indices_fires_before_drawing(strategy):
    source = BroadcastSource(seed=7, bitrate=1e6)
    window = KeyWindow(1e6, 8)
    for span_start in (2**63 - 10, 2**63, 10**30):
        with pytest.raises(DomainError, match="int64"):
            eve_store(source, window, span_start, 64, 1.0, RefusingGenerator(), strategy)
    view = eve_store(source, window, 2**63 - 64, 64, 1.0, np.random.default_rng(2), strategy)
    assert view.stored_indices.tolist() == list(range(2**63 - 64, 2**63))


def _refuse_hashing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stream block was hashed past the check")

    monkeypatch.setattr(broadcast, "_block", refuse)


def test_recover_window_past_int64_indices_fires_before_hashing(monkeypatch):
    source = BroadcastSource(seed=7, bitrate=1e9)
    receiver = Receiver("r", 0.0, Clock(0.0))
    view = eve_store(
        source, KeyWindow(2.0**70, 8), 2**63 - 64, 64, 1.0, np.random.default_rng(2), "prefix"
    )
    _refuse_hashing(monkeypatch)
    with pytest.raises(DomainError, match="int64"):
        eve_recover(view, source, receiver)


def test_recover_window_ending_at_the_last_int64_index():
    source = BroadcastSource(seed=7, bitrate=1e9)
    receiver = Receiver("r", 0.0, Clock(0.0))
    window = KeyWindow(2**63 - 1024 + 0.5, 1024)
    assert reception_index(source, receiver, window.start_local_time_ns) == 2**63 - 1024
    view = eve_store(source, window, 2**63 - 4096, 4096, 1.0, np.random.default_rng(2), "prefix")
    recovery = eve_recover(view, source, receiver)
    assert recovery.known_bits == 1024
    assert recovery.guess_success_probability == 1.0
    assert recovery.recovered.min() >= 0


@pytest.mark.parametrize("length", [broadcast.MAX_WINDOW_BITS + 1, 2**31, 2**63])
def test_stream_read_cap_fires_before_hashing(length, monkeypatch):
    _refuse_hashing(monkeypatch)
    with pytest.raises(ResourceError, match="cap"):
        broadcast.bits_range(BroadcastSource(seed=7, bitrate=1e9), 0, length)


def test_stream_read_at_its_cap():
    bits = broadcast.bits_range(BroadcastSource(seed=7, bitrate=1e9), 5, broadcast.MAX_WINDOW_BITS)
    assert bits.size == broadcast.MAX_WINDOW_BITS


@pytest.mark.parametrize("width", [broadcast.MAX_WINDOW_BITS + 1, 2**63, 10**30])
def test_int_to_bits_width_cap(width):
    with pytest.raises(ResourceError, match="cap"):
        broadcast.int_to_bits(1, width)


def test_int_to_bits_at_its_cap():
    width = broadcast.MAX_WINDOW_BITS
    bits = broadcast.int_to_bits(1, width)
    assert bits.size == width and bits[-1] == 1 and bits.sum() == 1
    assert broadcast.int_to_bits((1 << width) - 1, width).sum() == width


@pytest.mark.parametrize("index", [teleport.MAX_TELEPORT_BITS, 2**63, 10**30])
def test_flip_index_cap(index):
    with pytest.raises(ResourceError, match="cap"):
        keyexchange.flip_bit(5, index)


def test_flip_index_below_the_cap():
    top = teleport.MAX_TELEPORT_BITS - 1
    assert keyexchange.flip_bit(5, top) == 5 + (1 << top)


@pytest.mark.parametrize("key_bits", [18, 2**31, 2**63])
def test_keyspace_grid_width_cap_fires_before_the_walk(key_bits, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep started past the cap")

    monkeypatch.setattr(qwalk, "scaling_sweep", refuse)
    with pytest.raises(ResourceError, match="cap"):
        qwalk.keyspace_grid_attack(0, key_bits, 2.0)


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
