import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkeylab import qwalk
from qkeylab.errors import DomainError, InternalError, ResourceError
from qkeylab.clocksync import Clock
from qkeylab.broadcast import BroadcastSource, KeyWindow, Receiver
from qkeylab.transcript import int_payload
from qkeylab.qwalk import (
    MAX_WALK_STEPS,
    Graph,
    binary_tree_graph,
    cycle_graph,
    keyspace_grid_attack,
    scaling_sweep,
    search,
    success_probability_trace,
    sweep_step_cap,
    torus_graph,
    tree_walk_key,
    walk_agreement,
    walk_distribution,
)
from oracles import CoinedWalkState, position_probabilities, step, uniform_superposition

GOLDEN = json.loads((Path(__file__).parent / "golden" / "qwalk_sweep.json").read_text())


def localized_state(graph, vertex):
    amps = np.zeros(graph.n_arcs, dtype=complex)
    lo = graph.arc_offsets[vertex]
    deg = graph.arc_degrees[vertex]
    amps[lo : lo + deg] = 1 / math.sqrt(deg)
    return CoinedWalkState(amps)


def neighbors(graph, v):
    return graph.arc_head[graph.arc_tail == v].tolist()


def bfs_distances(graph, origin):
    dist = {origin: 0}
    frontier = [origin]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbors(graph, v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def dense_step_matrix(graph, marked):
    """Independent dense construction of one walk step: shift @ coin."""
    n = graph.n_arcs
    coin = np.zeros((n, n), dtype=complex)
    for v in range(graph.n_vertices):
        lo = int(graph.arc_offsets[v])
        d = int(graph.arc_degrees[v])
        block = -np.eye(d) if v in marked else 2 / d * np.ones((d, d)) - np.eye(d)
        coin[lo : lo + d, lo : lo + d] = block
    shift = np.zeros((n, n), dtype=complex)
    for arc in range(n):
        shift[graph.arc_reversal[arc], arc] = 1
    return shift @ coin


# The tuple-built construction the arc table replaced: per-vertex neighbor
# tuples, and each arc's reversal found with tuple.index.


def cycle_adjacency(n):
    return [((v + 1) % n, (v - 1) % n) for v in range(n)]


def torus_adjacency(n):
    side = math.isqrt(n)
    adjacency = []
    for v in range(n):
        y, x = divmod(v, side)
        adjacency.append(
            (
                y * side + (x + 1) % side,
                y * side + (x - 1) % side,
                ((y + 1) % side) * side + x,
                ((y - 1) % side) * side + x,
            )
        )
    return adjacency


def tree_adjacency(depth):
    n = (1 << (depth + 1)) - 1
    adjacency = []
    for v in range(n):
        nbrs = []
        if v > 0:
            nbrs.append((v - 1) // 2)
        if 2 * v + 1 < n:
            nbrs.extend((2 * v + 1, 2 * v + 2))
        adjacency.append(tuple(nbrs))
    return adjacency


def tuple_arc_table(adjacency):
    """(tail, head, offsets, degrees, reversal) of the tuple construction."""
    degrees = np.array([len(nbrs) for nbrs in adjacency], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(degrees)[:-1]))
    tail = np.repeat(np.arange(len(adjacency)), degrees)
    head = np.array([u for nbrs in adjacency for u in nbrs], dtype=np.int64)
    reversal = np.empty(int(degrees.sum()), dtype=np.int64)
    for v, nbrs in enumerate(adjacency):
        for j, u in enumerate(nbrs):
            reversal[offsets[v] + j] = offsets[u] + adjacency[u].index(v)
    return tail, head, offsets, degrees, reversal


ORACLE_CASES = (
    [(cycle_graph, cycle_adjacency, n) for n in range(3, 41)]
    + [(torus_graph, torus_adjacency, side * side) for side in range(3, 13)]
    + [(binary_tree_graph, tree_adjacency, depth) for depth in range(1, 9)]
)

# One fault each, in a table that is otherwise a valid 3-cycle.
TRIANGLE_TAIL = [0, 0, 1, 1, 2, 2]
TRIANGLE_HEAD = [1, 2, 2, 0, 0, 1]
BAD_ARC_TABLES = [
    ("out of range", 3, TRIANGLE_TAIL, [1, 3, 2, 0, 0, 1], ()),
    ("self-loop", 3, TRIANGLE_TAIL, [1, 0, 2, 0, 0, 1], ()),
    ("parallel edge", 3, [0, 0, 0, 1, 1, 2, 2], [1, 1, 2, 2, 0, 0, 1], ()),
    ("no reverse", 3, [0, 0, 1, 2, 2], [1, 2, 2, 0, 1], ()),
    ("isolated", 4, TRIANGLE_TAIL, TRIANGLE_HEAD, ()),
    ("marked vertex 3 out of range", 3, TRIANGLE_TAIL, TRIANGLE_HEAD, {3}),
    ("not grouped by tail", 3, [0, 1, 0, 1, 2, 2], [1, 2, 2, 0, 0, 1], ()),
]


class TestGraphs:
    def test_cycle_structure(self):
        g = cycle_graph(5)
        assert g.n_vertices == 5 and g.n_arcs == 10
        assert neighbors(g, 0) == [1, 4]

    def test_torus_structure(self):
        g = torus_graph(16)
        assert g.n_vertices == 16 and g.n_arcs == 64
        assert neighbors(g, 0) == [1, 3, 4, 12]

    @pytest.mark.parametrize(
        "build,adjacency,size",
        ORACLE_CASES,
        ids=[f"{build.__name__}-{size}" for build, _, size in ORACLE_CASES],
    )
    def test_arc_table_equals_tuple_construction(self, build, adjacency, size):
        g = build(size)
        tail, head, offsets, degrees, reversal = tuple_arc_table(adjacency(size))
        assert g.n_vertices == len(degrees) and g.n_arcs == len(tail)
        for got, want in (
            (g.arc_tail, tail),
            (g.arc_head, head),
            (g.arc_offsets, offsets),
            (g.arc_degrees, degrees),
            (g.arc_reversal, reversal),
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "message,n,tail,head,marked", BAD_ARC_TABLES, ids=[case[0] for case in BAD_ARC_TABLES]
    )
    def test_bad_arc_table_rejected(self, message, n, tail, head, marked):
        Graph(3, TRIANGLE_TAIL, TRIANGLE_HEAD, {2})
        with pytest.raises(DomainError, match=message):
            Graph(n, tail, head, marked)

    def test_tree_structure(self):
        g = binary_tree_graph(3)
        assert g.n_vertices == 15
        assert g.arc_degrees[0] == 2  # root
        assert g.arc_degrees[1] == 3  # internal
        assert g.arc_degrees[14] == 1  # leaf

    def test_invalid_graphs_rejected(self):
        with pytest.raises(DomainError):
            cycle_graph(2)
        with pytest.raises(DomainError):
            torus_graph(15)
        with pytest.raises(DomainError):
            torus_graph(4)  # side 2 would create parallel edges
        with pytest.raises(DomainError):
            binary_tree_graph(0)
        with pytest.raises(DomainError):
            cycle_graph(5, marked={9})

    def test_reversal_is_involution(self):
        for g in (cycle_graph(7), torus_graph(25), binary_tree_graph(3)):
            rev = g.arc_reversal
            assert np.array_equal(rev[rev], np.arange(g.n_arcs))


class TestUniformSuperposition:
    def test_cycle_amplitudes(self):
        amps, _ = qwalk._walk(cycle_graph(4), 0)
        assert amps.dtype == np.float64
        assert np.array_equal(amps, np.full(8, 1 / math.sqrt(8)))

    def test_position_marginal_uniform(self):
        probs = walk_distribution(torus_graph(16), 0)
        np.testing.assert_allclose(probs, np.full(16, 1 / 16), atol=1e-12)


class TestStep:
    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(3)
        for g, marked in (
            (cycle_graph(4), set()),
            (cycle_graph(6, marked={2}), {2}),
            (torus_graph(9, marked={4}), {4}),
            (binary_tree_graph(2, marked={3}), {3}),
        ):
            matrix = dense_step_matrix(g, marked)
            raw = rng.normal(size=g.n_arcs) + 1j * rng.normal(size=g.n_arcs)
            state = CoinedWalkState(raw / np.linalg.norm(raw))
            stepped = step(state, g)
            np.testing.assert_allclose(stepped.amplitudes, matrix @ state.amplitudes, atol=1e-12)

    def test_single_step_spreads_to_neighbors_only(self):
        g = cycle_graph(8)
        stepped = step(localized_state(g, 0), g)
        support = np.nonzero(np.abs(stepped.amplitudes) > 1e-12)[0]
        vertices = {int(g.arc_tail[arc]) for arc in support}
        assert vertices <= {1, 7}

    def test_locality_ball(self):
        for g in (cycle_graph(11), binary_tree_graph(3), torus_graph(25, marked={6})):
            dist = bfs_distances(g, 0)
            state = localized_state(g, 0)
            for t in range(1, 5):
                state = step(state, g)
                support = np.nonzero(np.abs(state.amplitudes) > 1e-12)[0]
                assert all(dist[int(g.arc_tail[arc])] <= t for arc in support)

    def test_step_then_inverse_restores(self):
        rng = np.random.default_rng(5)
        g = torus_graph(16, marked={3})
        raw = rng.normal(size=g.n_arcs) + 1j * rng.normal(size=g.n_arcs)
        state = CoinedWalkState(raw / np.linalg.norm(raw))
        inverse = dense_step_matrix(g, {3}).conj().T
        back = inverse @ step(state, g).amplitudes
        np.testing.assert_allclose(back, state.amplitudes, atol=1e-12)

    def test_unmarked_walk_fixes_uniform_state(self):
        # With no marks the coin fixes each uniform block and the shift
        # permutes a constant vector, so the uniform state is stationary and
        # the position distribution never moves.
        for g in (cycle_graph(6), torus_graph(16), binary_tree_graph(3)):
            start = uniform_superposition(g)
            state = start
            for _ in range(5):
                state = step(state, g)
            np.testing.assert_allclose(state.amplitudes, start.amplitudes, atol=1e-9)
            if np.all(g.arc_degrees == g.arc_degrees[0]):  # regular graphs only
                np.testing.assert_allclose(
                    position_probabilities(state, g),
                    np.full(g.n_vertices, 1 / g.n_vertices),
                    atol=1e-12,
                )

    def test_norm_drift_over_thousand_steps(self):
        for g in (cycle_graph(9, marked={1}), torus_graph(16, marked={2}), binary_tree_graph(3, marked={5})):
            state = uniform_superposition(g)
            for _ in range(1000):
                state = step(state, g)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9

    def test_dimension_mismatch_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(DomainError):
            step(uniform_superposition(cycle_graph(5)), g)


class TestSearch:
    def test_zero_steps_is_uniform_guess(self):
        g = torus_graph(16, marked={7})
        result = search(g, 0, np.random.default_rng(1), 1)
        assert result.exact_success_probability == pytest.approx(1 / 16)

    def test_needs_marked_vertex(self):
        with pytest.raises(DomainError):
            search(torus_graph(16), 5, np.random.default_rng(1), 1)

    def test_success_flag_tracks_exact_probability(self):
        g = torus_graph(64, marked={9})
        t_star = GOLDEN["64"]["t_star"]
        exact = success_probability_trace(g, t_star)[t_star]
        trials = 800
        probs = walk_distribution(g, t_star)
        oracle_rng = np.random.default_rng(11)
        expected = oracle_rng.choice(64, size=trials, p=probs / probs.sum())
        rng = np.random.default_rng(11)
        result = search(g, t_star, rng, trials)
        assert result.success_rate == float((expected == 9).mean())
        assert rng.random() == oracle_rng.random()  # exactly `trials` samples drawn
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(result.success_rate - exact) <= 3 * sigma + 1e-9

    def test_draws_from_the_walk_distribution(self):
        # One draw of `trials` samples from walk_distribution, as qwalk-search reports it.
        g = cycle_graph(17, marked={3, 11})
        probs = walk_distribution(g, 9)
        oracle_rng = np.random.default_rng(4)
        expected = oracle_rng.choice(17, size=500, p=probs / probs.sum())
        rng = np.random.default_rng(4)
        result = search(g, 9, rng, 500)
        assert result.success_rate == float(np.isin(expected, [3, 11]).mean())
        assert result.exact_success_probability == float(probs[[3, 11]].sum())
        assert rng.random() == oracle_rng.random()  # exactly 500 samples drawn

    def test_needs_a_trial(self):
        with pytest.raises(DomainError):
            search(torus_graph(16, marked={0}), 5, np.random.default_rng(1), 0)

    def test_trace_against_golden(self):
        for n_str, row in GOLDEN.items():
            if not n_str.isdigit():
                continue
            n = int(n_str)
            if n > 256:
                continue  # larger sizes covered by the acceptance sweep
            g = torus_graph(n, marked={0})
            trace = success_probability_trace(g, row["cap"])
            assert int(np.argmax(trace)) == row["t_star"]
            assert trace[row["t_star"]] == pytest.approx(row["p_star"], abs=1e-12)

    def test_sweep_matches_golden_and_is_marked_vertex_invariant(self):
        points = scaling_sweep([16, 64])
        for point in points:
            row = GOLDEN[str(point.n_vertices)]
            assert point.t_star == row["t_star"]
            assert point.p_star == pytest.approx(row["p_star"], abs=1e-9)

    def test_torus_trace_does_not_depend_on_the_mark(self):
        # The torus is vertex-transitive and every vertex lists its neighbours
        # in the same order, so the sweep may mark vertex 0: every other mark
        # gives the same trace, bit for bit.
        for n in (9, 16, 25, 64, 100, 256, 1024, 4096):
            side = math.isqrt(n)
            cap = sweep_step_cap(n)
            reference = success_probability_trace(torus_graph(n, marked={0}), cap)
            for mark in sorted({1, side, side + 2, n // 3, n // 2 + 1, n - side, n - 1}):
                trace = success_probability_trace(torus_graph(n, marked={mark}), cap)
                assert np.array_equal(trace, reference), (n, mark)

    def test_walk_beats_classical_sampling(self):
        # Quantified from the golden traces: the earliest step within 90% of
        # the best capped probability costs far fewer draws than classical
        # uniform sampling would need, and the advantage grows with N.
        ratios = []
        rows = {k: v for k, v in GOLDEN.items() if k.isdigit()}
        for n_str, row in sorted(rows.items(), key=lambda kv: int(kv[0])):
            n = int(n_str)
            classical = row["t_early"] / n
            ratios.append(row["p_early"] / classical)
        assert all(r > 1.5 for r in ratios[1:])  # every size from 64 up
        assert ratios == sorted(ratios)  # advantage grows with N

    def test_step_cap_formula(self):
        assert sweep_step_cap(1024) == int(4 * math.sqrt(1024 * 10))


class TestTreeWalkKey:
    def test_zero_seed_returns_stream(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert tree_walk_key(bits, 0, 5).tolist() == bits.tolist()

    def test_worked_example(self):
        # stream 011, seed bits 110 -> path 101
        assert tree_walk_key(np.array([0, 1, 1], dtype=np.uint8), 0b110, 3).tolist() == [1, 0, 1]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_xor_oracle(self, depth, data):
        stream = np.array(data.draw(st.lists(st.integers(0, 1), min_size=depth, max_size=depth)), dtype=np.uint8)
        seed = data.draw(st.integers(min_value=0, max_value=(1 << depth) - 1))
        path = tree_walk_key(stream, seed, depth)
        expected = [int(stream[i]) ^ ((seed >> (depth - 1 - i)) & 1) for i in range(depth)]
        assert path.tolist() == expected

    def test_stream_exhausted(self):
        with pytest.raises(DomainError):
            tree_walk_key(np.array([1, 0], dtype=np.uint8), 0, 3)

    def test_oversized_seed_rejected(self):
        with pytest.raises(DomainError):
            tree_walk_key(np.array([1, 0, 1], dtype=np.uint8), 8, 3)


class TestWalkAgreement:
    def make_link(self, bitrate=1e6):
        source = BroadcastSource(seed=55, bitrate=bitrate)
        alice = Receiver("alice", 0.0, Clock(0.0))
        bob = Receiver("bob", 120_000.0, Clock(-30_000.0))
        return source, alice, bob

    def test_matched_run_agrees(self):
        source, alice, bob = self.make_link()
        result = walk_agreement(alice, bob, source, KeyWindow(2e9, 24), np.random.default_rng(2))
        key_alice, key_bob = result.key_alice.reveal(), result.key_bob.reveal()
        assert result.agreed
        assert np.array_equal(key_alice, key_bob)
        assert len(key_alice) == 24

    def test_operator_seed_not_in_eve_view(self):
        source, alice, bob = self.make_link()
        result = walk_agreement(alice, bob, source, KeyWindow(2e9, 24), np.random.default_rng(3))
        assert int_payload(result.operator_seed) not in [
            r.payload for r in result.transcript.eve_view
        ]
        steps = {r.step.split("[")[0] for r in result.transcript.eve_view}
        assert "walk-window" in steps

    def test_window_mismatch_flagged(self):
        # 1 ns bit period makes the sync residue span many bits.
        source, alice, bob = self.make_link(bitrate=1e9)
        for seed in range(40):
            result = walk_agreement(alice, bob, source, KeyWindow(2e9, 24), np.random.default_rng(seed))
            if not result.agreed:
                assert "key.mismatch" in {r.step for r in result.transcript.records}
                break
        else:
            pytest.fail("expected a mismatched run at 1 ns bit period")

    def test_runs_are_pinned_byte_for_byte(self):
        # No golden covers this protocol: one digest over 80 runs pins every
        # transcript, key and diagnostic. At 1 ns bit period 37 of them mismatch.
        digest = hashlib.sha256()
        mismatched = 0
        for bitrate in (1e6, 1e9):
            source, alice, bob = self.make_link(bitrate)
            for seed in range(40):
                result = walk_agreement(
                    alice, bob, source, KeyWindow(2e9, 24), np.random.default_rng(seed)
                )
                mismatched += not result.agreed
                digest.update(result.transcript.render().encode())
                digest.update(result.key_alice.reveal().tobytes())
                digest.update(result.key_bob.reveal().tobytes())
                digest.update(
                    f"{result.operator_seed} {result.sync_error_ns!r} {result.agreed}".encode()
                )
        assert mismatched == 37
        assert digest.hexdigest() == (
            "e085a62306fa5b8831e8685266762c7a9bde7c4760f8b47ac72d464b7c89eae9"
        )


class TestKeyspaceAttack:
    def test_matches_sweep_probability(self):
        report = keyspace_grid_attack(true_key=137, key_bits=8)
        assert report.keyspace_size == 256
        assert report.p_star == pytest.approx(GOLDEN["256"]["p_star"], abs=1e-9)
        assert report.t_star == GOLDEN["256"]["t_star"]
        assert report.shortfall == pytest.approx(1 - report.p_star)

    def test_true_key_does_not_change_the_report(self):
        reports = {keyspace_grid_attack(key, 6) for key in (0, 1, 37, 63)}
        assert len(reports) == 1

    def test_odd_width_rejected(self):
        with pytest.raises(DomainError):
            keyspace_grid_attack(1, 7)

    def test_key_outside_the_space_rejected(self):
        for key in (-1, 1 << 6):
            with pytest.raises(DomainError):
                keyspace_grid_attack(key, 6)


class TestSixteenVertexSweep:
    def test_best_step_in_first_forty(self):
        # Frozen from the exact simulation: best T in [1, 40] on the 4x4 torus.
        row = GOLDEN["16_sweep_to_40"]
        g = torus_graph(16, marked={0})
        trace = success_probability_trace(g, 40)
        t_star = int(np.argmax(trace[1:41])) + 1
        assert t_star == row["t_star"]
        assert trace[t_star] == pytest.approx(row["p_star"], abs=1e-12)


class TestWalkDistribution:
    def test_search_measures_the_shared_distribution(self):
        g = torus_graph(64, marked={9})
        probs = walk_distribution(g, 12)
        assert probs.sum() == pytest.approx(1.0)
        assert probs[9] == pytest.approx(success_probability_trace(g, 12)[12], abs=1e-15)
        result = search(g, 12, np.random.default_rng(3), 1)
        assert result.exact_success_probability == float(probs[[9]].sum())

    def test_step_cap_is_the_largest_sweep_cap(self):
        assert MAX_WALK_STEPS == sweep_step_cap(qwalk.MAX_VERTICES, 16.0)
        g = cycle_graph(5, marked={1})
        assert walk_distribution(g, MAX_WALK_STEPS).sum() == pytest.approx(1.0)
        assert success_probability_trace(g, MAX_WALK_STEPS).shape == (MAX_WALK_STEPS + 1,)

    def test_step_cap_fires_before_any_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a walk step ran past the cap")

        # The walk loop applies _apply_coin once per step.
        monkeypatch.setattr(qwalk, "_apply_coin", refuse)
        g = cycle_graph(5, marked={1})
        with pytest.raises(AssertionError, match="past the cap"):
            walk_distribution(g, 1)
        with pytest.raises(ResourceError, match="cap"):
            walk_distribution(g, MAX_WALK_STEPS + 1)
        with pytest.raises(ResourceError, match="cap"):
            success_probability_trace(g, MAX_WALK_STEPS + 1)
        with pytest.raises(ResourceError, match="cap"):
            search(g, MAX_WALK_STEPS + 1, np.random.default_rng(1), 1)
        for walk in (walk_distribution, success_probability_trace):
            with pytest.raises(DomainError, match=">= 0"):
                walk(g, -1)


def stepped_walk(graph, t_steps):
    """States at t = 0..t_steps from a loop of the validated complex step."""
    state = uniform_superposition(graph)
    yield state
    for _ in range(t_steps):
        state = step(state, graph)
        yield state


# (graph, steps): tori with marks at 0, 7 and n - 1, cycles and trees with
# one to three marks, a walk of no steps, and tori of 2^10 and 2^12 vertices
# at their full sweep caps (404 and 886 steps; the first is the adversary
# benchmark's walk).
WALK_ORACLE_CASES = (
    [
        (torus_graph(n, marked={mark}), min(sweep_step_cap(n), 300))
        for n in (16, 64, 256, 1024, 4096)
        for mark in (0, 7, n - 1)
    ]
    + [
        (cycle_graph(n, marked=marks), 150)
        for n, marks in ((5, {0}), (17, {3, 9}), (100, {0, 50, 99}))
    ]
    + [
        (binary_tree_graph(depth, marked=marks), 150)
        for depth, marks in ((2, {0}), (5, {1, 62}), (8, {3, 100, 510}))
    ]
    + [(torus_graph(64, marked={5, 6}), 0), (torus_graph(25, marked={0, 12, 24}), 80)]
    + [(torus_graph(n, marked={0}), sweep_step_cap(n)) for n in (1 << 10, 1 << 12)]
)


def case_ids(cases):
    return [f"{g.n_vertices}v-mark{'.'.join(map(str, sorted(g.marked)))}-{t}t" for g, t in cases]


WALK_ORACLE_IDS = case_ids(WALK_ORACLE_CASES)


def fixup_coin(amps, graph):
    """The coin before marked vertices had a zero coin factor: the Grover
    coin 2/d * J - I on every block, then -a written over the marked arcs."""
    block_sums = np.add.reduceat(amps, graph.arc_offsets)
    coined = np.repeat(2.0 / graph.arc_degrees * block_sums, graph.arc_degrees)
    coined -= amps
    coined[graph.marked_arcs] = -amps[graph.marked_arcs]
    return coined


# (graph, steps): tori, cycles and trees with one to three marks.
FIXUP_COIN_CASES = [
    (torus_graph(1 << 10, marked={0}), sweep_step_cap(1 << 10)),
    (torus_graph(64, marked={5, 6}), 60),
    (torus_graph(25, marked={0, 12, 24}), 80),
    (cycle_graph(5, marked={0}), 50),
    (cycle_graph(17, marked={3, 9}), 150),
    (cycle_graph(100, marked={0, 50, 99}), 150),
    (binary_tree_graph(2, marked={0}), 50),
    (binary_tree_graph(5, marked={1, 62}), 150),
    (binary_tree_graph(8, marked={3, 100, 510}), 150),
]
FIXUP_COIN_IDS = case_ids(FIXUP_COIN_CASES)


class TestWalkLoop:
    @pytest.mark.parametrize("graph,t_steps", WALK_ORACLE_CASES, ids=WALK_ORACLE_IDS)
    def test_loop_equals_stepped_walk_bitwise(self, graph, t_steps):
        marked = sorted(graph.marked)
        oracle = []
        for state in stepped_walk(graph, t_steps):
            oracle.append(position_probabilities(state, graph)[marked].sum())
        assert np.array_equal(success_probability_trace(graph, t_steps), oracle)
        assert np.array_equal(
            walk_distribution(graph, t_steps), position_probabilities(state, graph)
        )

    def test_unmarked_distribution_equals_stepped_walk_bitwise(self):
        for g in (torus_graph(64), cycle_graph(9), binary_tree_graph(4)):
            *_, last = stepped_walk(g, 40)
            assert np.array_equal(walk_distribution(g, 40), position_probabilities(last, g))

    @pytest.mark.parametrize("graph,t_steps", FIXUP_COIN_CASES, ids=FIXUP_COIN_IDS)
    def test_zero_coin_factor_equals_fixup_coin_bitwise(self, graph, t_steps):
        # Along the real walk, and on a random complex state as step sees it.
        amps, _ = qwalk._walk(graph, 0)
        for _ in range(t_steps):
            coined = qwalk._apply_coin(amps, graph)
            assert np.array_equal(coined, fixup_coin(amps, graph))
            amps = coined.take(graph.arc_reversal)
        rng = np.random.default_rng(graph.n_vertices)
        amps = rng.normal(size=graph.n_arcs) + 1j * rng.normal(size=graph.n_arcs)
        assert np.array_equal(qwalk._apply_coin(amps, graph), fixup_coin(amps, graph))

    @pytest.mark.parametrize("walk", [success_probability_trace, walk_distribution])
    def test_norm_drift_on_exit_is_an_internal_error(self, walk, monkeypatch):
        # The norm is checked once, on the final state: a coin that scales
        # by 1 + 1e-6 is caught after any step, and a walk of no steps never
        # applies it.
        apply_coin = qwalk._apply_coin
        monkeypatch.setattr(
            qwalk, "_apply_coin", lambda amps, graph: apply_coin(amps, graph) * (1 + 1e-6)
        )
        g = torus_graph(64, marked={9})
        walk(g, 0)
        for t_steps in (1, 10, 200):
            with pytest.raises(InternalError, match="norm"):
                walk(g, t_steps)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_walk_equals_complex_oracle_bitwise(self, data):
        build, size = data.draw(
            st.one_of(
                st.tuples(st.just(cycle_graph), st.integers(3, 60)),
                st.tuples(st.just(torus_graph), st.integers(3, 9).map(lambda side: side * side)),
                st.tuples(st.just(binary_tree_graph), st.integers(1, 5)),
            )
        )
        n = build(size).n_vertices
        marks = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        t_steps = data.draw(st.integers(0, 60))
        graph = build(size, marked=marks)
        oracle = []
        for state in stepped_walk(graph, t_steps):
            oracle.append(position_probabilities(state, graph)[sorted(marks)].sum())
        assert np.array_equal(success_probability_trace(graph, t_steps), oracle)
        assert np.array_equal(
            walk_distribution(graph, t_steps), position_probabilities(state, graph)
        )
