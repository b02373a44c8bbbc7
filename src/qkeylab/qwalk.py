"""Coined discrete-time walks on graphs, marked-vertex search, and the
walk-based key agreement.

The walk state lives on directed arcs (tail vertex, neighbor slot), which is
the coin (x) position space: for a regular graph of degree d the dimension is
d * N. One step applies the coin - the degree-d diffusion operator
2/d * J - I at unmarked vertices, -I at marked ones - then the flip-flop
shift, which moves each arc onto its reversal. Both factors are involutions,
so the inverse step is shift-then-coin. A `Graph` carries the whole operator:
the per-vertex coin factors (2/d, 0 where marked), the marked arcs and the reversal.

`walk_distribution` and `success_probability_trace` share one walk loop,
whose trace reads only the marked arcs and whose norm is checked once, on
the final state. The walk has one state, a float64 array of arc amplitudes:
the coin is real, the shift permutes and the start is uniform, so the
complex walk's amplitudes are exactly these real ones. The complex walk
(state, uniform start, position marginal and step) is the loop's oracle in
`tests/oracles.py`.

On a torus grid with a single marked vertex this walk finds the mark in
O(sqrt(N log N)) steps with success probability Omega(1/log N); the
`scaling_sweep` measures exactly that, and `keyspace_grid_attack` replays it
as an eavesdropper searching a key space arranged as a grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .broadcast import (
    BroadcastSource,
    KeyWindow,
    Receiver,
    aligned_start_time,
    int_to_bits,
)
from .clocksync import SYNC_N_BITS, SYNC_SHOTS_PER_BIT, SYNC_T_MAX_NS
from .errors import DomainError, InternalError, ResourceError
from .keyexchange import run_clock_sync
from .teleport import MAX_TELEPORT_BITS
from .transcript import SharedKey, Transcript

# The largest graph a builder makes: the eve-qwalk key space at depth 16.
# Walk time grows as N^1.5 (eve-qwalk --depth 16: 6.6-7.0 s on a 2-core VM).
MAX_VERTICES = 1 << 16
# The most steps a walk may take: sweep_step_cap(MAX_VERTICES, 16.0), the
# largest cap the sweep and the keyspace attack can ask for.
MAX_WALK_STEPS = 1 << 14
MAX_SEARCH_TRIALS = 1 << 22  # search draws its samples as one int64 array
# The most sizes one scaling sweep takes: each may cost up to a 2^16-vertex
# walk of MAX_WALK_STEPS steps, so this bounds the whole sweep too.
MAX_SWEEP_SIZES = 16
# The most float64 values a success-probability trace holds, (t_limit + 1) x
# (arcs at marked vertices): 128 MB.
MAX_TRACE_VALUES = 1 << 24


class Graph:
    """Undirected graph held as one arc table, with binary vertex marks.

    Arc i runs from arc_tail[i] to arc_head[i]. The arcs are grouped by tail
    in vertex order, and each vertex's arcs keep its neighbor order, which
    fixes the order in which the coin sums a block. Every edge is listed once
    in each direction; arc_reversal maps each arc to its reverse, which is
    the walk's shift. coin_factor is its coin: 2/deg(v), or 0 at a marked
    vertex, whose coin term 0 * sum - a is -a. marked_arcs (the arcs whose
    tail is marked, in arc order) are the arcs the success trace reads.
    """

    def __init__(self, n_vertices: int, arc_tail, arc_head, marked=()):
        n = int(n_vertices)
        _check_vertices(n)
        tail = np.asarray(arc_tail, dtype=np.int64)
        head = np.asarray(arc_head, dtype=np.int64)
        outside = np.flatnonzero((tail < 0) | (tail >= n) | (head < 0) | (head >= n))
        if outside.size:
            i = outside[0]
            raise DomainError(f"arc {tail[i]}->{head[i]}: vertex out of range")
        if np.any(tail[1:] < tail[:-1]):
            raise DomainError("arcs are not grouped by tail")
        loops = np.flatnonzero(tail == head)
        if loops.size:
            raise DomainError(f"vertex {tail[loops[0]]}: self-loop")
        degrees = np.bincount(tail, minlength=n)
        if degrees.min(initial=1) < 1:
            raise DomainError(f"vertex {np.argmin(degrees)} is isolated")
        # Arc u->v has key u*n + v; its reverse is the arc whose key is v*n + u.
        keys = tail * n + head
        order = np.argsort(keys)
        sorted_keys = keys[order]
        parallel = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
        if parallel.size:
            raise DomainError(f"vertex {sorted_keys[parallel[0]] // n}: parallel edge")
        reverse_keys = head * n + tail
        found = np.minimum(np.searchsorted(sorted_keys, reverse_keys), tail.size - 1)
        missing = np.flatnonzero(sorted_keys[found] != reverse_keys)
        if missing.size:
            i = missing[0]
            raise DomainError(f"edge {tail[i]}->{head[i]} has no reverse")
        self.marked = frozenset(int(v) for v in marked)
        for v in self.marked:
            if not 0 <= v < n:
                raise DomainError(f"marked vertex {v} out of range")
        self.n_vertices = n
        self.n_arcs = int(tail.size)
        self.arc_tail = tail
        self.arc_head = head
        self.arc_degrees = degrees
        self.arc_offsets = np.concatenate(([0], np.cumsum(degrees)[:-1]))
        self.arc_reversal = order[found]
        self.coin_factor = 2.0 / degrees
        self.coin_factor[list(self.marked)] = 0.0
        self.marked_arcs = np.flatnonzero(np.isin(tail, list(self.marked)))


def _check_vertices(n: int) -> None:
    if n < 1:
        raise DomainError(f"a graph needs >= 1 vertex, got {n}")
    if n > MAX_VERTICES:
        raise ResourceError(f"{n} vertices exceed the cap {MAX_VERTICES}")


def cycle_graph(n: int, marked=()) -> Graph:
    """n-cycle; neighbor order +1, -1."""
    _check_vertices(n)
    if n < 3:
        raise DomainError(f"cycle needs >= 3 vertices, got {n}")
    v = np.arange(n)
    heads = np.stack(((v + 1) % n, (v - 1) % n), axis=1)
    return Graph(n, np.repeat(v, 2), heads.ravel(), marked)


def torus_graph(n: int, marked=()) -> Graph:
    """sqrt(n) x sqrt(n) grid with wraparound; neighbor order +x, -x, +y, -y."""
    _check_vertices(n)
    side = math.isqrt(n)
    if side * side != n:
        raise DomainError(f"torus needs a perfect-square vertex count, got {n}")
    if side < 3:
        raise DomainError(f"torus side must be >= 3, got {side}")
    v = np.arange(n)
    row = v - v % side
    heads = np.stack(
        (row + (v + 1) % side, row + (v - 1) % side, (v + side) % n, (v - side) % n), axis=1
    )
    return Graph(n, np.repeat(v, 4), heads.ravel(), marked)


def binary_tree_graph(depth: int, marked=()) -> Graph:
    """Full binary tree with 2^(depth+1) - 1 vertices, root 0; neighbor
    order parent, left child, right child."""
    if depth < 1:
        raise DomainError(f"tree depth must be >= 1, got {depth}")
    # 2^(depth+1) - 1 vertices; the first test keeps the shift small.
    if depth >= MAX_VERTICES.bit_length() or (1 << (depth + 1)) - 1 > MAX_VERTICES:
        raise ResourceError(f"a depth-{depth} tree exceeds the cap of {MAX_VERTICES} vertices")
    n = (1 << (depth + 1)) - 1
    child = np.arange(1, n)
    parent = (child - 1) // 2
    # The child lists its parent in slot 0; the parent lists the left child
    # (odd index) in slot 1 and the right child (even index) in slot 2.
    tail = np.concatenate((child, parent))
    head = np.concatenate((parent, child))
    slot = np.concatenate((np.zeros_like(child), 2 - child % 2))
    order = np.lexsort((slot, tail))
    return Graph(n, tail[order], head[order], marked)


def _apply_coin(amps: np.ndarray, graph: Graph) -> np.ndarray:
    block_sums = np.add.reduceat(amps, graph.arc_offsets)
    coined = np.repeat(graph.coin_factor * block_sums, graph.arc_degrees)
    coined -= amps
    return coined


def _check_steps(t_steps: int) -> None:
    if t_steps < 0:
        raise DomainError(f"step count must be >= 0, got {t_steps}")
    if t_steps > MAX_WALK_STEPS:
        raise ResourceError(f"{t_steps} walk steps exceed the cap {MAX_WALK_STEPS}")


def _walk(
    graph: Graph, t_steps: int, watch_marked: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """t_steps of the marked walk from the uniform state, on float64 arrays.

    Returns the final arc amplitudes and, with watch_marked, the marked
    vertices' arc amplitudes (in arc order) at t = 0..t_steps, one row per t;
    without it, rows of no arcs. The step count is checked before the first
    step and the norm once, on the final state: coin and shift are unitary,
    so a drift there is a bug in the loop.
    """
    _check_steps(t_steps)
    watched = graph.marked_arcs if watch_marked else graph.marked_arcs[:0]
    amps = np.full(graph.n_arcs, 1.0 / math.sqrt(graph.n_arcs))
    watched_amps = np.empty((t_steps + 1, watched.size))
    watched_amps[0] = amps[watched]
    for t in range(1, t_steps + 1):
        amps = _apply_coin(amps, graph).take(graph.arc_reversal)
        watched_amps[t] = amps[watched]
    # Not np.linalg.norm: its BLAS call wakes worker threads that then spin.
    norm = math.sqrt(float(np.sum(amps**2)))
    if abs(norm - 1.0) > 1e-9:
        raise InternalError(f"walk state norm {norm} deviates from 1")
    return amps, watched_amps


def walk_distribution(graph: Graph, t_steps: int) -> np.ndarray:
    """Vertex probabilities after t_steps of the marked walk from the uniform state."""
    amps, _ = _walk(graph, t_steps)
    return np.add.reduceat(amps**2, graph.arc_offsets)


@dataclass(frozen=True)
class SearchResult:
    success_rate: float
    exact_success_probability: float


def search(graph: Graph, t_steps: int, rng: np.random.Generator, trials: int) -> SearchResult:
    """Run t_steps of the marked walk from the uniform state, then measure the
    position `trials` times."""
    if not graph.marked:
        raise DomainError("search needs at least one marked vertex")
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    if trials > MAX_SEARCH_TRIALS:
        raise ResourceError(f"{trials} trials exceed the cap {MAX_SEARCH_TRIALS}")
    marked = sorted(graph.marked)
    probs = walk_distribution(graph, t_steps)
    vertices = rng.choice(graph.n_vertices, size=trials, p=probs / probs.sum())
    return SearchResult(
        success_rate=float(np.isin(vertices, marked).mean()),
        exact_success_probability=float(probs[marked].sum()),
    )


def success_probability_trace(graph: Graph, t_limit: int) -> np.ndarray:
    """Exact success probability after t = 0..t_limit steps (no sampling).

    Holds the marked vertices' arc amplitudes for every t: (t_limit + 1) x
    (arcs at marked vertices) real float64 values (see the module docstring),
    at most MAX_TRACE_VALUES of them.
    """
    if not graph.marked:
        raise DomainError("trace needs at least one marked vertex")
    values = (t_limit + 1) * graph.marked_arcs.size
    if values > MAX_TRACE_VALUES:
        raise ResourceError(f"a trace of {values} values exceeds the cap {MAX_TRACE_VALUES}")
    _, marked_amps = _walk(graph, t_limit, watch_marked=True)
    # Sum each marked vertex's arc block, then the vertices in order: the
    # additions of walk_distribution(graph, t)[marked].sum().
    degrees = graph.arc_degrees[sorted(graph.marked)]
    block_starts = np.concatenate(([0], np.cumsum(degrees)[:-1]))
    return np.add.reduceat(marked_amps**2, block_starts, axis=1).sum(axis=1)


@dataclass(frozen=True)
class SweepPoint:
    n_vertices: int
    t_star: int
    p_star: float


def sweep_step_cap(n: int, cap_factor: float = 4.0) -> int:
    _check_vertices(n)
    bound = cap_factor * math.sqrt(n * math.log2(n))
    if not 0.0 <= bound < math.inf:
        raise DomainError(f"step bound {bound} (cap_factor {cap_factor}) must be finite and >= 0")
    return int(math.floor(bound))


def scaling_sweep(sizes, cap_factor: float = 4.0) -> list[SweepPoint]:
    """Best single-marked-vertex search on torus grids of the given sizes.

    For each N the sweep scans t <= cap_factor * sqrt(N log2 N) exactly and
    records the argmax step count t* and its success probability p*. The
    torus is vertex-transitive and every vertex lists its neighbours in the
    same order, so the trace does not depend on the mark: vertex 0 is marked.
    """
    if len(sizes) > MAX_SWEEP_SIZES:
        raise ResourceError(f"{len(sizes)} sweep sizes exceed the cap {MAX_SWEEP_SIZES}")
    points = []
    for n in sizes:
        graph = torus_graph(n, marked={0})
        trace = success_probability_trace(graph, sweep_step_cap(n, cap_factor))
        t_star = int(np.argmax(trace))
        points.append(SweepPoint(n_vertices=n, t_star=t_star, p_star=float(trace[t_star])))
    return points


# -- classical tree walking and the agreement protocol ------------------------


def tree_walk_key(stream_bits: np.ndarray, operator_seed: int, depth: int) -> np.ndarray:
    """Descend a depth-`depth` binary tree; the level-i branch is stream bit i
    XOR seed bit i (seed expanded MSB-first over `depth` bits). Returns the
    root-to-leaf path, which labels the reached leaf. O(depth) work."""
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    stream_bits = np.asarray(stream_bits, dtype=np.uint8)
    if stream_bits.size < depth:
        raise DomainError(f"stream exhausted: need {depth} bits, have {stream_bits.size}")
    return stream_bits[:depth] ^ int_to_bits(operator_seed, depth)


@dataclass(frozen=True)
class WalkAgreementResult:
    key_alice: SharedKey
    key_bob: SharedKey
    agreed: bool
    transcript: Transcript
    operator_seed: int
    sync_error_ns: float


def walk_agreement(
    alice: Receiver,
    bob: Receiver,
    source: BroadcastSource,
    window: KeyWindow,
    rng: np.random.Generator,
) -> WalkAgreementResult:
    """Both parties tree-walk the same broadcast window with a teleported seed.

    The walk depth equals the window length; the start time and depth are
    public, the operator seed rides the teleportation channel only. The
    clock sync runs the default ladder of the broadcast protocols (`SYNC_*`).
    A window longer than `MAX_TELEPORT_BITS` is refused before the sync.
    Both keys are one-shot, as in the key exchanges.
    """
    depth = window.length
    if depth > MAX_TELEPORT_BITS:
        raise ResourceError(f"window length {depth} exceeds the teleport cap {MAX_TELEPORT_BITS}")
    run = run_clock_sync(source, alice, bob, rng, SYNC_N_BITS, SYNC_T_MAX_NS, SYNC_SHOTS_PER_BIT)
    t_alice = aligned_start_time(source, alice, window.start_local_time_ns)
    run.transcript.add("walk-window", "alice", "public", f"{t_alice:.3f},{depth}".encode())
    operator_seed = int.from_bytes(rng.bytes((depth + 7) // 8), "big") & ((1 << depth) - 1)
    received_seed = run.teleport(operator_seed, depth, "operator")
    bits_alice, bits_bob = run.read(t_alice, t_alice, depth, "walk")
    key_alice = tree_walk_key(bits_alice, operator_seed, depth)
    key_bob = tree_walk_key(bits_bob, received_seed, depth)
    return WalkAgreementResult(
        key_alice=SharedKey(key_alice),
        key_bob=SharedKey(key_bob),
        agreed=run.settle(bool(np.array_equal(key_alice, key_bob))),
        transcript=run.transcript,
        operator_seed=operator_seed,
        sync_error_ns=run.error_ns,
    )


@dataclass(frozen=True)
class GridAttackReport:
    keyspace_size: int
    t_star: int
    p_star: float
    shortfall: float  # 1 - p_star: how far one sweep falls short of certainty


def keyspace_grid_attack(
    true_key: int, key_bits: int, cap_factor: float = 4.0
) -> GridAttackReport:
    """Eavesdropper's walk search over a key space arranged as a torus grid.

    The 2**key_bits keys become grid vertices with the true key marked; one
    search pass succeeds with the sweep's p*, which decays like 1/log N, and
    the report carries the gap to certainty alongside it. The walk does not
    depend on which vertex is marked (see `scaling_sweep`), so `true_key` is
    only range-checked and does not change the result.
    """
    if key_bits < 4 or key_bits % 2:
        raise DomainError("keyspace grid needs an even key width >= 4")
    if key_bits >= MAX_VERTICES.bit_length():
        raise ResourceError(f"{key_bits}-bit keys exceed the cap of {MAX_VERTICES} vertices")
    n = 1 << key_bits
    if not 0 <= true_key < n:
        raise DomainError(f"true key {true_key} outside the {key_bits}-bit space")
    (point,) = scaling_sweep([n], cap_factor)
    return GridAttackReport(
        keyspace_size=n, t_star=point.t_star, p_star=point.p_star, shortfall=1.0 - point.p_star
    )
