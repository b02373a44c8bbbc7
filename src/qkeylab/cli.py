"""Scenario runner: parse a config, seed every module, run the experiment,
emit a reproducible run report.

Reports are canonical text: rerunning the same configuration reproduces the
report byte for byte, whether trials run on one worker or many (results are
keyed by trial id and reduced in id order; the worker count never appears in
the report). Per-trial randomness is derived from the master seed by hashing
it with the scenario name and the trial counter (see `seeds.derive_seed`).

Exit codes: 0 success; 1 failed verdict or protocol failure; 2 unacceptable
input (ConfigError, DomainError, ResourceError, unreadable config file,
unwritable --out path). Every outside value goes through `build_config`.
Master seed precedence: --master-seed flag, then QKEYLAB_MASTER_SEED in the
environment, then a `master_seed` line in the config file, then 12345.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import broadcast, coinflip, ecurve, keyexchange, qstate, qwalk, teleport
from .clocksync import (
    MAX_SHOTS_PER_BIT,
    SYNC_N_BITS,
    SYNC_SHOTS_PER_BIT,
    SYNC_T_MAX_NS,
    Clock,
    ticking_qubit_sync,
)
from .errors import ConfigError, DomainError, QKeyLabError, ResourceError
from .numtheory import MAX_PRIME_BITS, random_below
from .seeds import derive_rng, derive_seed

ENV_MASTER_SEED = "QKEYLAB_MASTER_SEED"
DEFAULT_MASTER_SEED = 12345
MAX_WORKERS = 64
_MAX_SYNC_BITS = 52  # a double resolves no finer rung of the offset ladder
_MAX_VERTICES = 1 << 16  # walk graphs hold Python adjacency tuples per vertex

_REQUIRED = object()


def _seed_int(value) -> int:
    """Seed values accept decimal or 0x-prefixed hex."""
    text = str(value).strip()
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def _finite_float(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"not finite: {value!r}")
    return number


def _int_list(value) -> tuple:
    return tuple(int(s) for s in str(value).split(","))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
    return str(value)


@dataclass(frozen=True)
class FieldSpec:
    """Parser, default, inclusive bounds (on each element of a tuple) and choices."""

    parse: object
    default: object
    help: str = ""
    lo: object = None
    hi: object = None
    choices: tuple = ()

    def check(self, key: str, raw):
        try:
            value = self.parse(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        if self.choices and value not in self.choices:
            raise ConfigError(f"{key} must be one of {', '.join(self.choices)}, got {raw!r}")
        for item in value if isinstance(value, tuple) else (value,):
            if self.lo is not None and item < self.lo:
                raise ConfigError(f"{key} must be >= {self.lo}, got {raw!r}")
            if self.hi is not None and item > self.hi:
                raise ConfigError(f"{key} must be <= {self.hi}, got {raw!r}")
        return value


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    master_seed: int
    workers: int
    params: dict


@dataclass
class RunReport:
    scenario: str
    params: list = field(default_factory=list)
    transcript_lines: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    def stat(self, name, value):
        self.stats.append((name, _fmt(value)))

    def verdict(self, name, ok):
        self.verdicts.append((name, bool(ok)))

    @property
    def exit_code(self) -> int:
        return 0 if all(ok for _, ok in self.verdicts) else 1

    def render(self) -> str:
        lines = ["qkeylab run report", f"scenario = {self.scenario}", "[params]"]
        lines += [f"{k} = {v}" for k, v in self.params]
        lines.append("[transcript]")
        lines += self.transcript_lines
        lines.append("[stats]")
        lines += [f"{k} = {v}" for k, v in self.stats]
        lines.append("[verdicts]")
        lines += [f"{k} = {'PASS' if ok else 'FAIL'}" for k, ok in self.verdicts]
        lines.append(f"result = {'pass' if self.exit_code == 0 else 'fail'}")
        return "\n".join(lines) + "\n"


# -- trial fan-out -------------------------------------------------------------


def _map_trials(worker, n_trials: int, config: ScenarioConfig):
    """Run trials serially or across at most n_trials processes; order is
    always by trial id."""
    args = [
        (i, derive_seed(config.master_seed, config.scenario, i), config.params)
        for i in range(n_trials)
    ]
    workers = min(config.workers, n_trials)
    if workers <= 1:
        return [worker(a) for a in args]
    chunk = max(1, n_trials // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args, chunksize=chunk))


# -- scenario: teleport-demo ---------------------------------------------------


def _teleport_trial(args):
    _, seed, _ = args
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = qstate.StateVector(1, raw / np.linalg.norm(raw))
    record, _ = teleport.teleport_state(state, rng)
    return record.fidelity, record.outcome.bit_z, record.outcome.bit_x


def _run_teleport_demo(config: ScenarioConfig) -> RunReport:
    p = config.params
    report = RunReport("teleport-demo")
    results = _map_trials(_teleport_trial, p["trials"], config)
    fidelities = np.array([r[0] for r in results])
    outcomes = [(bz, bx) for _, bz, bx in results]
    report.stat("trials", p["trials"])
    report.stat("min_fidelity", float(fidelities.min()))
    report.stat("mean_fidelity", float(fidelities.mean()))
    balanced = True
    for bz, bx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        freq = outcomes.count((bz, bx)) / p["trials"]
        report.stat(f"outcome_freq_z{bz}x{bx}", freq)
        balanced = balanced and abs(freq - 0.25) <= p["freq_tol"]
    report.verdict("fidelity_floor", float(fidelities.min()) >= 1.0 - p["fidelity_tol"])
    if p["trials"] >= 1000:
        report.verdict("outcome_balance", balanced)
    return report


# -- scenario: clocksync -------------------------------------------------------


def _clocksync_trial(args):
    _, seed, p = args
    rng = np.random.default_rng(seed)
    span = p["delta_span"]
    true_delta = float(rng.uniform(-span, span) * p["t_max_ns"])
    result = ticking_qubit_sync(true_delta, p["n_bits"], p["t_max_ns"], p["shots_per_bit"], rng)
    return abs(result.delta_estimate_ns - true_delta)


def _run_clocksync(config: ScenarioConfig) -> RunReport:
    p = config.params
    if not p["t_max_ns"] > 0:
        raise ConfigError(f"t_max_ns must be > 0, got {p['t_max_ns']}")
    if not p["delta_span"] < 0.5:
        raise ConfigError(
            f"delta_span must be < 0.5 to keep offsets inside +-t_max_ns/2, got {p['delta_span']}"
        )
    report = RunReport("clocksync")
    errors = np.array(_map_trials(_clocksync_trial, p["trials"], config))
    resolution = p["resolution_ns"]
    if resolution <= 0:
        resolution = p["t_max_ns"] / 2 ** p["n_bits"]
    within = float((errors <= resolution).mean())
    report.stat("trials", p["trials"])
    report.stat("resolution_ns", resolution)
    report.stat("median_error_ns", float(np.median(errors)))
    report.stat("max_error_ns", float(errors.max()))
    report.stat("fraction_within_resolution", within)
    report.stat("qubits_per_trial", p["n_bits"] * p["shots_per_bit"])
    report.verdict("resolution_target", within >= p["pass_fraction"])
    return report


# -- scenario: dh --------------------------------------------------------------


def _dh_instance(args):
    _, seed, p = args
    rng = np.random.default_rng(seed)
    prime = keyexchange.random_prime(p["p_bits"], rng)
    g = 2 + random_below(prime - 3, rng)
    a = keyexchange.random_secret(prime, rng)
    b = keyexchange.random_secret(prime, rng)
    result = keyexchange.classic_dh(keyexchange.DhParams(prime, g), a, b)
    return result.agreed and result.key_a.reveal() == result.key_b.reveal()


def _run_dh(config: ScenarioConfig) -> RunReport:
    p = config.params
    report = RunReport("dh")
    if p["instances"] > 0:
        agreements = _map_trials(_dh_instance, p["instances"], config)
        report.stat("instances", p["instances"])
        report.stat("all_agreed", all(agreements))
        report.verdict("agreement", all(agreements))
        return report
    rng = derive_rng(config.master_seed, "dh", "single")
    params = keyexchange.DhParams(p["p"], p["g"])
    a = keyexchange.random_secret(p["p"], rng)
    b = keyexchange.random_secret(p["p"], rng)
    result = keyexchange.classic_dh(params, a, b)
    agreed = result.agreed and result.key_a.reveal() == result.key_b.reveal()
    report.transcript_lines = result.transcript.render().splitlines()
    report.stat("p", p["p"])
    report.stat("g", p["g"])
    report.stat("agreed", agreed)
    report.stat("key_alice", result.key_a.render())
    report.stat("key_bob", result.key_b.render())
    report.verdict("agreement", agreed)
    return report


# -- scenarios: pqdh / private ---------------------------------------------------


def _link(p):
    """Source, receivers and sync-ladder keywords from the `_LINK_FIELDS` of a row."""
    source = broadcast.BroadcastSource(seed=p["broadcast_seed"], bitrate=p["bitrate"])
    alice = broadcast.Receiver("alice", p["distance_a_m"], Clock(p["offset_a_ns"]))
    bob = broadcast.Receiver("bob", p["distance_b_m"], Clock(p["offset_b_ns"]))
    sync = {name: p[name] for name in ("sync_n_bits", "sync_t_max_ns", "sync_shots_per_bit")}
    return source, alice, bob, sync


def _check_sync_window(p):
    """The sync ladder resolves an offset only inside +-sync_t_max_ns/2, and
    only to sync_t_max_ns/2^sync_n_bits, which must stay below half a bit period."""
    gap = p["offset_b_ns"] - p["offset_a_ns"]
    if not abs(gap) < p["sync_t_max_ns"] / 2:
        raise ConfigError(
            f"offset_b_ns - offset_a_ns = {gap} ns is outside the sync window "
            f"+-sync_t_max_ns/2 = +-{p['sync_t_max_ns'] / 2} ns"
        )
    step_ns = p["sync_t_max_ns"] / 2 ** p["sync_n_bits"]
    if not step_ns * p["bitrate"] < 1e9 / 2:  # a product: bitrate <= 0 is left to BroadcastSource
        raise ConfigError(
            f"sync_t_max_ns / 2^sync_n_bits = {step_ns} ns is not below half the bit "
            f"period 1e9 / bitrate / 2 = {1e9 / 2 / p['bitrate']} ns"
        )


def _session_window(source, alice, session_index: int, length: int) -> broadcast.KeyWindow:
    base = source.epoch_ns + alice.propagation_delay_ns + alice.clock.offset_ns
    return broadcast.KeyWindow(base + 1e9 + session_index * 1e7, length)


def _pqdh_session(args):
    i, seed, p = args
    rng = np.random.default_rng(seed)
    source, alice, bob, sync = _link(p)
    prime = keyexchange.random_prime(p["p_bits"], rng)
    a = keyexchange.random_secret(prime, rng)
    b = keyexchange.random_secret(prime, rng)
    window = _session_window(source, alice, i, p["p_bits"])
    result = keyexchange.pq_dh(source, alice, bob, window, prime, a, b, rng, **sync)
    agreed = result.agreed and result.key_alice.reveal() == result.key_bob.reveal()
    lines = result.transcript.render().splitlines() if i == 0 else []
    return (
        agreed,
        abs(result.sync_error_ns),
        result.window_retries,
        result.flip_retries,
        lines,
        result.key_alice.render(),
    )


def _run_pqdh(config: ScenarioConfig) -> RunReport:
    p = config.params
    _check_sync_window(p)
    report = RunReport("pqdh")
    results = _map_trials(_pqdh_session, p["sessions"], config)
    agreed = [r[0] for r in results]
    report.transcript_lines = results[0][4]
    report.stat("sessions", p["sessions"])
    report.stat("sessions_agreed", sum(agreed))
    report.stat("max_abs_sync_error_ns", max(r[1] for r in results))
    report.stat("window_retries", sum(r[2] for r in results))
    report.stat("flip_retries", sum(r[3] for r in results))
    report.stat("key_render", results[0][5])
    report.verdict("agreement", all(agreed))
    return report


def _private_session(args):
    i, seed, p = args
    rng = np.random.default_rng(seed)
    source, alice, bob, sync = _link(p)
    window = _session_window(source, alice, i, p["length_bits"])
    result = keyexchange.private_exchange(
        source, alice, bob, window, rng, slot_bits=p["slot_bits"], **sync
    )
    key_a = result.key_alice.reveal()
    key_b = result.key_bob.reveal()
    agreed = result.agreed and bool(np.array_equal(key_a, key_b))
    lines = result.transcript.render().splitlines() if i == 0 else []
    return agreed, abs(result.sync_error_ns), lines, result.key_alice.render()


def _run_private(config: ScenarioConfig) -> RunReport:
    p = config.params
    _check_sync_window(p)
    report = RunReport("private")
    results = _map_trials(_private_session, p["sessions"], config)
    agreed = [r[0] for r in results]
    report.transcript_lines = results[0][2]
    report.stat("sessions", p["sessions"])
    report.stat("sessions_agreed", sum(agreed))
    report.stat("key_length_bits", p["length_bits"])
    report.stat("max_abs_sync_error_ns", max(r[1] for r in results))
    report.stat("key_render", results[0][3])
    report.verdict("agreement", all(agreed))
    return report


# -- scenario: coinflip ----------------------------------------------------------


def _coinflip_session(args):
    _, seed, p = args
    rng = np.random.default_rng(seed)
    result = coinflip.run_session(p["b"], p["k"], p["max_rounds"], rng, p["challenge_factor"])
    return result.verdict, result.n_trials, result.verified.ok


def _run_coinflip(config: ScenarioConfig) -> RunReport:
    p = config.params
    report = RunReport("coinflip")
    results = _map_trials(_coinflip_session, p["sessions"], config)
    verdicts = [r[0] for r in results]
    total_trials = sum(r[1] for r in results)
    decided = sum(1 for v in verdicts if v in (coinflip.HEADS, coinflip.TAILS))
    heads = sum(1 for v in verdicts if v == coinflip.HEADS)
    verified_all = all(r[2] for r in results)
    report.stat("sessions", p["sessions"])
    report.stat("total_trials", total_trials)
    report.stat("decided_sessions", decided)
    report.stat("undecided_sessions", p["sessions"] - decided)
    report.stat("decision_rate_per_trial", decided / total_trials)
    if decided:
        report.stat("heads_fraction_decided", heads / decided)
    report.stat("verified_all", verified_all)
    report.verdict("verify_honest", verified_all)
    if p["sessions"] >= 2000:
        report.verdict(
            "decision_rate", abs(decided / total_trials - 4.0 / 9.0) <= p["rate_tol"]
        )
        report.verdict("heads_balance", abs(heads / decided - 0.5) <= p["heads_tol"])
    return report


# -- scenarios: density / prng ----------------------------------------------------


def _run_density(config: ScenarioConfig) -> RunReport:
    p = config.params
    report = RunReport("density")
    result = ecurve.parity_density_scan(ecurve.Curve(p["a"], p["b"]), p["x"])
    report.stat("a", p["a"])
    report.stat("b", p["b"])
    report.stat("x_bound", result.x_bound)
    report.stat("primes_scanned", result.primes_scanned)
    report.stat("even_fraction", result.even_fraction)
    report.stat("odd_prime_count", result.odd_prime_count)
    report.stat("excluded_bad_primes", ",".join(map(str, result.excluded_bad_primes)) or "-")
    report.stat("odd_primes_sample", ",".join(map(str, result.odd_primes_sample)) or "-")
    report.stat("splitting_degree", ecurve.splitting_degree(p["a"], p["b"]))
    if p["target"] >= 0:
        report.verdict("density_target", abs(result.even_fraction - p["target"]) <= p["tol"])
    return report


def _run_prng(config: ScenarioConfig) -> RunReport:
    p = config.params
    report = RunReport("prng")
    curve = ecurve.select_curve(p["prng_seed"])
    bits = ecurve.parity_prng(p["prng_seed"], p["bits"], curve)
    zero_fraction = float((bits == 0).mean())
    report.stat("prng_seed", p["prng_seed"])
    report.stat("curve_a", curve.a)
    report.stat("curve_b", curve.b)
    report.stat("bits", p["bits"])
    report.stat("zero_fraction", zero_fraction)
    report.stat("bits_hex", broadcast.bits_to_hex(bits))
    if p["bits"] >= 1000:
        report.verdict("zero_target", abs(zero_fraction - 2.0 / 3.0) <= p["tol"])
    return report


# -- scenarios: qwalk search / sweep ----------------------------------------------


_WALK_GRAPHS = {
    "torus": qwalk.torus_graph,
    "cycle": qwalk.cycle_graph,
    "tree": qwalk.binary_tree_graph,
}


def _build_walk_graph(p, rng):
    tree = p["graph"] == "tree"
    size = p["depth"] if tree else p["n"]
    marked = p["marked"]
    if marked < 0:
        n_vertices = (1 << (size + 1)) - 1 if tree else size
        marked = int(rng.integers(n_vertices))
    return _WALK_GRAPHS[p["graph"]](size, marked={marked})


def _run_qwalk_search(config: ScenarioConfig) -> RunReport:
    p = config.params
    report = RunReport("qwalk-search")
    rng = derive_rng(config.master_seed, "qwalk-search", "graph")
    graph = _build_walk_graph(p, rng)
    t_steps = p["t"]
    if t_steps < 0:
        t_steps = qwalk.sweep_step_cap(graph.n_vertices)
    probs = np.clip(qwalk.walk_distribution(graph, t_steps).real, 0.0, None)
    exact = float(probs[sorted(graph.marked)].sum())
    sampler = derive_rng(config.master_seed, "qwalk-search", "sample")
    draws = sampler.choice(graph.n_vertices, size=p["trials"], p=probs / probs.sum())
    marked = np.array(sorted(graph.marked))
    hit_rate = float(np.isin(draws, marked).mean())
    sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / p["trials"])
    report.stat("graph", p["graph"])
    report.stat("n_vertices", graph.n_vertices)
    report.stat("steps", t_steps)
    report.stat("marked_vertex", int(marked[0]))
    report.stat("exact_success_probability", exact)
    report.stat("sampled_success_rate", hit_rate)
    report.stat("trials", p["trials"])
    report.verdict("sampling_consistency", abs(hit_rate - exact) <= 3 * sigma + 1e-9)
    return report


def _run_qwalk_sweep(config: ScenarioConfig) -> RunReport:
    p = config.params
    report = RunReport("qwalk-sweep")
    rng = derive_rng(config.master_seed, "qwalk-sweep", "marks")
    points = qwalk.scaling_sweep(p["sizes"], rng, p["cap_factor"])
    scaled = []
    for point in points:
        c = point.p_star * math.log2(point.n_vertices)
        scaled.append(c)
        report.stat(f"n{point.n_vertices}_t_star", point.t_star)
        report.stat(f"n{point.n_vertices}_p_star", point.p_star)
        report.stat(f"n{point.n_vertices}_p_star_log2n", c)
    if len(scaled) >= 2:
        report.verdict("scaling_floor", min(scaled) >= scaled[0] / 2)
    return report


# -- scenarios: bounded-storage Eve / walk Eve --------------------------------------


def _eve_storage_trial(args):
    _, seed, p = args
    rng = np.random.default_rng(seed)
    source = broadcast.BroadcastSource(seed=p["broadcast_seed"], bitrate=1e6)
    target = broadcast.Receiver("target", 0.0, Clock(0.0))
    start_index = p["span_start"] + (p["span"] - p["length"]) // 2
    window = broadcast.KeyWindow((start_index + 0.5) * source.bit_period_ns, p["length"])
    view = broadcast.eve_store(
        source, window, p["span_start"], p["span"], p["fraction"], rng, p["strategy"]
    )
    recovery = broadcast.eve_recover(view, source, target)
    return recovery.known_bits, recovery.known_bits == p["length"]


def _run_eve_bounded_storage(config: ScenarioConfig) -> RunReport:
    p = config.params
    report = RunReport("eve-bounded-storage")
    results = _map_trials(_eve_storage_trial, p["trials"], config)
    known = np.array([r[0] for r in results], dtype=float)
    full_rate = float(np.mean([r[1] for r in results]))
    length, fraction, trials = p["length"], p["fraction"], p["trials"]
    mean_expected = length * fraction
    mean_sigma = math.sqrt(length * fraction * (1 - fraction) / trials)
    full_expected = fraction**length
    full_sigma = math.sqrt(max(full_expected * (1 - full_expected), 1e-12) / trials)
    report.stat("trials", trials)
    report.stat("length", length)
    report.stat("fraction", fraction)
    report.stat("span", p["span"])
    report.stat("strategy", p["strategy"])
    report.stat("mean_known_bits", float(known.mean()))
    report.stat("expected_known_bits", mean_expected)
    report.stat("full_recovery_rate", full_rate)
    report.stat("expected_full_recovery", full_expected)
    if p["strategy"] == "uniform":
        report.verdict(
            "mean_known", abs(float(known.mean()) - mean_expected) <= 3 * mean_sigma + 1e-12
        )
        if length <= 16:
            report.verdict(
                "full_recovery", abs(full_rate - full_expected) <= 3 * full_sigma + 1e-12
            )
    return report


def _run_eve_qwalk(config: ScenarioConfig) -> RunReport:
    p = config.params
    report = RunReport("eve-qwalk")
    rng = derive_rng(config.master_seed, "eve-qwalk", "key")
    true_key = int(rng.integers(1 << p["depth"]))
    attack = qwalk.keyspace_grid_attack(true_key, p["depth"], p["cap_factor"])
    report.stat("key_bits", p["depth"])
    report.stat("keyspace_size", attack.keyspace_size)
    report.stat("t_star", attack.t_star)
    report.stat("p_star", attack.p_star)
    report.stat("shortfall", attack.shortfall)
    report.stat(
        "step_bound", qwalk.sweep_step_cap(attack.keyspace_size, p["cap_factor"])
    )
    return report


# -- schemas and dispatch ------------------------------------------------------------


_RUN_FIELDS = {
    "master_seed": FieldSpec(_seed_int, DEFAULT_MASTER_SEED, "master seed (decimal or 0x-hex)"),
    "workers": FieldSpec(int, 1, "parallel workers", 1, MAX_WORKERS),
}

# Broadcast geometry and clock-sync ladder, shared by the pqdh and private rows.
_LINK_FIELDS = {
    "broadcast_seed": FieldSpec(_seed_int, 7, "stream seed (decimal or 0x-hex)", 0),
    "bitrate": FieldSpec(_finite_float, 1e6, "broadcast bits per second"),
    "distance_a_m": FieldSpec(_finite_float, 0.0, "satellite distance, first party"),
    "distance_b_m": FieldSpec(_finite_float, 299792.458, "satellite distance, second party"),
    "offset_a_ns": FieldSpec(_finite_float, 0.0, "first party clock offset"),
    "offset_b_ns": FieldSpec(_finite_float, 40000.0, "second party clock offset"),
    "sync_n_bits": FieldSpec(int, SYNC_N_BITS, "clock-sync ladder depth", 1, _MAX_SYNC_BITS),
    "sync_t_max_ns": FieldSpec(_finite_float, SYNC_T_MAX_NS, "clock-sync unambiguous window"),
    "sync_shots_per_bit": FieldSpec(
        int, SYNC_SHOTS_PER_BIT, "measurements per ladder rung", 2, MAX_SHOTS_PER_BIT
    ),
}

SCENARIOS: dict = {
    "teleport-demo": (
        {
            "trials": FieldSpec(int, 1000, "number of teleported states", 1),
            "fidelity_tol": FieldSpec(_finite_float, 1e-9, "allowed fidelity shortfall", 0.0),
            "freq_tol": FieldSpec(_finite_float, 0.02, "allowed outcome-frequency deviation", 0.0),
        },
        _run_teleport_demo,
    ),
    "clocksync": (
        {
            "trials": FieldSpec(int, 200, "number of sync runs", 1),
            "n_bits": FieldSpec(int, SYNC_N_BITS, "offset digits to resolve", 1, _MAX_SYNC_BITS),
            "t_max_ns": FieldSpec(_finite_float, SYNC_T_MAX_NS, "unambiguous offset window"),
            "shots_per_bit": FieldSpec(
                int, SYNC_SHOTS_PER_BIT, "measurements per rung", 2, MAX_SHOTS_PER_BIT
            ),
            "delta_span": FieldSpec(_finite_float, 0.45, "offsets drawn from +-span*t_max", 0.0),
            "resolution_ns": FieldSpec(_finite_float, -1.0, "target resolution (<=0: t_max/2^n)"),
            "pass_fraction": FieldSpec(_finite_float, 0.99, "required fraction within target"),
        },
        _run_clocksync,
    ),
    "dh": (
        {
            "p": FieldSpec(int, 23, "prime modulus (single-run mode)"),
            "g": FieldSpec(int, 5, "public base (single-run mode)"),
            "instances": FieldSpec(int, 0, "random instances (0: single run with p,g)", 0),
            "p_bits": FieldSpec(int, 48, "prime size for random instances", 3, MAX_PRIME_BITS),
        },
        _run_dh,
    ),
    "pqdh": (
        {
            "sessions": FieldSpec(int, 5, "independent protocol sessions", 1),
            "p_bits": FieldSpec(int, 48, "prime modulus size", 2, MAX_PRIME_BITS),
            **_LINK_FIELDS,
        },
        _run_pqdh,
    ),
    "private": (
        {
            "sessions": FieldSpec(int, 5, "independent protocol sessions", 1),
            "length_bits": FieldSpec(int, 128, "key length", 1, broadcast.MAX_WINDOW_BITS),
            "slot_bits": FieldSpec(int, 8, "log2 of the slot schedule size", 1, 32),
            **_LINK_FIELDS,
        },
        _run_private,
    ),
    "coinflip": (
        {
            "b": FieldSpec(int, 64, "discriminant window base", 16),
            "k": FieldSpec(int, 3, "commitment length exponent", 3),
            "sessions": FieldSpec(int, 200, "sessions to run", 1),
            "max_rounds": FieldSpec(int, 64, "challenge rounds before undecided", 1),
            # (m, 2m] holds two primes for every m >= 11 (Ramanujan), and m >= 64 here.
            "challenge_factor": FieldSpec(int, 10, "challenge primes drawn from (m, c*m]", 2),
            "rate_tol": FieldSpec(_finite_float, 0.02, "decision-rate tolerance around 4/9", 0.0),
            "heads_tol": FieldSpec(_finite_float, 0.02, "heads-balance tolerance around 1/2", 0.0),
        },
        _run_coinflip,
    ),
    "density": (
        {
            "a": FieldSpec(int, _REQUIRED, "curve coefficient a"),
            "b": FieldSpec(int, _REQUIRED, "curve coefficient b"),
            "x": FieldSpec(int, _REQUIRED, "prime scan bound", 100, ecurve.MAX_SCAN),
            "target": FieldSpec(_finite_float, -1.0, "expected even fraction (<0: no verdict)"),
            "tol": FieldSpec(_finite_float, 0.02, "allowed deviation from target", 0.0),
        },
        _run_density,
    ),
    "prng": (
        {
            "prng_seed": FieldSpec(int, 1, "generator seed", 0),
            "bits": FieldSpec(int, 10000, "output length", 1, ecurve.MAX_SCAN),
            "tol": FieldSpec(_finite_float, 0.03, "allowed deviation of the zero fraction", 0.0),
        },
        _run_prng,
    ),
    "qwalk-search": (
        {
            "graph": FieldSpec(str, "torus", "torus, cycle or tree", choices=tuple(_WALK_GRAPHS)),
            "n": FieldSpec(int, 16, "vertex count (torus/cycle)", 3, _MAX_VERTICES),
            "depth": FieldSpec(int, 3, "tree depth (tree)", 1, 15),
            "t": FieldSpec(int, -1, "walk steps (<0: 4*sqrt(N log2 N))"),
            "marked": FieldSpec(int, -1, "marked vertex (<0: seeded choice)"),
            "trials": FieldSpec(int, 2000, "sampled measurements", 1),
        },
        _run_qwalk_search,
    ),
    "qwalk-sweep": (
        {
            "sizes": FieldSpec(_int_list, (16, 64, 256), "comma-separated sizes", 9, _MAX_VERTICES),
            "cap_factor": FieldSpec(_finite_float, 4.0, "step cap multiplier", 0.0, 16.0),
        },
        _run_qwalk_sweep,
    ),
    "eve-bounded-storage": (
        {
            "trials": FieldSpec(int, 10000, "independent storage draws", 1),
            "length": FieldSpec(int, 8, "key window length", 1, broadcast.MAX_WINDOW_BITS),
            "fraction": FieldSpec(_finite_float, 0.5, "stored fraction of the span", 0.0, 1.0),
            "span": FieldSpec(
                int, 2048, "observed stream span (bits)", 1, broadcast.MAX_STORAGE_SPAN
            ),
            "span_start": FieldSpec(int, 0, "first index of the span", 0, 1 << 48),
            "strategy": FieldSpec(
                str, "uniform", "storage strategy: uniform or prefix", choices=("uniform", "prefix")
            ),
            "broadcast_seed": FieldSpec(_seed_int, 7, "stream seed (decimal or 0x-hex)", 0),
        },
        _run_eve_bounded_storage,
    ),
    "eve-qwalk": (
        {
            "depth": FieldSpec(int, 8, "key width in bits (even)", 4, 16),
            "cap_factor": FieldSpec(_finite_float, 4.0, "step cap multiplier", 0.0, 16.0),
        },
        _run_eve_qwalk,
    ),
}


def load_config_file(path: str) -> dict:
    """Flat `key = value` lines (UTF-8); `#` starts a comment; blank lines ignored."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def build_config(
    scenario: str,
    file_values: dict | None = None,
    overrides: dict | None = None,
    master_seed=None,
    workers=None,
) -> ScenarioConfig:
    """Merge defaults, config file, environment and overrides through one
    parse-and-bound path; reject unknown keys. None means "not given"."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    schema, _ = SCENARIOS[scenario]
    file_values, overrides = file_values or {}, overrides or {}
    for key in (*file_values, *overrides):
        if key not in schema and key != "master_seed":
            raise ConfigError(f"unknown config key {key!r} for scenario {scenario}")
    fields = {**schema, **_RUN_FIELDS}
    values = {name: spec.default for name, spec in fields.items()}
    given = [  # lowest precedence first
        *file_values.items(),
        (ENV_MASTER_SEED, os.environ.get(ENV_MASTER_SEED)),
        *overrides.items(),
        ("master_seed", master_seed),
        ("workers", workers),
    ]
    for key, raw in given:
        if raw is not None:
            name = "master_seed" if key == ENV_MASTER_SEED else key
            values[name] = fields[name].check(key, raw)
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise ConfigError(f"missing required field: {missing[0]}")
    seed, n_workers = values.pop("master_seed"), values.pop("workers")
    return ScenarioConfig(scenario, seed, n_workers, values)


def run(config: ScenarioConfig) -> RunReport:
    """Dispatch to the scenario runner and echo the effective parameters."""
    schema, runner = SCENARIOS[config.scenario]
    report = runner(config)
    report.params = [("master_seed", _fmt(config.master_seed))] + [
        (name, _fmt(config.params[name])) for name in schema
    ]
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkeylab",
        description="Deterministic key-agreement protocol experiments.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, (schema, _) in SCENARIOS.items():
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="also write the report to this file")
        for field_name, spec in {**_RUN_FIELDS, **schema}.items():
            p.add_argument(f"--{field_name.replace('_', '-')}", dest=field_name, help=spec.help)
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    scenario, config_path, out, master_seed, workers = (
        args.pop(key) for key in ("scenario", "config", "out", "master_seed", "workers")
    )
    try:
        file_values = load_config_file(config_path) if config_path else {}
        overrides = {name: value for name, value in args.items() if value is not None}
        report = run(build_config(scenario, file_values, overrides, master_seed, workers))
        text = report.render()
        if out:
            Path(out).write_text(text)
    except (ConfigError, DomainError, ResourceError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QKeyLabError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
