"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime; every random stream
derives from MASTER_SEED, so reruns are bit-for-bit identical.
"""
import math
import time

import numpy as np

from qkeylab import broadcast, cli, coinflip, ecurve, keyexchange, qstate, qwalk, teleport
from qkeylab.clocksync import Clock, ticking_qubit_sync
from qkeylab.numtheory import random_below
from qkeylab.seeds import derive_rng
from qkeylab.transcript import int_payload

MASTER_SEED = 20240811


def report(number, name, ok, detail):
    line = f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_qubit(rng):
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    return qstate.StateVector(1, raw / np.linalg.norm(raw))


def test_criterion_01_teleportation_fidelity():
    start = time.perf_counter()
    rng = derive_rng(MASTER_SEED, "acc1", "fidelity")
    worst = 1.0
    for _ in range(1000):
        state = random_qubit(rng)
        _, received = teleport.teleport_state(state, rng)
        worst = min(worst, qstate.fidelity(state, received))
    counts = {(z, x): 0 for z in (0, 1) for x in (0, 1)}
    rng = derive_rng(MASTER_SEED, "acc1", "outcomes")
    runs = 10_000
    for _ in range(runs):
        outcome, _ = teleport.teleport_state(random_qubit(rng), rng)
        counts[outcome] += 1
    elapsed = time.perf_counter() - start
    freqs = {key: count / runs for key, count in counts.items()}
    ok = (
        worst >= 1 - 1e-9
        and all(abs(f - 0.25) <= 0.02 for f in freqs.values())
        and elapsed < 10.0
    )
    report(
        1,
        "teleportation fidelity and outcome balance",
        ok,
        f"min fidelity shortfall {1 - worst:.1e}, max freq dev "
        f"{max(abs(f - 0.25) for f in freqs.values()):.4f}, {elapsed:.1f}s",
    )


def test_criterion_02_diffie_hellman_correctness():
    params = keyexchange.DhParams(23, 5)
    exhaustive_ok = True
    for a in range(1, 23):
        for b in range(1, 23):
            result = keyexchange.classic_dh(
                params, keyexchange.PartySecret(a), keyexchange.PartySecret(b)
            )
            if result.key_alice.reveal() != result.key_bob.reveal():
                exhaustive_ok = False
    example = keyexchange.classic_dh(
        params, keyexchange.PartySecret(6), keyexchange.PartySecret(15)
    )
    example_ok = example.key_alice.reveal() == 2
    random_ok = True
    for i in range(1000):
        rng = derive_rng(MASTER_SEED, "acc2", i)
        bits = int(rng.integers(48, 65))
        p = keyexchange.random_prime(bits, rng)
        g = 2 + random_below(p - 3, rng)
        a = keyexchange.random_secret(p, rng)
        b = keyexchange.random_secret(p, rng)
        result = keyexchange.classic_dh(keyexchange.DhParams(p, g), a, b)
        key = result.key_alice.reveal()
        oracle = pow(g, a.exponent * b.exponent, p)
        if key != result.key_bob.reveal() or key != oracle:
            random_ok = False
    ok = exhaustive_ok and example_ok and random_ok
    report(
        2,
        "discrete-log exchange correctness",
        ok,
        "484 exhaustive cases, worked example -> 2, 1000 random 48-64 bit instances",
    )


def test_criterion_03_post_quantum_dh_end_to_end():
    sessions = 100
    agreed = 0
    structure_ok = True
    for i in range(sessions):
        rng = derive_rng(MASTER_SEED, "acc3", i)
        source = broadcast.BroadcastSource(seed=int(rng.integers(1 << 60)), bitrate=1e6)
        alice = broadcast.Receiver(
            "alice", float(rng.uniform(1e3, 1e6)), Clock(float(rng.uniform(1e3, 3e5)))
        )
        bob = broadcast.Receiver(
            "bob", float(rng.uniform(1e3, 1e6)), Clock(-float(rng.uniform(1e3, 3e5)))
        )
        bits = int(rng.integers(48, 65))
        p = keyexchange.random_prime(bits, rng)
        a = keyexchange.random_secret(p, rng)
        b = keyexchange.random_secret(p, rng)
        window = broadcast.KeyWindow(2e9, bits)
        result = keyexchange.pq_dh(source, alice, bob, window, p, a, b, rng)
        if result.agreed and result.key_alice.reveal() == result.key_bob.reveal():
            agreed += 1
        secrets = {
            int_payload(result.generator_alice),
            int_payload(result.tweaked_alice),
            int_payload(result.flip_index),
        }
        allowed = {
            "sync.estimate", "start-time", "window.retry", "flip.retry",
            "flip-index.outcome", "params.p", "share.alice", "share.bob",
        }
        for rec in result.transcript.eve_view:
            if rec.step.split("[")[0] not in allowed:
                structure_ok = False
            if rec.step in ("params.p", "share.alice", "share.bob") and rec.payload in secrets:
                structure_ok = False
    flip_ok = keyexchange.flip_bit(11, 2) == 15
    ok = agreed == sessions and structure_ok and flip_ok
    report(
        3,
        "broadcast-generator exchange end to end",
        ok,
        f"{agreed}/{sessions} sessions agreed, eavesdropper view clean, 11 flips to 15",
    )


def test_criterion_04_splitting_degree_parity_densities():
    start = time.perf_counter()
    d6 = ecurve.parity_density_scan(ecurve.Curve(0, -2), 100_000)
    d3 = ecurve.parity_density_scan(ecurve.Curve(-3, 1), 100_000)
    d1 = ecurve.parity_density_scan(ecurve.Curve(-1, 0), 100_000)
    elapsed = time.perf_counter() - start
    exceptions_listed = d1.odd_prime_count == len(d1.odd_primes_sample)
    ok = (
        abs(d6.even_fraction - 2 / 3) <= 0.02
        and abs(d3.even_fraction - 1 / 3) <= 0.02
        and d1.even_fraction >= 0.99
        and exceptions_listed
        and elapsed < 120.0
    )
    report(
        4,
        "trace parity densities at x = 1e5",
        ok,
        f"deg6 {d6.even_fraction:.4f} vs 2/3, deg3 {d3.even_fraction:.4f} vs 1/3, "
        f"deg1 {d1.even_fraction:.4f} with {d1.odd_prime_count} exceptions, {elapsed:.0f}s",
    )


def test_criterion_05_parity_prng_distribution():
    bits = ecurve.parity_prng(1, 10_000)
    zero_fraction = float((bits == 0).mean())
    ok = abs(zero_fraction - 2 / 3) <= 0.03
    report(5, "parity generator zero fraction", ok, f"{zero_fraction:.4f} vs 2/3 +- 0.03")


def test_criterion_06_coin_flipping():
    sessions = 10_000
    trials = decided = heads = verified = 0
    tamper_rejected = 0
    keep_for_tamper = []
    for i in range(sessions):
        rng = derive_rng(MASTER_SEED, "acc6", i)
        result = coinflip.run_session(256, 3, 64, rng)
        trials += result.n_trials
        verified += result.verified.ok
        if result.verdict in (coinflip.HEADS, coinflip.TAILS):
            decided += 1
            heads += result.verdict == coinflip.HEADS
        if len(keep_for_tamper) < 100:
            keep_for_tamper.append(result.session)
    for j, session in enumerate(keep_for_tamper):
        mode = j % 3
        if mode == 0:
            doctored = session.commitment.values.copy()
            doctored[(j % (session.m - 1)) + 1] += 1
            session.commitment = coinflip.ZetaCoeffs(session.m, doctored)
        elif mode == 1 and session.rounds:
            trial = session.rounds[-1]
            flipped = (1 - trial.parities[0], trial.parities[1]) if trial.parities else (1, 1)
            session.rounds[-1] = coinflip.Trial(trial.p, trial.p_prime, flipped, trial.verdict)
        else:
            session.curve = ecurve.Curve(session.curve.a, -session.curve.b) if session.curve.b else ecurve.Curve(session.curve.a + 1, session.curve.b)
        if not coinflip.bob_verify(session).ok:
            tamper_rejected += 1
    rate = decided / trials
    heads_fraction = heads / decided
    ok = (
        abs(rate - 4 / 9) <= 0.02
        and abs(heads_fraction - 0.5) <= 0.02
        and verified == sessions
        and tamper_rejected == len(keep_for_tamper)
    )
    report(
        6,
        "telephone coin flipping",
        ok,
        f"decision rate {rate:.4f} vs 4/9, heads {heads_fraction:.4f}, "
        f"verify {verified}/{sessions}, tampered rejected {tamper_rejected}/{len(keep_for_tamper)}",
    )


def test_criterion_07_walk_search_scaling():
    start = time.perf_counter()
    sizes = [16, 64, 256, 1024]
    points = qwalk.scaling_sweep(sizes)
    scaled = [point.p_star * math.log2(point.n_vertices) for point in points]
    floor_ok = all(c >= scaled[0] / 2 for c in scaled)
    cap_ok = True
    for point in points:
        graph = qwalk.torus_graph(point.n_vertices, marked={0})
        global_max = float(qwalk.success_probability_trace(graph, point.n_vertices).max())
        if point.p_star < 0.9 * global_max:
            cap_ok = False
    elapsed = time.perf_counter() - start
    ok = floor_ok and cap_ok and elapsed < 300.0
    report(
        7,
        "walk search scaling on torus grids",
        ok,
        f"p*·log2N = {['%.2f' % c for c in scaled]}, capped optimum within 10% of "
        f"global, {elapsed:.1f}s",
    )


def test_criterion_08_bounded_storage_eavesdropper():
    source = broadcast.BroadcastSource(seed=1234, bitrate=1e6)
    target = broadcast.Receiver("target", 0.0, Clock(0.0))
    span = 2048

    def run_trials(length, fraction, trials, label):
        start_index = (span - length) // 2
        window = broadcast.KeyWindow((start_index + 0.5) * source.bit_period_ns, length)
        known = np.empty(trials)
        full = 0
        for i in range(trials):
            rng = derive_rng(MASTER_SEED, "acc8", label, i)
            view = broadcast.eve_store(source, window, 0, span, fraction, rng)
            recovery = broadcast.eve_recover(view, source, target)
            known[i] = recovery.known_bits
            full += recovery.known_bits == length
        return known.mean(), full / trials

    ok = True
    details = []
    for fraction in (0.25, 0.5):
        _, full_rate = run_trials(8, fraction, 100_000, f"full{fraction}")
        expected = fraction**8
        sigma = math.sqrt(expected * (1 - expected) / 100_000)
        ok &= abs(full_rate - expected) <= 3 * sigma
        details.append(f"f={fraction}: rate {full_rate:.2e} vs {expected:.2e}")
    for fraction in (0.25, 0.5):
        mean_known, _ = run_trials(128, fraction, 1000, f"mean{fraction}")
        sigma = math.sqrt(128 * fraction * (1 - fraction) / 1000)
        ok &= abs(mean_known - 128 * fraction) <= 3 * sigma
        details.append(f"mean {mean_known:.2f} vs {128 * fraction}")
    report(8, "bounded-storage eavesdropper", bool(ok), "; ".join(details))


def test_criterion_09_clock_synchronization():
    t_max = 1.6384e6
    hits = 0
    trials = 1000
    for i in range(trials):
        rng = derive_rng(MASTER_SEED, "acc9", i)
        true_delta = float(rng.uniform(-0.45, 0.45) * t_max)
        result = ticking_qubit_sync(true_delta, 14, t_max, 100, rng)
        if abs(result.delta_estimate_ns - true_delta) <= 100.0:
            hits += 1
    ok = hits / trials >= 0.99
    report(
        9,
        "clock sync hits 100 ns",
        ok,
        f"{hits}/{trials} trials within 100 ns at 14 bits x 100 shots",
    )


REPRO_CASES = {
    "teleport-demo": {"trials": "100"},
    "clocksync": {"trials": "20"},
    "dh": {},
    "pqdh": {"sessions": "2", "p_bits": "32"},
    "private": {"sessions": "2", "length_bits": "64"},
    "coinflip": {"sessions": "10"},
    "density": {"a": "0", "b": "-2", "x": "300"},
    "prng": {"bits": "300"},
    "qwalk-search": {"n": "16", "trials": "200"},
    "qwalk-sweep": {"sizes": "16,64"},
    "eve-bounded-storage": {"trials": "500"},
    "eve-qwalk": {"depth": "8"},
}


def test_criterion_10_reproducibility():
    ok = True
    broken = []
    for scenario, overrides in REPRO_CASES.items():
        first = cli.run(
            cli.build_config(scenario, overrides=overrides, master_seed=MASTER_SEED, workers=1)
        ).render()
        second = cli.run(
            cli.build_config(scenario, overrides=overrides, master_seed=MASTER_SEED, workers=1)
        ).render()
        fanned = cli.run(
            cli.build_config(scenario, overrides=overrides, master_seed=MASTER_SEED, workers=4)
        ).render()
        if not (first == second == fanned):
            ok = False
            broken.append(scenario)
    report(
        10,
        "byte-identical reports across runs and workers",
        ok,
        f"{len(REPRO_CASES)} scenarios" + (f", broken: {broken}" if broken else ""),
    )
