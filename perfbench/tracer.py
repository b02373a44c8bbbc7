"""Layer spans recorded from outside the library.

`Tracer.install` wraps every binding of every public function of the
`qkeylab` modules, including the bindings that from-imports create in other
modules (`teleport.apply_gate`, `clocksync.apply_gate` and `qstate.apply_gate`
are three names for one function, and all three are wrapped), plus the public
methods of the classes those modules define. Each call records a span (name,
start, end, parent span, op id) in memory; `layer_metrics` reduces the spans
and the counters taken from call arguments and results to the per-layer
metrics of the benchmark.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Dunder methods wrapped on purpose: building a StateVector validates its norm,
# and `qstate.statevector_inits` counts those validations.
_EXTRA_METHODS = (("qstate", "StateVector", "__post_init__"),)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, op_id)
        self.op_id = None  # set by the op loop; None outside ops (inputs, checks)
        self.counters: dict = defaultdict(int)
        self.zeta_keys: set = set()
        self.curves_by_b: dict = defaultdict(set)
        self._stack: list = []
        self._hooks = {
            "clocksync.ticking_qubit_sync": self._count_sync,
            "broadcast.bits_range": self._count_bits_range,
            "keyexchange.pq_dh": self._count_pq_dh,
            "ecurve.parity_density_scan": self._count_scan,
            "ecurve.parity_prng": self._count_prng,
            "ecurve.zeta_coefficients": self._count_zeta,
            "coinflip.alice_setup": self._count_setup,
            "coinflip.run_trial": self._count_trial,
            "qwalk.step": self._count_step,
        }

    # -- counters taken where the work happens -----------------------------------

    def _count_sync(self, args, kwargs, result):
        self.counters["clocksync.shots"] += result.qubits_used

    def _count_bits_range(self, args, kwargs, result):
        _, start, length = args
        self.counters["broadcast.sha_blocks"] += ((start + length - 1) >> 8) - (start >> 8) + 1
        self.counters["broadcast.bits_returned"] += length

    def _count_pq_dh(self, args, kwargs, result):
        self.counters["keyexchange.window_retries"] += result.window_retries
        self.counters["keyexchange.flip_retries"] += result.flip_retries

    def _count_scan(self, args, kwargs, result):
        self.counters["ecurve.primes_scanned"] += result.primes_scanned

    def _count_prng(self, args, kwargs, result):
        self.counters["ecurve.prng_bits"] += len(result)

    def _count_zeta(self, args, kwargs, result):
        curve = args[0]
        self.zeta_keys.add((curve.a, curve.b, result.m))

    def _count_setup(self, args, kwargs, result):
        self.curves_by_b[result.B].add((result.curve.a, result.curve.b))

    def _count_trial(self, args, kwargs, result):
        # coinflip.HEADS / coinflip.TAILS
        self.counters["coinflip.decided_rounds"] += result.verdict in ("heads", "tails")

    def _count_step(self, args, kwargs, result):
        self.counters["qwalk.arc_updates"] += args[1].n_arcs

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every binding of the package's public functions and methods."""
        modules = [m for m in vars(package).values() if inspect.ismodule(m)]
        prefix = package.__name__ + "."
        wrapped = {}  # id(original) -> wrapper
        for module in modules:
            short = module.__name__[len(prefix):]
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapped[id(value)] = self._wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for method, fn in list(vars(value).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            setattr(value, method, self._wrap(f"{short}.{attr}.{method}", fn))
        for short, cls, method in _EXTRA_METHODS:
            owner = getattr(getattr(package, short), cls)
            setattr(owner, method, self._wrap(f"{short}.{cls}.{method}", vars(owner)[method]))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(module, attr, wrapped[id(value)])

    # -- reduction -------------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, self time and inclusive time in ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start - children
            entry[2] += end - start
        return out

    def covered_ns(self) -> int:
        """Op time covered by top-level layer spans (spans inside ops only)."""
        return sum(
            end - start
            for _, start, end, parent, op_id in self.spans
            if parent < 0 and op_id is not None
        )

    def counts(self) -> dict:
        counts = dict(self.counters)
        counts["ecurve.zeta_distinct"] = len(self.zeta_keys)
        for b_value, curves in self.curves_by_b.items():
            counts[f"coinflip.distinct_curves.B{b_value}"] = len(curves)
        return counts

    def write_spans(self, path):
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top_id\n")
            for name, start, end, parent, op_id in self.spans:
                op = "-" if op_id is None else op_id
                out.write(f"{name}\t{start}\t{end}\t{parent}\t{op}\n")


# (span name, reported fields); the span name is the metric prefix
_SPAN_METRICS = (
    ("qstate.apply_gate", ("calls", "self_s")),
    ("qstate.measure_qubit", ("calls", "self_s")),
    ("qstate.measurement_probabilities", ("calls", "self_s")),
    ("teleport.teleport_state", ("calls", "self_s")),
    ("teleport.teleport_index", ("calls", "self_s")),
    ("clocksync.ticking_qubit_sync", ("calls", "self_s")),
    ("broadcast.bits_range", ("calls", "self_s")),
    ("broadcast.eve_store", ("calls", "self_s")),
    ("broadcast.eve_recover", ("calls", "self_s")),
    ("keyexchange.pq_dh", ("self_s",)),
    ("keyexchange.private_exchange", ("self_s",)),
    ("keyexchange.modexp", ("calls", "self_s")),
    ("numtheory.random_prime", ("calls", "self_s")),
    ("numtheory.is_probable_prime", ("calls", "self_s")),
    ("numtheory.primes_up_to", ("calls", "self_s")),
    ("numtheory.smallest_prime_factors", ("calls", "self_s")),
    ("ecurve.parity_density_scan", ("self_s",)),
    ("ecurve.parity_prng", ("calls", "self_s")),
    ("ecurve.zeta_coefficients", ("calls", "self_s")),
    ("ecurve.prime_coefficient", ("calls", "self_s")),
    ("ecurve.splitting_degree", ("calls", "self_s")),
    ("coinflip.alice_setup", ("calls", "self_s")),
    ("coinflip.run_trial", ("calls", "self_s")),
    ("coinflip.bob_verify", ("calls", "self_s")),
    ("qwalk.step", ("calls", "self_s")),
    ("qwalk.torus_graph", ("calls", "self_s")),
    ("qwalk.success_probability_trace", ("self_s",)),
    ("seeds.derive_seed", ("calls", "self_s")),
    ("seeds.derive_rng", ("calls", "self_s")),
    ("transcript.Transcript.add", ("calls", "self_s")),
)

_COUNT_METRICS = (
    "clocksync.shots",
    "broadcast.sha_blocks",
    "keyexchange.window_retries",
    "keyexchange.flip_retries",
    "ecurve.primes_scanned",
    "ecurve.prng_bits",
    "qwalk.arc_updates",
    "coinflip.distinct_curves.B256",
    "coinflip.distinct_curves.B4096",
)


def _units() -> dict:
    units = {}
    for span, fields in _SPAN_METRICS:
        for field in fields:
            units[f"{span}.{field}"] = "count" if field == "calls" else "s"
    units["qstate.statevector_inits"] = "count"
    units.update((name, "count") for name in _COUNT_METRICS)
    units.update(
        {
            "teleport.us_per_qubit": "us",
            "broadcast.block_use_ratio": "ratio",
            "ecurve.us_per_scanned_prime": "us",
            "ecurve.zeta_reuse_ratio": "ratio",
            "coinflip.decided_per_round": "ratio",
            "qwalk.ns_per_arc_update": "ns",
            "trace.coverage": "ratio",
            "trace.overhead": "ratio",
        }
    )
    return units


# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = _units()


def _ratio(numerator, denominator) -> float:
    # A layer the workload never enters reports 0 for its ratios.
    return numerator / denominator if denominator else 0.0


def layer_metrics(aggregate: dict, counts: dict, coverage: float, overhead: float) -> dict:
    """Per-layer metric values keyed by the names in PER_LAYER_UNITS."""

    def calls(span):
        return aggregate.get(span, (0, 0, 0))[0]

    def self_s(span):
        return aggregate.get(span, (0, 0, 0))[1] / 1e9

    values = {}
    for span, fields in _SPAN_METRICS:
        for field in fields:
            values[f"{span}.{field}"] = calls(span) if field == "calls" else self_s(span)
    values["qstate.statevector_inits"] = calls("qstate.StateVector.__post_init__")
    for name in _COUNT_METRICS:
        values[name] = counts.get(name, 0)
    teleport_incl_ns = aggregate.get("teleport.teleport_state", (0, 0, 0))[2]
    values["teleport.us_per_qubit"] = _ratio(teleport_incl_ns / 1e3, calls("teleport.teleport_state"))
    values["broadcast.block_use_ratio"] = _ratio(
        counts.get("broadcast.bits_returned", 0), 256 * counts.get("broadcast.sha_blocks", 0)
    )
    values["ecurve.us_per_scanned_prime"] = _ratio(
        self_s("ecurve.parity_density_scan") * 1e6, counts.get("ecurve.primes_scanned", 0)
    )
    zeta_calls = calls("ecurve.zeta_coefficients")
    values["ecurve.zeta_reuse_ratio"] = (
        1.0 - _ratio(counts.get("ecurve.zeta_distinct", 0), zeta_calls) if zeta_calls else 0.0
    )
    values["coinflip.decided_per_round"] = _ratio(
        counts.get("coinflip.decided_rounds", 0), calls("coinflip.run_trial")
    )
    values["qwalk.ns_per_arc_update"] = _ratio(
        self_s("qwalk.step") * 1e9, counts.get("qwalk.arc_updates", 0)
    )
    values["trace.coverage"] = coverage
    values["trace.overhead"] = overhead
    return values
