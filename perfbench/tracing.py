"""The traced run: per-layer metrics from spans around public functions.

The tracer swaps every public function of the package's modules, in
each module namespace that refers to it, for a wrapper that records a
span: name, start, end and the span that caused it.  The package itself
is not changed.  Spans stay in memory and are turned into per-layer
metrics when a traced pass ends.  Each workload is also run untraced
before and after its traced pass, and the ratio of the times is the
tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
from dataclasses import dataclass

from workloads import MC_CODE, MC_PAIR, NAMES, Workload, mc_seed

LAYERS = ("channel", "dist", "models", "mc", "oracle", "sweep", "cli")
# Private functions traced as well, because a work count needs them.
PRIVATE = ("oracle._pattern_flow",)
DIST_RECURSIONS = {
    "dist.marginal_error_distribution": "dist.marginal_ms",
    "dist.joint_error_distribution": "dist.joint_ms",
    "dist.sequential_joint_distribution": "dist.sequential_ms",
}
ORACLE_CALLS = {
    "oracle.exact_block_error": "oracle.block_error_s",
    "oracle.exact_packet_error": "oracle.packet_error_s",
    "oracle.exact_joint_law": "oracle.joint_law_s",
    "oracle.exact_marginal_law": "oracle.marginal_law_s",
}
# Spans whose arguments and result are kept, for re-timing and counts.
KEEP = (
    *DIST_RECURSIONS, "models.evaluate_models", "mc.simulate_packets", "oracle._pattern_flow",
)
STREAM_BITS = 1_000_000
STREAM_REPEATS = 5


@dataclass(eq=False)
class Span:
    name: str  # "<layer>.<function>"
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    args: tuple = ((), {})
    result: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that traces the package's public functions."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"burstfec.{layer}") for layer in LAYERS}
        self.package = importlib.import_module("burstfec")
        self.spans: list[Span] = []
        self.originals: dict[str, object] = {}  # span name -> unwrapped function
        self._local = threading.local()
        self._patches: list = []

    def targets(self) -> dict:
        """Span name -> function, for every function the tracer wraps."""
        found = {}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    found[f"{layer}.{attr}"] = obj
        for name in PRIVATE:
            layer, attr = name.split(".")
            if hasattr(self.modules[layer], attr):
                found[name] = getattr(self.modules[layer], attr)
        return found

    def __enter__(self):
        self.originals = self.targets()
        self._patches = self.patch({
            fn: _wrap(name, fn, self.spans, self._local)
            for name, fn in self.originals.items()
        })
        return self

    def __exit__(self, *exc):
        unpatch(self._patches)

    def patch(self, replacements: dict) -> list:
        """Point every package reference to a key function at its value."""
        by_id = {id(fn): new for fn, new in replacements.items()}
        patches = []
        for module in (self.package, *self.modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in by_id:
                    patches.append((module, attr, obj))
                    setattr(module, attr, by_id[id(obj)])
        return patches


def unpatch(patches):
    for module, attr, obj in reversed(patches):
        setattr(module, attr, obj)


def _wrap(name, fn, spans, local):
    """``fn`` recording a Span into ``spans`` on each call."""
    keep = name in KEEP

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = local.__dict__.setdefault("stack", [])
        span = Span(name, stack[-1] if stack else None)
        if keep:
            span.args = (args, kwargs)
        spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if keep:
            span.result = result
        return result

    return traced


def self_seconds(span: Span, children: dict) -> float:
    """Span time less the time of the first spans below it in other layers."""
    return span.seconds - _foreign_seconds(span, children)


def _foreign_seconds(span, children):
    total = 0.0
    for child in children.get(span, ()):
        if child.layer == span.layer:
            total += _foreign_seconds(child, children)
        else:
            total += child.seconds
    return total


def _children(spans):
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return children


def _named(spans, name):
    return [span for span in spans if span.name == name]


def _ancestor(span, name):
    parent = span.parent
    while parent is not None and parent.name != name:
        parent = parent.parent
    return parent


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def analytic_metrics(tracer: Tracer, files: dict) -> dict:
    """Per-layer metrics of one traced analytic-grid pass."""
    spans = tracer.spans
    children = _children(spans)
    evaluate = [s.seconds * 1e3 for s in _named(spans, "models.evaluate_models")]
    metrics = {
        "channel.ibp_from_stats_us": 1e6 * statistics.median(
            s.seconds for s in _named(spans, "channel.ibp_from_stats")
        ),
        "dist.calls": sum(len(_named(spans, name)) for name in DIST_RECURSIONS),
        "models.evaluate_ms.p50": percentile(evaluate, 50),
        "models.evaluate_ms.p95": percentile(evaluate, 95),
    }
    for name, metric in DIST_RECURSIONS.items():
        metrics[metric] = 1e3 * sum(s.seconds for s in _named(spans, name))
    metrics["models.chain_ms"] = 1e3 * chain_seconds(tracer)
    metrics["sweep.emit_ms"] = 1e3 * sum(s.seconds for s in _named(spans, "sweep.emit_results"))
    metrics["sweep.bytes_written"] = sum(len(blob) for blob in files.values())
    metrics["sweep.self_s"] = sum(
        self_seconds(s, children) for s in _named(spans, "sweep.run_sweep")
    )
    metrics["cli.self_ms"] = 1e3 * sum(self_seconds(s, children) for s in _named(spans, "cli.main"))
    return metrics


def chain_seconds(tracer: Tracer) -> float:
    """Time of evaluate_models less its count recursions.

    Each traced evaluate_models call is re-run untraced on the same
    inputs, with the dist recursions answering at once from the results
    they returned in the traced pass.  What is left is the chain stage:
    the codeword processes, absorbing chains and block-to-packet lift.
    """
    answers = {}
    for s in tracer.spans:
        if s.name in DIST_RECURSIONS:
            caller = _ancestor(s, "models.evaluate_models")
            answers.setdefault(caller, []).append((s.name, s.result))
    total = 0.0
    for span in _named(tracer.spans, "models.evaluate_models"):
        replay = iter(answers.get(span, ()))

        def recorded(name):
            def answer(*args, **kwargs):
                called, result = next(replay)
                if called != name:
                    raise RuntimeError(f"replay expected {called}, got {name}")
                return result
            return answer

        patches = tracer.patch({tracer.originals[n]: recorded(n) for n in DIST_RECURSIONS})
        try:
            args, kwargs = span.args
            start = time.perf_counter()
            tracer.originals["models.evaluate_models"](*args, **kwargs)
            total += time.perf_counter() - start
        finally:
            unpatch(patches)
        if next(replay, None) is not None:
            raise RuntimeError("replay left recorded dist results unused")
    return total


def mc_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced mc-compare pass."""
    metrics = {"mc.bits_simulated": 0, "mc.losses": 0}
    for span in _named(tracer.spans, "mc.simulate_packets"):
        cfg = span.args[0][0]
        name = f"mc.simulate_s.pE{cfg.channel.ber:g}.c{cfg.channel.nacf:g}"
        metrics[name] = metrics.get(name, 0.0) + span.seconds
        metrics["mc.bits_simulated"] += cfg.packets * cfg.scheme.packet_bits(cfg.code.n)
        metrics["mc.losses"] += span.result.losses
    return metrics


def oracle_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced exact-oracle pass."""
    metrics = {
        metric: sum(s.seconds for s in _named(tracer.spans, name))
        for name, metric in ORACLE_CALLS.items()
    }
    patterns = 0
    for span in _named(tracer.spans, "oracle._pattern_flow"):
        args, kwargs = span.args  # _pattern_flow(model, slots)
        patterns += 2 ** (kwargs["slots"] if "slots" in kwargs else args[1])
    metrics["oracle.patterns"] = patterns
    return metrics


def mc_probes(seed: int, packets: int):
    """Direct Monte Carlo calls: stream cost and two-worker speedup.

    Returns (metrics, failures).  The two worker counts must give the
    same loss count, since the RNG partition does not depend on them.
    """
    from burstfec.channel import ChannelSpec, CodeSpec, SchemeSpec
    from burstfec.mc import SimConfig, dar1_stream, simulate_packets

    failures = []
    channel = ChannelSpec(ber=0.02, nacf=0.9)
    stream_ms = []
    for repeat in range(STREAM_REPEATS):
        start = time.perf_counter()
        bits = dar1_stream(channel, STREAM_BITS, seed + repeat)
        stream_ms.append(1e3 * (time.perf_counter() - start))
        # Lag-k correlation c**k inflates the variance of the mean by (1+c)/(1-c).
        inflation = (1 + channel.nacf) / (1 - channel.nacf)
        se = (channel.ber * (1 - channel.ber) * inflation / STREAM_BITS) ** 0.5
        if abs(bits.mean() - channel.ber) > 4 * se:
            failures.append(f"dar1_stream mean {bits.mean():.5f} is off p_E {channel.ber}")
    cfg = SimConfig(
        channel=channel, code=CodeSpec(*MC_CODE), scheme=SchemeSpec(*MC_PAIR),
        packets=packets, seed=mc_seed(seed),
    )
    seconds, losses = {}, {}
    for workers in (1, 2):
        start = time.perf_counter()
        losses[workers] = simulate_packets(cfg, workers=workers).losses
        seconds[workers] = time.perf_counter() - start
    if losses[1] != losses[2]:
        failures.append(f"losses differ by worker count: {losses}")
    metrics = {
        "mc.stream_ms_per_mbit": statistics.median(stream_ms) * 1e6 / STREAM_BITS,
        "mc.workers2_speedup": seconds[1] / seconds[2],
    }
    return metrics, failures


def span_cost_us(calls: int = 20_000) -> float:
    """Cost of one traced call of an empty function, in microseconds."""
    empty = _wrap("probe.empty", lambda: None, [], threading.local())
    start = time.perf_counter()
    for _ in range(calls):
        empty()
    return 1e6 * (time.perf_counter() - start) / calls


def traced_run(main_module, seed: int, packets: int):
    """Every workload once traced, between two untraced passes, plus probes.

    Returns (metrics, verdicts of every pass, failures of the probes).
    """
    metrics, verdicts = {}, []
    for name in NAMES:
        workload = Workload(name, seed, packets=packets)
        before = workload.run(main_module.main)
        with Tracer() as tracer:
            traced = workload.run(main_module.main)
        after = workload.run(main_module.main)
        verdicts += [workload.check(done) for done in (before, traced, after)]
        untraced = statistics.mean((before.seconds, after.seconds))
        metrics[f"trace.overhead.{name}"] = traced.seconds / untraced
        if name == "analytic-grid":
            metrics.update(analytic_metrics(tracer, traced.files))
        elif name == "mc-compare":
            metrics.update(mc_metrics(tracer))
        else:
            metrics.update(oracle_metrics(tracer))
    probe_metrics, probe_failures = mc_probes(seed, packets)
    metrics.update(probe_metrics)
    metrics["trace.span_cost_us"] = span_cost_us()
    return metrics, verdicts, probe_failures
