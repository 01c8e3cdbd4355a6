"""In-memory spans and counters recorded around fogpart's public functions.

Nothing under ``src/`` knows about tracing: ``install`` replaces module
attributes of an already imported ``fogpart`` with wrappers that open a
span (name, start, end, parent) or bump a counter, so a traced chain runs
exactly the program code an untraced chain runs, plus the wrappers.

Functions called tens of thousands of times per chain (route queries,
response-time evaluations) get aggregate counters instead of one span
per call, which keeps the trace small and the overhead low.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        # route_distinct counts distinct (src, dst, dead set) queries per
        # CLI command; dead sets are interned so each is stored once
        self._routes_seen: set[tuple[int, int, int]] = set()
        self._dead_ids: dict[frozenset, int] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def new_command(self) -> None:
        self._routes_seen.clear()
        self._dead_ids.clear()

    def route_query(self, src: int, dst: int, dead) -> None:
        dead_key = dead if isinstance(dead, frozenset) else frozenset(dead)
        dead_id = self._dead_ids.setdefault(dead_key, len(self._dead_ids))
        key = (src, dst, dead_id)
        if key not in self._routes_seen:
            self._routes_seen.add(key)
            self.counts["model.route_distinct"] += 1

    def span_totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self, prefix: str) -> dict[str, float]:
        """Per-name duration minus direct children, for spans named ``prefix*``."""
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            if name.startswith(prefix):
                out[name] += (end - start) - child_time[idx]
        return out


def _wrap_span(tracer: Tracer, owner, attr: str, name, on_result=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(result)
        return result

    setattr(owner, attr, wrapper)


def _wrap_counter(tracer: Tracer, owner, attr: str, counts: tuple[str, ...], total: str, on_call=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.totals[total] += time.perf_counter() - start
            for name in counts:
                tracer.counts[name] += 1

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions ``fogpart.cli`` and the layers call."""
    from fogpart import cli, model, partitioner, placement, simulator

    counts = tracer.counts

    def on_scenario(scenario) -> None:
        counts["scenario.schedule_events"] += len(scenario.schedule)

    def on_multilayer(graph) -> None:
        counts["multilayer.edges"] += sum(len(e) for e in graph.intra_edges.values())

    def on_louvain(ps) -> None:
        counts["partitioner.louvain_calls"] += 1
        tracer.totals[f"partitioner.q_{ps.layer.name.lower()}"] = ps.modularity

    def on_feature(fps) -> None:
        counts["partitioner.feature_partitions"] += len(fps.feature_partitions)
        tracer.totals["partitioner.q_feature"] = fps.modularity

    def on_simulation(result) -> None:
        counts["simulator.requests"] += len(result.outcomes)
        counts["simulator.epochs"] += len(result.deaths) + 1

    _wrap_span(tracer, cli, "generate_scenario", "scenario.generate", on_scenario)
    _wrap_span(tracer, cli, "scenario_to_dict", "serialize.scenario_to_dict")
    _wrap_span(tracer, cli, "scenario_from_dict", "serialize.scenario_from_dict")
    _wrap_span(tracer, cli, "partitions_to_dict", "serialize.partitions_to_dict")
    _wrap_span(tracer, cli, "partitions_from_dict", "serialize.partitions_from_dict")
    _wrap_span(tracer, cli, "plans_to_dict", "serialize.plans_to_dict")
    _wrap_span(tracer, cli, "plans_from_dict", "serialize.plans_from_dict")
    _wrap_span(tracer, cli, "load_json", "serialize.load")
    _wrap_span(tracer, cli, "dump_json", "serialize.dump")
    _wrap_span(tracer, cli, "write_csv", "serialize.dump")
    _wrap_span(tracer, cli, "build_multilayer", "multilayer.build", on_multilayer)
    _wrap_span(tracer, cli, "multilayer_resource_partition", "partitioner.pipeline")
    _wrap_span(tracer, partitioner, "louvain_partition", "partitioner.louvain", on_louvain)
    _wrap_span(tracer, partitioner, "compress_graph", "partitioner.compress")
    _wrap_span(tracer, partitioner, "feature_partition", "partitioner.feature", on_feature)
    _wrap_span(
        tracer, cli, "run_placement",
        lambda args, kwargs: "placement." + kwargs["strategy"],
    )
    _wrap_span(
        tracer, simulator, "run",
        lambda args, kwargs: "simulator.run." + kwargs["mode"],
        on_simulation,
    )
    _wrap_span(tracer, cli, "cumulative_series", "metrics.cumulative_series")
    _wrap_span(tracer, cli, "hop_histogram", "metrics.hop_histogram")
    _wrap_span(tracer, cli, "emit_report", "metrics.emit_report")

    def on_route(self, src, dst, dead=frozenset()) -> None:
        tracer.route_query(src, dst, dead)

    _wrap_counter(
        tracer, model.Topology, "shortest_hop_path",
        ("model.route_queries",), "model.route_s", on_route,
    )
    _wrap_counter(
        tracer, placement, "response_times",
        ("model.response_times_calls",), "model.response_times_s",
    )
    _wrap_counter(
        tracer, simulator, "response_times",
        ("model.response_times_calls", "simulator.rt_evaluations"), "model.response_times_s",
    )
