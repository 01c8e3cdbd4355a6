"""Evaluation metrics: placement success, resource wastage, deadline satisfaction, hops.

Resource accounting uses the unit basis of ``model.resource_units``: the
units of an entity are the largest of its cores, GB and TB, with every
service counting one core.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .model import Application, Device, PlacementPlan, Topology, resource_units, sum_in_order
from .serialize import dump_json, write_csv
from .simulator import SATISFIED, Tick


class ZeroServicesError(ValueError):
    """No services were requested, so a success ratio is undefined."""


def placement_success_rate(plans: Iterable[PlacementPlan]) -> float:
    """Placed services over requested services, across all plans."""
    placed = 0
    total = 0
    for plan in plans:
        total += len(plan.assignment)
        placed += sum(1 for d in plan.assignment.values() if d is not None)
    if total == 0:
        raise ZeroServicesError("no services requested")
    return placed / total


def resource_wastage(
    placements: Iterable[tuple[Application, PlacementPlan]],
    devices: Iterable[Device],
) -> float:
    """1 - consumed units / offered units; all devices count in the denominator."""
    consumed = 0.0
    for app, plan in placements:
        for sid, device_id in plan.assignment.items():
            if device_id is None:
                continue
            s = app.service(sid)
            consumed += resource_units(1, s.mem_demand, s.storage_demand)
    offered = sum_in_order(resource_units(d.cores, d.mem, d.storage) for d in devices)
    if offered <= 0:
        raise ValueError("infrastructure offers no resource units")
    return 1.0 - consumed / offered


def cumulative_series(ticks: Iterable[Tick]) -> tuple[list[tuple[float, int, int, float]], Counter[str]]:
    """Rows (time_s, requests, satisfied, cumulative_ratio), one per tick, and requests per status.

    A tick with the previous tick's id tuple and verdict map (the same
    objects, see ``Tick``) reuses its counts.
    """
    rows: list[tuple[float, int, int, float]] = []
    tally: Counter[str] = Counter()
    requests = 0
    ids = verdicts = counts = None
    for tick in ticks:
        if tick.request_ids is not ids or tick.verdicts is not verdicts:
            ids, verdicts = tick.request_ids, tick.verdicts
            counts = Counter(map(itemgetter(0), map(verdicts.__getitem__, ids)))
        tally.update(counts)
        requests += len(ids)
        rows.append((tick.time_s, requests, tally[SATISFIED], tally[SATISFIED] / requests))
    return rows, tally


def hop_histogram(
    placements: Iterable[tuple[Application, PlacementPlan]],
    topology: Topology,
) -> dict[int | str, int]:
    """Histogram of gateway-to-host hop counts over placed services.

    Each application instance is measured from its own ``gateway``, by one
    ``Topology.hop_counts`` search to all of its hosts; a service counts the
    hops of ``shortest_hop_path`` to its host. Unreachable hosts land in the
    dedicated "unreachable" bucket.
    """
    histogram: dict[int | str, int] = {}
    for app, plan in placements:
        hosts = [d for d in plan.assignment.values() if d is not None]
        hops = topology.hop_counts(app.gateway, hosts)
        for device_id in hosts:
            key: int | str = hops.get(device_id, "unreachable")
            histogram[key] = histogram.get(key, 0) + 1
    return histogram


REPORT_COLUMNS = (
    "run",
    "scenario",
    "strategy",
    "placement_success_rate",
    "resource_wastage",
    "deadline_satisfaction",
    "hop_mean",
    "hop_max",
    "unreachable_services",
)


def emit_report(rows: Sequence[Mapping[str, object]], out_dir: Path) -> list[Path]:
    """Write ``comparison.csv`` and ``report.json``; returns their paths.

    The CSV column order is fixed (REPORT_COLUMNS) and the JSON document is
    key-sorted, so reruns produce identical bytes.
    """
    table = ([row.get(col) for col in REPORT_COLUMNS] for row in rows)
    return [
        write_csv(Path(out_dir) / "comparison.csv", REPORT_COLUMNS, table),
        dump_json(Path(out_dir) / "report.json", {"schema_version": 1, "runs": list(rows)}),
    ]


def hop_summary(histogram: Mapping[int | str, int]) -> tuple[float | None, int | None, int]:
    """(mean, max, unreachable count) of a hop histogram."""
    unreachable = histogram.get("unreachable", 0)
    numeric = {k: v for k, v in histogram.items() if k != "unreachable"}
    total = sum(numeric.values())
    if total == 0:
        return None, None, unreachable
    mean = sum(k * v for k, v in numeric.items()) / total
    return mean, max(numeric), unreachable
