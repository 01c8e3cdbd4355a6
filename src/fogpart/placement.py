"""Deadline-ordered service placement: one loop, three candidate orders.

``run_placement`` walks the applications by ascending deadline
(``sort_applications``) and each application's services in topological
order. Every service goes to the first device of a candidate order that
passes ``placement_valid`` (``place_service``). Each application's plan is
its assignment alone; ``simulator.run`` times it. The topology is only read:
the run keeps what is left of each device in its own ``Residual`` records,
keyed by device id. The strategies differ only in the order they offer:

- ``first_fit``: every device, by ascending id;
- ``connectivity_greedy``: the members, ascending, of the network partition
  with the most ``residual_units`` when the application arrives. The run
  keeps one sum per partition and re-sums only the partition each
  application placed in, the only one whose residuals changed;
- ``multilayer``: feature partitions by descending fitness
  (``rank_feature_partitions``, a weighted mix of ``demand_similarity`` and
  the user-proximity term from ``app_tables``), each partition's devices by
  ascending transmission time from the application's gateway, skipping devices
  outside the network partition anchored by the application's first placed
  service.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import (
    Application,
    Device,
    PlacementPlan,
    Service,
    Topology,
    response_times,  # noqa: F401  unused here: only bench/tracing.py reads it, by name
    sum_in_order,
)
from .partitioner import FeaturePartitionSet, FeatureTriplet, PartitionSet

STRATEGIES = ("multilayer", "first_fit", "connectivity_greedy")

DIMENSIONS = ("cpu", "mem", "storage")


@dataclass
class Residual:
    """What a run has left of one device; ``cores`` doubles as free service slots."""

    cores: int
    mem: float
    storage: float


def placement_valid(service: Service, device: Device, left: Residual, deadline_ms: float) -> bool:
    """Admission predicate for hosting ``service`` on ``device``.

    The CPU term compares the raw workload/speed ratio against the deadline,
    exactly as the placement rule states it; the ms conversion belongs to
    ``execution_time`` only. Memory, storage, and one free core must be
    ``left`` on the device.
    """
    return (
        left.cores >= 1
        and service.workload / device.cpu_speed <= deadline_ms
        and service.mem_demand <= left.mem
        and service.storage_demand <= left.storage
    )


def normalization_ranges(
    devices: Iterable[Device], apps: Iterable[Application]
) -> dict[str, tuple[float, float]]:
    """Scenario-global min/max per dimension over device resources and demands.

    One shared range per dimension keeps similarity scores comparable
    across feature partitions.
    """
    cpu: list[float] = []
    mem: list[float] = []
    storage: list[float] = []
    for d in devices:
        cpu.append(d.cpu_speed)
        mem.append(d.mem)
        storage.append(d.storage)
    for app in apps:
        for s in app.services:
            cpu.append(s.workload)
            mem.append(s.mem_demand)
            storage.append(s.storage_demand)
    if not cpu:
        raise ValueError("cannot derive normalization ranges from empty inputs")
    return {
        "cpu": (min(cpu), max(cpu)),
        "mem": (min(mem), max(mem)),
        "storage": (min(storage), max(storage)),
    }


def demand_similarity(
    feature: FeatureTriplet,
    service: Service,
    ranges: Mapping[str, tuple[float, float]],
) -> float:
    """Similarity in [0, 1] between a partition feature and a service demand.

    Both triplets are min-max scaled per dimension; dimensions whose range
    is degenerate are skipped. The euclidean distance over the k active
    dimensions is normalized by sqrt(k), so identical scaled triplets score
    1 and maximally distant ones score 0.
    """
    feat = feature.as_tuple()
    dem = (service.workload, service.mem_demand, service.storage_demand)
    squared = 0.0
    active = 0
    for dim, f, s in zip(DIMENSIONS, feat, dem):
        lo, hi = ranges.get(dim, (0.0, 0.0))
        if hi <= lo:
            continue
        span = hi - lo
        squared += ((f - lo) / span - (s - lo) / span) ** 2
        active += 1
    if active == 0:
        return 1.0
    return 1.0 - math.sqrt(squared) / math.sqrt(active)


def app_tables(
    fps: FeaturePartitionSet,
    times: Mapping[int, float],
    beta: float,
) -> tuple[dict[int, list[int]], dict[int, float | None]]:
    """Device order and proximity term of every feature partition for one application.

    ``times`` is ``Topology.transmission_times`` of the application's entry
    message from its gateway; it does not depend on the service, so
    ``run_placement`` builds these tables once per application. Each
    partition's devices are listed ascending by (T, id), where T is the
    device's transmission time (inf when unreachable): sorted by id, then
    stably by T, which gives that order without a (T, id) tuple per device.
    The proximity term is beta / (1 + T_min), or None for a partition with
    no reachable device.
    """
    t_of = defaultdict(lambda: math.inf, times).__getitem__  # a copy; inf where unreachable
    d_matrix: dict[int, list[int]] = {}
    terms: dict[int, float | None] = {}
    for fp_id in fps.ids():
        row = d_matrix[fp_id] = sorted(fps.device_index[fp_id])
        row.sort(key=t_of)
        t_min = t_of(row[0]) if row else math.inf
        terms[fp_id] = None if math.isinf(t_min) else beta / (1.0 + t_min)
    return d_matrix, terms


def rank_feature_partitions(
    fps: FeaturePartitionSet,
    service: Service,
    proximities: Mapping[int, float | None],
    alpha: float,
    ranges: Mapping[str, tuple[float, float]],
) -> list[int]:
    """All feature partition ids, descending fitness, ties by id ascending.

    A partition's fitness is alpha times the best ``demand_similarity`` of
    its members' feature triplets to ``service``, plus its proximity term
    from ``app_tables`` unless that term is None.
    """
    scored = []
    for fp_id in fps.ids():
        max_sim = max(
            demand_similarity(fps.features[node], service, ranges)
            for node in fps.feature_partitions[fp_id]
        )
        term = proximities[fp_id]
        score = alpha * max_sim if term is None else alpha * max_sim + term
        scored.append((-score, fp_id))
    scored.sort()
    return [fp_id for _, fp_id in scored]


def residual_units(members: Iterable[int], residuals: Mapping[int, Residual]) -> float:
    """Residual units of a network partition's ``members``, summed in their iteration order.

    A device's residual units are the largest of its residual cores, GB and
    TB (the 1 core, 1 GB, 1 TB unit scale).
    """
    return sum_in_order(
        max(float(left.cores), left.mem, left.storage) for left in map(residuals.__getitem__, members)
    )


def sort_applications(apps: Iterable[Application]) -> list[Application]:
    """Ascending deadline, ties broken by application id ascending (stable)."""
    return sorted(apps, key=lambda a: (a.deadline, a.id))


def place_service(
    service: Service,
    candidates: Iterable[int],
    deadline_ms: float,
    devices: Mapping[int, Device],
    residuals: Mapping[int, Residual],
) -> int | None:
    """The admission scan shared by every strategy.

    Walks ``candidates`` in order and commits ``service`` to the first
    device that passes ``placement_valid`` against the app deadline, taking
    one core and the service's memory and storage from its residual record.
    Returns that device id, or None when no candidate admits the service.
    """
    for did in candidates:
        left = residuals[did]
        if placement_valid(service, devices[did], left, deadline_ms):
            left.cores -= 1
            left.mem -= service.mem_demand
            left.storage -= service.storage_demand
            return did
    return None


def run_placement(
    instances: Sequence[Application],
    topology: Topology,
    strategy: str,
    feature_partitions: FeaturePartitionSet | None = None,
    network: PartitionSet | None = None,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> dict[int, PlacementPlan]:
    """Each application instance's plan, placed in deadline order by one strategy.

    Only the run's own residual records change, so strategies can be
    compared on one ``topology``. The multilayer strategy routes from each
    application's gateway once (``Topology.transmission_times``) and keeps
    those times only while it builds the application's ``app_tables``; the
    baselines route nothing. connectivity_greedy keeps each network
    partition's ``residual_units`` and re-sums, after each application, only
    the partition it placed in. Nothing is timed: a plan is its assignment,
    and ``simulator.run`` computes its response times. Each application must
    be an instance whose ``gateway`` is a device of ``topology``
    (``Scenario.instances`` checks this). Raises
    ValueError for an unknown strategy, a negative weight or two zero
    weights, or missing partitions.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if alpha < 0 or beta < 0 or alpha + beta <= 0:
        raise ValueError("alpha and beta must be non-negative with a positive sum")
    if (strategy != "first_fit" and network is None) or (
        strategy == "multilayer" and feature_partitions is None
    ):
        raise ValueError(f"{strategy} strategy requires partitioning results")
    devices = topology.devices
    residuals = {did: Residual(d.cores, d.mem, d.storage) for did, d in devices.items()}
    ordered = sort_applications(instances)
    ranges = normalization_ranges(devices.values(), ordered) if strategy == "multilayer" else {}
    order: Iterable[int] = sorted(devices)  # first_fit's candidates for the whole run
    if strategy == "connectivity_greedy":
        units = {pid: residual_units(members, residuals) for pid, members in network.partitions.items()}

    plans: dict[int, PlacementPlan] = {}
    for app in ordered:
        if strategy == "connectivity_greedy":
            # max keeps the first of equals, so ties go to the lowest partition id
            fullest = max(sorted(units), key=units.__getitem__)
            order = sorted(network.partitions[fullest])
        elif strategy == "multilayer":
            d_matrix, proximities = app_tables(
                feature_partitions,
                topology.transmission_times(app.gateway, app.entry_message.size),
                beta,
            )
        assignment: dict[int, int | None] = {}
        anchor: int | None = None  # network partition of the app's first placed service
        for sid in app.topological_order():
            service = app.service(sid)
            if strategy == "multilayer":
                ranked = rank_feature_partitions(
                    feature_partitions, service, proximities, alpha, ranges
                )
                order = (
                    did
                    for fp_id in ranked
                    for did in d_matrix[fp_id]
                    if anchor is None or network.assignment[did] == anchor
                )
            host = assignment[sid] = place_service(service, order, app.deadline, devices, residuals)
            if strategy == "multilayer" and anchor is None and host is not None:
                anchor = network.assignment[host]
        if strategy == "connectivity_greedy":
            units[fullest] = residual_units(network.partitions[fullest], residuals)
        plans[app.id] = PlacementPlan(assignment=assignment)

    return plans
