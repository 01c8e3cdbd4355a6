"""Deadline-ordered service placement: one admission scan, three candidate orders.

Every strategy places an application's services in topological order, and
each service goes to the first device of a candidate order that passes
``placement_valid`` (``place_service``). The strategies differ only in the
order they offer:

- ``first_fit``: every device, by ascending id;
- ``connectivity_greedy``: the members, ascending, of the network partition
  with the most residual units when the application arrives;
- ``multilayer``: feature partitions by descending fitness (a weighted mix of
  demand similarity and user proximity), each partition's devices by
  ascending transmission time, skipping devices outside the network
  partition anchored by the application's first placed service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Mapping, Sequence

from .model import (
    Application,
    Device,
    PlacementPlan,
    Service,
    Topology,
    UnreachableError,
    User,
    placement_valid,
    response_times,
)
from .partitioner import FeaturePartitionSet, FeatureTriplet, PartitionSet

STRATEGIES = ("multilayer", "first_fit", "connectivity_greedy")

DIMENSIONS = ("cpu", "mem", "storage")


@dataclass(frozen=True)
class FitnessConfig:
    """Weights and normalization ranges for the fitness score."""

    alpha: float = 0.5
    beta: float = 0.5
    normalization_ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("fitness weights must be non-negative")
        if self.alpha + self.beta <= 0:
            raise ValueError("at least one fitness weight must be positive")


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


class PlacementContext:
    """Shared state for one partition-aware placement run.

    Owns the mutable residual device copies, whose residuals
    ``place_service`` decrements as it admits services, and one route table
    per gateway. A gateway's table comes from a single
    ``Topology.routes_from`` BFS the first time the gateway is asked for,
    and then serves every transmission-time query from it for the rest of
    the run. The anchor rule reads network partitions from
    ``network.assignment``.
    """

    def __init__(
        self,
        devices: Mapping[int, Device],
        topology: Topology,
        feature_partitions: FeaturePartitionSet,
        network: PartitionSet,
        users: Mapping[int, User],
        config: FitnessConfig,
    ) -> None:
        self.devices = devices
        self.topology = topology
        self.fps = feature_partitions
        self.network = network
        self.users = users
        self.config = config
        # gateway -> device -> (hops, latency sum, 1/bandwidth sum)
        self._routes: dict[int, dict[int, tuple[int, float, float]]] = {}

    def transmission_ms(self, gateway: int, device_id: int, size: float) -> float:
        """T from a gateway to a device for a message of ``size`` bytes; inf if unreachable."""
        routes = self._routes.get(gateway)
        if routes is None:
            routes = self._routes[gateway] = self.topology.routes_from(gateway)
        route = routes.get(device_id)
        if route is None:
            return math.inf
        _, lat_sum, inv_bw_sum = route
        return lat_sum + size * inv_bw_sum

    def device_rows(self, fp_id: int, gateway: int, size: float) -> list[tuple[float, int]]:
        """Alive devices of a feature partition as (T, device id), ascending.

        The first row's T is the partition's nearest-device time T_min;
        unreachable devices sort last with T = inf.
        """
        rows = [
            (self.transmission_ms(gateway, did, size), did)
            for did in self.fps.device_index[fp_id]
            if self.devices[did].alive
        ]
        rows.sort()
        return rows

    def app_tables(
        self, gateway: int, size: float
    ) -> tuple[dict[int, list[int]], dict[int, float | None]]:
        """Device matrix and proximity term of every feature partition.

        Both depend only on (fp, gateway, entry-message size), never on the
        service, so ``select_feature_partitions`` builds them once per
        application and ranks every service against them. The device
        matrix lists device ids ascending by (T, id). The proximity term is
        beta / (1 + T_min), or None for a partition with no reachable
        device.
        """
        d_matrix: dict[int, list[int]] = {}
        terms: dict[int, float | None] = {}
        for fp_id in self.fps.ids():
            rows = self.device_rows(fp_id, gateway, size)
            d_matrix[fp_id] = [did for _, did in rows]
            terms[fp_id] = _proximity(rows, self.config)
        return d_matrix, terms

    def rank_feature_partitions(
        self, service: Service, proximities: Mapping[int, float | None]
    ) -> list[int]:
        """All feature partition ids, descending fitness, ties by id ascending.

        ``proximities`` are the terms ``app_tables`` returns for the
        requesting user's gateway and entry-message size.
        """
        scored = [
            (-_score(fp_id, service, self.config, self, proximities[fp_id]), fp_id)
            for fp_id in self.fps.ids()
        ]
        scored.sort()
        return [fp_id for _, fp_id in scored]


def _proximity(rows: Sequence[tuple[float, int]], config: FitnessConfig) -> float | None:
    """beta / (1 + T_min) from a partition's sorted ``device_rows``.

    None when no device of the partition is reachable.
    """
    if not rows or math.isinf(rows[0][0]):
        return None
    return config.beta / (1.0 + rows[0][0])


def _score(
    fp_id: int,
    service: Service,
    config: FitnessConfig,
    ctx: PlacementContext,
    proximity_term: float | None,
) -> float:
    """alpha * best member similarity + the proximity term; None drops the term.

    Placement takes the proximity term from ``PlacementContext.app_tables``
    once per application and computes only the similarity term per service.
    """
    members = ctx.fps.feature_partitions[fp_id]
    max_sim = max(
        demand_similarity(ctx.fps.features[node], service, config.normalization_ranges)
        for node in members
    )
    if proximity_term is None:
        return config.alpha * max_sim
    return config.alpha * max_sim + proximity_term


def sort_applications(apps: Iterable[Application]) -> list[Application]:
    """Ascending deadline, ties broken by application id ascending (stable)."""
    return sorted(apps, key=lambda a: (a.deadline, a.id))


def place_service(
    service: Service,
    candidates: Iterable[int],
    deadline_ms: float,
    devices: Mapping[int, Device],
) -> int | None:
    """The admission scan shared by every strategy.

    Walks ``candidates`` in order and commits ``service`` to the first
    device that passes ``placement_valid`` against the app deadline, taking
    one core and the service's memory and storage from its residuals.
    Returns that device id, or None when no candidate admits the service.
    """
    for did in candidates:
        device = devices[did]
        if placement_valid(service, device, deadline_ms):
            device.residual_cores -= 1
            device.residual_mem -= service.mem_demand
            device.residual_storage -= service.storage_demand
            return did
    return None


def anchored_order(
    fp_rank: Sequence[int],
    d_matrix: Mapping[int, Sequence[int]],
    network: PartitionSet,
    anchor: int | None,
) -> Iterator[int]:
    """Multilayer candidate order: partitions by rank, then devices by T.

    Devices outside the anchor network partition are skipped; no anchor yet
    means the service being placed will define it.
    """
    for fp_id in fp_rank:
        for did in d_matrix[fp_id]:
            if anchor is None or network.assignment[did] == anchor:
                yield did


def select_feature_partitions(app: Application, ctx: PlacementContext) -> PlacementPlan:
    """Place every service of one application; failures become None entries.

    Services are walked in topological order so the entry service defines
    the anchor network partition. The device matrix and the proximity terms
    are built once for the application and shared by all its services.
    """
    if app.user is None or app.user not in ctx.users:
        raise ValueError(f"app {app.id}: requesting user unknown")
    gateway = ctx.users[app.user].gateway
    d_matrix, proximities = ctx.app_tables(gateway, app.entry_message.size)
    assignment: dict[int, int | None] = {}
    anchor: int | None = None
    for sid in app.topological_order():
        service = app.service(sid)
        fp_rank = ctx.rank_feature_partitions(service, proximities)
        order = anchored_order(fp_rank, d_matrix, ctx.network, anchor)
        device_id = place_service(service, order, app.deadline, ctx.devices)
        assignment[sid] = device_id
        if device_id is not None and anchor is None:
            anchor = ctx.network.assignment[device_id]
    return PlacementPlan(assignment=assignment)


def _place_in_order(
    app: Application, order: Sequence[int], devices: Mapping[int, Device]
) -> PlacementPlan:
    """Offer every service of ``app`` the same candidate order."""
    assignment: dict[int, int | None] = {}
    for sid in app.topological_order():
        assignment[sid] = place_service(app.service(sid), order, app.deadline, devices)
    return PlacementPlan(assignment=assignment)


def _residual_units(device: Device) -> float:
    """Residual capacity of a device on the (1 core, 1 GB, 1 TB) unit scale."""
    if not device.alive:
        return 0.0
    return max(float(device.residual_cores), device.residual_mem, device.residual_storage)


def baseline_first_fit(app: Application, devices: Mapping[int, Device]) -> PlacementPlan:
    """Each service lands on the first admissible device by id."""
    return _place_in_order(app, sorted(devices), devices)


def baseline_connectivity_greedy(
    app: Application, network: PartitionSet, devices: Mapping[int, Device]
) -> PlacementPlan:
    """Whole app into the network partition with most residual units, first-fit inside.

    The target partition is recomputed per application against current
    residuals; services the partition cannot absorb become None.
    """
    best_pid: int | None = None
    best_units = -1.0
    for pid in sorted(network.partitions):
        units = sum(_residual_units(devices[d]) for d in network.partitions[pid] if d in devices)
        if units > best_units:
            best_pid, best_units = pid, units
    members = sorted(network.partitions.get(best_pid, frozenset()))
    return _place_in_order(app, members, devices)


@dataclass
class PlacementRun:
    """Outcome of placing one request batch with a single strategy.

    ``devices`` are the run's own device copies, holding the residuals left
    after every admission.
    """

    plans: dict[int, PlacementPlan]
    devices: dict[int, Device]


def run_placement(
    instances: Sequence[Application],
    devices: Sequence[Device],
    topology_links,
    users: Mapping[int, User],
    strategy: str,
    feature_partitions: FeaturePartitionSet | None = None,
    network: PartitionSet | None = None,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> PlacementRun:
    """Place every application instance (deadline order) with one strategy.

    Each run starts from pristine residual copies of the devices, so
    strategies can be compared on identical inputs. Response times are
    attached to every plan that is fully placed, routable and requested by
    a known user.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    fresh = {d.id: d.fresh_copy() for d in devices}
    topology = Topology(fresh.values(), topology_links)
    ordered = sort_applications(instances)

    if strategy == "multilayer":
        if feature_partitions is None or network is None:
            raise ValueError("multilayer strategy requires partitioning results")
        config = FitnessConfig(
            alpha=alpha,
            beta=beta,
            normalization_ranges=normalization_ranges(fresh.values(), ordered),
        )
        ctx = PlacementContext(fresh, topology, feature_partitions, network, users, config)
        place = partial(select_feature_partitions, ctx=ctx)
    elif strategy == "first_fit":
        place = partial(baseline_first_fit, devices=fresh)
    else:
        if network is None:
            raise ValueError("connectivity_greedy requires network partitions")
        place = partial(baseline_connectivity_greedy, network=network, devices=fresh)

    plans: dict[int, PlacementPlan] = {}
    for app in ordered:
        plan = place(app)
        plans[app.id] = plan
        user = users.get(app.user)
        if user is None or not plan.fully_placed:
            continue
        try:
            plan.per_service_rt, plan.app_rt = response_times(
                app, plan.assignment, topology, user.gateway
            )
        except UnreachableError:
            pass

    return PlacementRun(plans=plans, devices=fresh)
