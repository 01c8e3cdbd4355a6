"""Deadline-ordered service placement over feature partitions, plus baselines.

The partition-aware strategy ranks feature partitions per service by a
weighted mix of demand similarity and user proximity, then walks each
partition's devices in ascending transmission time. All services of one
application must land inside the network partition anchored by its first
successfully placed service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .model import (
    Application,
    Device,
    PlacementPlan,
    Service,
    Topology,
    UnplacedDependencyError,
    UnreachableError,
    User,
    placement_valid,
    response_times,
)
from .partitioner import (
    CompressedGraph,
    FeaturePartitionSet,
    FeatureTriplet,
    PartitionSet,
)

STRATEGIES = ("multilayer", "first_fit", "connectivity_greedy")

DIMENSIONS = ("cpu", "mem", "storage")


class OverCommitError(RuntimeError):
    """A capacity commit was attempted beyond a device's residual resources."""


@dataclass(frozen=True)
class CommitRecord:
    """Audit entry for one accepted placement, with pre-commit residuals."""

    app_id: int
    service: Service
    device_id: int
    deadline_ms: float
    pre_cores: int
    pre_mem: float
    pre_storage: float


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

    Owns the mutable residual device copies, the network partition lookup,
    one route table per gateway, and the placement audit trail. A gateway's
    table comes from a single ``Topology.routes_from`` BFS the first time
    the gateway is asked for, and then serves every transmission-time query
    from it for the rest of the run.
    """

    def __init__(
        self,
        devices: Mapping[int, Device],
        topology: Topology,
        feature_partitions: FeaturePartitionSet,
        compressed: CompressedGraph,
        network: PartitionSet,
        users: Mapping[int, User],
        config: FitnessConfig,
    ) -> None:
        self.devices = devices
        self.topology = topology
        self.fps = feature_partitions
        self.compressed = compressed
        self.network = network
        self.users = users
        self.config = config
        self.audit: list[CommitRecord] = []
        self.unreachable_fps: set[int] = set()
        # gateway -> device -> (hops, latency sum, 1/bandwidth sum)
        self._routes: dict[int, dict[int, tuple[int, float, float]]] = {}

    def network_partition_of(self, device_id: int) -> int:
        return self.network.assignment[device_id]

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
        device, which is also flagged in ``unreachable_fps``.
        """
        d_matrix: dict[int, list[int]] = {}
        terms: dict[int, float | None] = {}
        for fp_id in self.fps.ids():
            rows = self.device_rows(fp_id, gateway, size)
            d_matrix[fp_id] = [did for _, did in rows]
            terms[fp_id] = _proximity(fp_id, rows, self.config, self)
        return d_matrix, terms

    def rank_feature_partitions(
        self,
        service: Service,
        user: User,
        size: float,
        proximities: Mapping[int, float | None] | None = None,
    ) -> list[int]:
        """All feature partition ids, descending fitness, ties by id ascending.

        ``proximities`` are the terms ``app_tables`` returns for the user's
        gateway and ``size``; they are computed here when not given.
        """
        if proximities is None:
            _, proximities = self.app_tables(user.gateway, size)
        scored = [
            (-_score(fp_id, service, self.config, self, proximities[fp_id]), fp_id)
            for fp_id in self.fps.ids()
        ]
        scored.sort()
        return [fp_id for _, fp_id in scored]

    def commit(self, app_id: int, service: Service, device: Device, deadline_ms: float) -> CommitRecord:
        record = commit_placement(device, service, app_id=app_id, deadline_ms=deadline_ms)
        self.audit.append(record)
        return record


def _proximity(
    fp_id: int, rows: Sequence[tuple[float, int]], config: FitnessConfig, ctx: PlacementContext
) -> float | None:
    """beta / (1 + T_min) from a partition's sorted ``device_rows``.

    When no device of the partition is reachable the term is None and the
    partition is flagged in ``ctx.unreachable_fps``.
    """
    if not rows or math.isinf(rows[0][0]):
        ctx.unreachable_fps.add(fp_id)
        return None
    return config.beta / (1.0 + rows[0][0])


def fitness(
    fp_id: int,
    service: Service,
    user: User,
    config: FitnessConfig,
    ctx: PlacementContext,
    message_size: float,
) -> float:
    """alpha * best member similarity + beta / (1 + nearest device T).

    When no device of the partition is reachable from the user's gateway
    the proximity term is dropped and the partition is flagged in
    ``ctx.unreachable_fps``. This scores one partition on its own;
    placement splits the score in two, taking the proximity term from
    ``PlacementContext.app_tables`` once per application and only the
    similarity term per service, with the same result.
    """
    rows = ctx.device_rows(fp_id, user.gateway, message_size)
    return _score(fp_id, service, config, ctx, _proximity(fp_id, rows, config, ctx))


def _score(
    fp_id: int,
    service: Service,
    config: FitnessConfig,
    ctx: PlacementContext,
    proximity_term: float | None,
) -> float:
    """``fitness`` with its proximity term given; None drops the term."""
    members = ctx.fps.feature_partitions[fp_id]
    max_sim = max(
        demand_similarity(ctx.compressed.features[node], service, config.normalization_ranges)
        for node in members
    )
    if proximity_term is None:
        return config.alpha * max_sim
    return config.alpha * max_sim + proximity_term


def sort_applications(apps: Iterable[Application]) -> list[Application]:
    """Ascending deadline, ties broken by application id ascending (stable)."""
    return sorted(apps, key=lambda a: (a.deadline, a.id))


def commit_placement(
    device: Device,
    service: Service,
    app_id: int = -1,
    deadline_ms: float = math.inf,
) -> CommitRecord:
    """Decrement residuals for a hosted service; returns the audit record.

    The record snapshots the pre-commit residuals so a rollback can restore
    them exactly.
    """
    if (
        not device.alive
        or device.residual_cores < 1
        or service.mem_demand > device.residual_mem
        or service.storage_demand > device.residual_storage
    ):
        raise OverCommitError(
            f"device {device.id} cannot host service {service.id} "
            f"(alive={device.alive}, cores={device.residual_cores})"
        )
    record = CommitRecord(
        app_id=app_id,
        service=service,
        device_id=device.id,
        deadline_ms=deadline_ms,
        pre_cores=device.residual_cores,
        pre_mem=device.residual_mem,
        pre_storage=device.residual_storage,
    )
    device.residual_cores -= 1
    device.residual_mem -= service.mem_demand
    device.residual_storage -= service.storage_demand
    return record


def rollback_placement(device: Device, record: CommitRecord) -> None:
    """Restore the residuals saved in a commit record (bitwise exact)."""
    if record.device_id != device.id:
        raise OverCommitError(f"record targets device {record.device_id}, not {device.id}")
    device.residual_cores = record.pre_cores
    device.residual_mem = record.pre_mem
    device.residual_storage = record.pre_storage


def place_service(
    ctx: PlacementContext,
    fp_rank: Sequence[int],
    d_matrix: Mapping[int, Sequence[int]],
    service: Service,
    deadline_ms: float,
    anchor: int | None,
    app_id: int = -1,
) -> int | None:
    """First feasible device walking partitions by fitness and devices by T.

    Devices outside the anchor network partition are skipped (no anchor yet
    means the service itself will define it). Returns the device id and
    commits its residuals, or None when nothing feasible remains.
    """
    for fp_id in fp_rank:
        for did in d_matrix[fp_id]:
            if anchor is not None and ctx.network_partition_of(did) != anchor:
                continue
            device = ctx.devices[did]
            if placement_valid(service, device, deadline_ms):
                ctx.commit(app_id, service, device, deadline_ms)
                return did
    return None


def select_feature_partitions(app: Application, ctx: PlacementContext) -> PlacementPlan:
    """Place every service of one application; failures become None entries.

    Services are walked in topological order so the entry service defines
    the anchor network partition. The device matrix and the proximity terms
    are built once for the application and shared by all its services.
    Response times are attached when the app is fully placed and routable.
    """
    if app.user is None or app.user not in ctx.users:
        raise ValueError(f"app {app.id}: requesting user unknown")
    user = ctx.users[app.user]
    size = app.entry_message.size
    d_matrix, proximities = ctx.app_tables(user.gateway, size)
    assignment: dict[int, int | None] = {}
    anchor: int | None = None
    for sid in app.topological_order():
        service = app.service(sid)
        fp_rank = ctx.rank_feature_partitions(service, user, size, proximities)
        device_id = place_service(ctx, fp_rank, d_matrix, service, app.deadline, anchor, app.id)
        assignment[sid] = device_id
        if device_id is not None and anchor is None:
            anchor = ctx.network_partition_of(device_id)
    plan = PlacementPlan(assignment=assignment)
    _attach_response_times(plan, app, ctx.topology, user.gateway)
    return plan


def _attach_response_times(
    plan: PlacementPlan, app: Application, topology: Topology, gateway: int
) -> None:
    if not plan.fully_placed:
        return
    try:
        per_service, rt_a = response_times(app, plan.assignment, topology, gateway)
    except (UnplacedDependencyError, UnreachableError):
        return
    plan.per_service_rt = per_service
    plan.app_rt = rt_a


def _residual_units(device: Device) -> float:
    """Residual capacity of a device on the (1 core, 1 GB, 1 TB) unit scale."""
    if not device.alive:
        return 0.0
    return max(float(device.residual_cores), device.residual_mem, device.residual_storage)


def baseline_first_fit(
    app: Application,
    devices: Mapping[int, Device],
    audit: list[CommitRecord] | None = None,
) -> PlacementPlan:
    """Each service lands on the first resource-feasible device by id."""
    ordered = [devices[k] for k in sorted(devices)]
    assignment: dict[int, int | None] = {}
    for sid in app.topological_order():
        service = app.service(sid)
        chosen: int | None = None
        for device in ordered:
            if placement_valid(service, device, app.deadline):
                record = commit_placement(device, service, app_id=app.id, deadline_ms=app.deadline)
                if audit is not None:
                    audit.append(record)
                chosen = device.id
                break
        assignment[sid] = chosen
    return PlacementPlan(assignment=assignment)


def baseline_connectivity_greedy(
    app: Application,
    network: PartitionSet,
    devices: Mapping[int, Device],
    audit: list[CommitRecord] | None = None,
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
    assignment: dict[int, int | None] = {}
    member_ids = sorted(network.partitions.get(best_pid, frozenset()))
    for sid in app.topological_order():
        service = app.service(sid)
        chosen: int | None = None
        for did in member_ids:
            device = devices[did]
            if placement_valid(service, device, app.deadline):
                record = commit_placement(device, service, app_id=app.id, deadline_ms=app.deadline)
                if audit is not None:
                    audit.append(record)
                chosen = did
                break
        assignment[sid] = chosen
    return PlacementPlan(assignment=assignment)


@dataclass
class PlacementRun:
    """Outcome of placing one request batch with a single strategy."""

    strategy: str
    plans: dict[int, PlacementPlan]
    audit: list[CommitRecord]
    devices: dict[int, Device]
    alpha: float
    beta: float
    unreachable_fps: frozenset[int] = frozenset()


def run_placement(
    instances: Sequence[Application],
    devices: Sequence[Device],
    topology_links,
    users: Mapping[int, User],
    strategy: str,
    feature_partitions: FeaturePartitionSet | None = None,
    compressed: CompressedGraph | None = None,
    network: PartitionSet | None = None,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> PlacementRun:
    """Place every application instance (deadline order) with one strategy.

    Each run starts from pristine residual copies of the devices, so
    strategies can be compared on identical inputs.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    fresh = {d.id: d.fresh_copy() for d in devices}
    topology = Topology(fresh.values(), topology_links)
    ordered = sort_applications(instances)
    plans: dict[int, PlacementPlan] = {}
    audit: list[CommitRecord] = []
    unreachable: frozenset[int] = frozenset()

    if strategy == "multilayer":
        if feature_partitions is None or compressed is None or network is None:
            raise ValueError("multilayer strategy requires partitioning results")
        config = FitnessConfig(
            alpha=alpha,
            beta=beta,
            normalization_ranges=normalization_ranges(fresh.values(), ordered),
        )
        ctx = PlacementContext(
            fresh, topology, feature_partitions, compressed, network, users, config
        )
        for app in ordered:
            plans[app.id] = select_feature_partitions(app, ctx)
        audit = ctx.audit
        unreachable = frozenset(ctx.unreachable_fps)
    else:
        for app in ordered:
            if strategy == "first_fit":
                plan = baseline_first_fit(app, fresh, audit)
            else:
                if network is None:
                    raise ValueError("connectivity_greedy requires network partitions")
                plan = baseline_connectivity_greedy(app, network, fresh, audit)
            user = users.get(app.user) if app.user is not None else None
            if user is not None:
                _attach_response_times(plan, app, topology, user.gateway)
            plans[app.id] = plan

    return PlacementRun(
        strategy=strategy,
        plans=plans,
        audit=audit,
        devices=fresh,
        alpha=alpha,
        beta=beta,
        unreachable_fps=unreachable,
    )
