"""Domain model for fog infrastructures and deadline-constrained IoT applications.

Units used consistently across the package: CPU speed is MI per second per
core, memory is GB, storage is TB, message sizes are bytes, bandwidth is
bytes per millisecond, and every latency, deadline, or computed time is in
milliseconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

MS_PER_S = 1000.0

#: Sentinel source id for an application's initial request message.
USER = -1


class UnplacedDependencyError(RuntimeError):
    """A response-time query reached a service with no assigned device."""


class UnreachableError(RuntimeError):
    """No live route exists between two devices."""


class LinkDownError(RuntimeError):
    """A transmission path crosses a link with a dead endpoint."""


@dataclass
class Device:
    """A fog node with fixed capacities and mutable residual state.

    ``cores`` counts CPU cores; each hosted service occupies exactly one
    core, so ``residual_cores`` doubles as the remaining service slots.
    """

    id: int
    cores: int
    cpu_speed: float  # MI per second, per core
    mem: float        # GB
    storage: float    # TB
    residual_cores: int | None = None
    residual_mem: float | None = None
    residual_storage: float | None = None
    alive: bool = True

    def __post_init__(self) -> None:
        if self.cpu_speed <= 0 or self.mem <= 0 or self.storage <= 0:
            raise ValueError(f"device {self.id}: capacities must be strictly positive")
        if self.cores < 1:
            raise ValueError(f"device {self.id}: needs at least one core")
        if self.residual_cores is None:
            self.residual_cores = self.cores
        if self.residual_mem is None:
            self.residual_mem = self.mem
        if self.residual_storage is None:
            self.residual_storage = self.storage
        if not 0 <= self.residual_cores <= self.cores:
            raise ValueError(f"device {self.id}: residual cores outside [0, cores]")
        if not 0 <= self.residual_mem <= self.mem:
            raise ValueError(f"device {self.id}: residual memory outside [0, mem]")
        if not 0 <= self.residual_storage <= self.storage:
            raise ValueError(f"device {self.id}: residual storage outside [0, storage]")

    @property
    def triplet(self) -> tuple[float, float, float]:
        """(cpu_speed, mem, storage) capacity triplet."""
        return (self.cpu_speed, self.mem, self.storage)

    def fresh_copy(self) -> "Device":
        """A pristine copy: full residuals, alive."""
        return Device(self.id, self.cores, self.cpu_speed, self.mem, self.storage)


@dataclass(frozen=True)
class NetworkLink:
    """Bidirectional connection between two devices."""

    a: int
    b: int
    bandwidth: float  # bytes per ms
    latency: float    # ms

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("link endpoints must differ")
        if self.bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("link latency must be non-negative")

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)

    def other(self, device_id: int) -> int:
        if device_id == self.a:
            return self.b
        if device_id == self.b:
            return self.a
        raise KeyError(f"device {device_id} is not an endpoint of {self.key}")


@dataclass(frozen=True)
class Service:
    """Resource demand triplet of a single application service."""

    id: int
    workload: float        # MI
    mem_demand: float      # GB
    storage_demand: float  # TB

    def __post_init__(self) -> None:
        if self.workload <= 0 or self.mem_demand <= 0 or self.storage_demand <= 0:
            raise ValueError(f"service {self.id}: demands must be strictly positive")


@dataclass(frozen=True)
class Message:
    """Request message between two services, or from the user (source USER)."""

    source: int
    destination: int
    size: float  # bytes

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("message size must be positive")
        if self.source == self.destination:
            raise ValueError("message source and destination must differ")


@dataclass(frozen=True)
class User:
    """An end-user pinned to a gateway device."""

    id: int
    gateway: int


class Application:
    """Directed acyclic service graph with demands, messages and a deadline.

    Exactly one message originates from USER (the initial request); every
    service must be reachable from the entry service along message edges.
    """

    def __init__(
        self,
        id: int,
        services: Sequence[Service],
        messages: Sequence[Message],
        deadline: float,
        user: int | None = None,
    ) -> None:
        self.id = id
        self.services = tuple(services)
        self.messages = tuple(messages)
        self.deadline = float(deadline)
        self.user = user
        if self.deadline <= 0:
            raise ValueError(f"app {id}: deadline must be positive")
        if not self.services:
            raise ValueError(f"app {id}: needs at least one service")
        self._by_id = {s.id: s for s in self.services}
        if len(self._by_id) != len(self.services):
            raise ValueError(f"app {id}: duplicate service ids")
        entries = [m for m in self.messages if m.source == USER]
        if len(entries) != 1:
            raise ValueError(f"app {id}: expected exactly one entry message, got {len(entries)}")
        self.entry_message = entries[0]
        self._incoming: dict[int, list[Message]] = {s.id: [] for s in self.services}
        for m in self.messages:
            if m.destination not in self._by_id:
                raise ValueError(f"app {id}: message destination {m.destination} unknown")
            if m.source != USER and m.source not in self._by_id:
                raise ValueError(f"app {id}: message source {m.source} unknown")
            self._incoming[m.destination].append(m)
        self._order = self._topological_order()
        self._check_reachable()

    def service(self, service_id: int) -> Service:
        return self._by_id[service_id]

    def incoming(self, service_id: int) -> Sequence[Message]:
        """Messages whose destination is the given service (entry included)."""
        return tuple(self._incoming[service_id])

    def topological_order(self) -> Sequence[int]:
        return self._order

    def _topological_order(self) -> tuple[int, ...]:
        indeg = {sid: 0 for sid in self._by_id}
        succs: dict[int, list[int]] = {sid: [] for sid in self._by_id}
        for m in self.messages:
            if m.source == USER:
                continue
            indeg[m.destination] += 1
            succs[m.source].append(m.destination)
        ready = sorted(sid for sid, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            sid = ready.pop(0)
            order.append(sid)
            inserted = False
            for nxt in sorted(succs[sid]):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
                    inserted = True
            if inserted:
                ready.sort()
        if len(order) != len(self._by_id):
            raise ValueError(f"app {self.id}: service graph contains a cycle")
        return tuple(order)

    def _check_reachable(self) -> None:
        entry = self.entry_message.destination
        seen = {entry}
        frontier = deque([entry])
        succs: dict[int, list[int]] = {sid: [] for sid in self._by_id}
        for m in self.messages:
            if m.source != USER:
                succs[m.source].append(m.destination)
        while frontier:
            sid = frontier.popleft()
            for nxt in succs[sid]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        missing = set(self._by_id) - seen
        if missing:
            raise ValueError(f"app {self.id}: services {sorted(missing)} unreachable from entry")

    def __repr__(self) -> str:
        return f"Application(id={self.id}, services={len(self.services)}, deadline={self.deadline})"


@dataclass
class PlacementPlan:
    """Mapping from service id to hosting device (None marks an invalid placement)."""

    assignment: dict[int, int | None]
    per_service_rt: dict[int, float] = field(default_factory=dict)
    app_rt: float | None = None

    @property
    def fully_placed(self) -> bool:
        return bool(self.assignment) and all(d is not None for d in self.assignment.values())

    def placed_services(self) -> list[int]:
        return [sid for sid, d in self.assignment.items() if d is not None]


class Topology:
    """Devices plus bidirectional links, with deterministic shortest-hop routing.

    Neighbor lists are kept sorted so BFS tie-breaking (and therefore every
    derived artifact) is reproducible.
    """

    def __init__(self, devices: Iterable[Device], links: Iterable[NetworkLink]) -> None:
        self.devices: dict[int, Device] = {}
        for d in devices:
            if d.id in self.devices:
                raise ValueError(f"duplicate device id {d.id}")
            self.devices[d.id] = d
        self._links: dict[tuple[int, int], NetworkLink] = {}
        adj: dict[int, set[int]] = {i: set() for i in self.devices}
        for link in links:
            if link.a not in self.devices or link.b not in self.devices:
                raise ValueError(f"link {link.key} references an unknown device")
            if link.key in self._links:
                raise ValueError(f"duplicate link {link.key}")
            self._links[link.key] = link
            adj[link.a].add(link.b)
            adj[link.b].add(link.a)
        self._adj = {i: tuple(sorted(n)) for i, n in adj.items()}

    @property
    def links(self) -> Sequence[NetworkLink]:
        return [self._links[k] for k in sorted(self._links)]

    def link(self, a: int, b: int) -> NetworkLink:
        return self._links[(a, b) if a < b else (b, a)]

    def neighbors(self, device_id: int) -> Sequence[int]:
        return self._adj[device_id]

    def shortest_hop_path(
        self, src: int, dst: int, dead: frozenset[int] | set[int] = frozenset()
    ) -> list[NetworkLink] | None:
        """Hop-minimal link path avoiding dead devices, or None if disconnected.

        Co-located endpoints yield the empty path. A dead endpoint is
        unreachable by definition.
        """
        if src not in self.devices or dst not in self.devices:
            raise KeyError(f"unknown device in route query ({src}, {dst})")
        if src in dead or dst in dead:
            return None
        if src == dst:
            return []
        parent: dict[int, int] = {src: src}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nxt in self._adj[node]:
                if nxt in dead or nxt in parent:
                    continue
                parent[nxt] = node
                if nxt == dst:
                    path: list[NetworkLink] = []
                    cur = dst
                    while cur != src:
                        path.append(self.link(parent[cur], cur))
                        cur = parent[cur]
                    path.reverse()
                    return path
                frontier.append(nxt)
        return None

    def routes_from(self, src: int) -> dict[int, tuple[int, float, float]]:
        """Route costs from ``src`` to every device it can reach.

        Maps each reachable device to (hops, latency sum, 1/bandwidth sum)
        along the route ``shortest_hop_path`` picks: a full BFS over the
        same sorted neighbor lists builds the same parent tree, and each
        sum is accumulated down that tree from an int 0, the same left fold
        as summing the path's links, so the floats are bit-identical.
        ``src`` itself maps to (0, 0, 0); unreachable devices are absent.
        """
        if src not in self.devices:
            raise KeyError(f"unknown device {src} in route query")
        routes: dict[int, tuple[int, float, float]] = {src: (0, 0, 0)}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            hops, lat_sum, inv_bw_sum = routes[node]
            for nxt in self._adj[node]:
                if nxt in routes:
                    continue
                link = self.link(node, nxt)
                routes[nxt] = (hops + 1, lat_sum + link.latency, inv_bw_sum + 1.0 / link.bandwidth)
                frontier.append(nxt)
        return routes

    def hop_count(
        self, src: int, dst: int, dead: frozenset[int] | set[int] = frozenset()
    ) -> int | None:
        path = self.shortest_hop_path(src, dst, dead)
        return None if path is None else len(path)

    def transmission(
        self, src: int, dst: int, size: float, dead: frozenset[int] | set[int] = frozenset()
    ) -> float:
        """Transmission time (ms) along the shortest-hop route; raises UnreachableError."""
        path = self.shortest_hop_path(src, dst, dead)
        if path is None:
            raise UnreachableError(f"no live route from {src} to {dst}")
        return transmission_time(path, size, dead)


def placement_valid(service: Service, device: Device, deadline_ms: float) -> bool:
    """Admission predicate for hosting ``service`` on ``device``.

    The CPU term compares the raw workload/speed ratio against the deadline,
    exactly as the placement rule states it; the ms conversion belongs to
    ``execution_time`` only. Memory, storage, and one free core must be
    available in the device residuals.
    """
    return (
        device.alive
        and device.residual_cores >= 1
        and service.workload / device.cpu_speed <= deadline_ms
        and service.mem_demand <= device.residual_mem
        and service.storage_demand <= device.residual_storage
    )


def execution_time(service: Service, device: Device) -> float:
    """Execution time in ms: workload over per-core speed (speed is per second)."""
    if device.cpu_speed <= 0:
        raise ValueError(f"device {device.id}: non-positive cpu speed")
    return service.workload / device.cpu_speed * MS_PER_S


def transmission_time(
    link_path: Sequence[NetworkLink],
    size: float,
    dead: frozenset[int] | set[int] = frozenset(),
) -> float:
    """Sum of per-link latency + size/bandwidth over a hop path (ms).

    The empty path means co-located endpoints and costs nothing.
    """
    if size <= 0:
        raise ValueError("message size must be positive")
    total = 0.0
    for link in link_path:
        if link.a in dead or link.b in dead:
            raise LinkDownError(f"link {link.key} has a dead endpoint")
        total += link.latency + size / link.bandwidth
    return total


def response_times(
    app: Application,
    assignment: Mapping[int, int | None],
    topology: Topology,
    gateway: int,
    dead: frozenset[int] | set[int] = frozenset(),
) -> tuple[dict[int, float], float]:
    """Per-service response times and the application response time (ms).

    The entry service pays the gateway-to-host transmission of the initial
    request; every other service waits for its slowest predecessor message.
    Raises UnplacedDependencyError if any service lacks a device, and
    UnreachableError when no live route supports a required message.
    """
    rts: dict[int, float] = {}
    for sid in app.topological_order():
        device_id = assignment.get(sid)
        if device_id is None:
            raise UnplacedDependencyError(f"app {app.id}: service {sid} is unplaced")
        device = topology.devices[device_id]
        arrivals = [0.0]
        for msg in app.incoming(sid):
            if msg.source == USER:
                arrivals.append(topology.transmission(gateway, device_id, msg.size, dead))
            else:
                src_device = assignment.get(msg.source)
                if src_device is None:
                    raise UnplacedDependencyError(
                        f"app {app.id}: predecessor {msg.source} of {sid} is unplaced"
                    )
                arrivals.append(
                    rts[msg.source] + topology.transmission(src_device, device_id, msg.size, dead)
                )
        rts[sid] = max(arrivals) + execution_time(app.service(sid), device)
    return rts, max(rts.values())


def deadline_satisfied(app: Application, rt_a: float) -> bool:
    """Strict comparison: the application meets its deadline iff RT < deadline."""
    return rt_a < app.deadline
