"""Domain model for fog infrastructures and deadline-constrained IoT applications.

Units used consistently across the package: CPU speed is MI per second per
core, memory is GB, storage is TB, message sizes are bytes, bandwidth is
bytes per millisecond, and every latency, deadline, or computed time is in
milliseconds.
``Device``, ``NetworkLink`` and ``Topology`` are fixed input; the capacity
placement has left on each device lives in ``placement.run_placement``'s
per-run ``Residual`` records. An ``Application`` is either a template or a
requested instance of one; only an instance has a ``gateway``, the device
where its request enters the network (see ``scenario.Scenario.instances``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Collection, Iterable, Mapping, Sequence

MS_PER_S = 1000.0

#: Sentinel source id for an application's initial request message.
USER = -1


def sum_in_order(values: Iterable[float]) -> float:
    """The float sum of ``values``, added left to right from 0.0.

    Built-in ``sum()`` compensates float rounding since Python 3.12, so its
    last bits depend on the interpreter; this is the plain left-to-right sum
    that ``sum()`` gave before 3.12, on every version.
    """
    return reduce(operator.add, values, 0.0)


class UnreachableError(RuntimeError):
    """No live route exists between two devices."""


@dataclass(frozen=True)
class Device:
    """A fog node's capacities; each hosted service occupies exactly one core."""

    id: int
    cores: int
    cpu_speed: float  # MI per second, per core
    mem: float        # GB
    storage: float    # TB

    def __post_init__(self) -> None:
        # comparisons, not math.isfinite: an int too large for a float is finite
        if not (0 < self.cpu_speed < math.inf and 0 < self.mem < math.inf and 0 < self.storage < math.inf):
            raise ValueError(f"device {self.id}: capacities must be strictly positive and finite")
        if self.cores < 1:
            raise ValueError(f"device {self.id}: needs at least one core")


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
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("link bandwidth must be positive and finite")
        if not 0 <= self.latency < math.inf:
            raise ValueError("link latency must be non-negative and finite")

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


@dataclass(frozen=True)
class Service:
    """Resource demand triplet of a single application service."""

    id: int
    workload: float        # MI
    mem_demand: float      # GB
    storage_demand: float  # TB

    def __post_init__(self) -> None:
        if not (
            0 < self.workload < math.inf
            and 0 < self.mem_demand < math.inf
            and 0 < self.storage_demand < math.inf
        ):
            raise ValueError(f"service {self.id}: demands must be strictly positive and finite")


@dataclass(frozen=True)
class Message:
    """Request message between two services, or from the user (source USER)."""

    source: int
    destination: int
    size: float  # bytes

    def __post_init__(self) -> None:
        if not 0 < self.size < math.inf:
            raise ValueError("message size must be positive and finite")
        if self.source == self.destination:
            raise ValueError("message source and destination must differ")


class Application:
    """Directed acyclic service graph with demands, messages and a deadline.

    Exactly one message originates from USER (the initial request); every
    service must be reachable from the entry service along message edges.
    ``gateway`` is None on a template and names the requesting device on an
    instance.
    """

    def __init__(
        self,
        id: int,
        services: Sequence[Service],
        messages: Sequence[Message],
        deadline: float,
        gateway: int | None = None,
    ) -> None:
        self.id = id
        self.services = tuple(services)
        self.messages = tuple(messages)
        self.deadline = float(deadline)
        self.gateway = gateway
        if not 0 < self.deadline < math.inf:
            raise ValueError(f"app {id}: deadline must be positive and finite")
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

    def service(self, service_id: int) -> Service:
        return self._by_id[service_id]

    def incoming(self, service_id: int) -> Sequence[Message]:
        """Messages whose destination is the given service (entry included)."""
        return tuple(self._incoming[service_id])

    def topological_order(self) -> Sequence[int]:
        return self._order

    def _topological_order(self) -> tuple[int, ...]:
        """Kahn's order, ties to the lowest id; rejects a cycle or an unreachable service.

        In an acyclic graph a service is reachable from the entry exactly
        when the entry is the only service no message reaches.
        """
        indeg = {sid: 0 for sid in self._by_id}
        succs: dict[int, list[int]] = {sid: [] for sid in self._by_id}
        for m in self.messages:
            if m.source == USER:
                continue
            indeg[m.destination] += 1
            succs[m.source].append(m.destination)
        roots = sorted(sid for sid, d in indeg.items() if d == 0)
        ready = list(roots)
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
        entry = self.entry_message.destination
        if roots != [entry]:
            unreached = [sid for sid in roots if sid != entry]
            raise ValueError(f"app {self.id}: services {unreached} unreachable from entry")
        return tuple(order)

    def __repr__(self) -> str:
        return f"Application(id={self.id}, services={len(self.services)}, deadline={self.deadline})"


@dataclass
class PlacementPlan:
    """Mapping from service id to hosting device (None marks an invalid placement).

    A plan holds no response times: ``simulator.run`` computes them from the
    assignment under each mode's dead set.
    """

    assignment: dict[int, int | None]

    @property
    def fully_placed(self) -> bool:
        return bool(self.assignment) and all(d is not None for d in self.assignment.values())


class Topology:
    """Devices plus bidirectional links, with deterministic shortest-hop routing.

    ``adj`` lists each device's neighbours ascending, so BFS tie-breaking
    (and therefore every derived artifact) is reproducible.
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
        self.adj = {i: tuple(sorted(n)) for i, n in adj.items()}

    def link(self, a: int, b: int) -> NetworkLink:
        return self._links[(a, b) if a < b else (b, a)]

    def _parents(
        self,
        src: int,
        dead: frozenset[int] | set[int] = frozenset(),
        targets: Collection[int] | None = None,
    ) -> dict[int, int]:
        """BFS parent of each live device reached from live ``src``, in visiting order.

        ``src`` is its own parent. Without ``targets`` the search covers all
        that ``src`` reaches. With them it stops once every target outside
        ``dead`` is reached (at once when none is left), so the dict may
        hold only part of the reachable graph. A BFS's parent entries up to
        a node do not depend on where it stops, so each target gets the
        parent chain a search for it alone would give.
        """
        parent: dict[int, int] = {src: src}
        left = set(targets or ()).difference(dead)
        left.discard(src)
        if targets is not None and not left:
            return parent
        frontier = [src]
        for node in frontier:  # the list grows behind the loop, in BFS order
            for nxt in self.adj[node]:
                if nxt in dead or nxt in parent:
                    continue
                parent[nxt] = node
                if nxt in left:
                    left.remove(nxt)
                    if not left:
                        return parent
                frontier.append(nxt)
        return parent

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
        parent = self._parents(src, dead, (dst,))
        if dst not in parent:
            return None
        path: list[NetworkLink] = []
        cur = dst
        while cur != src:
            path.append(self.link(parent[cur], cur))
            cur = parent[cur]
        path.reverse()
        return path

    def hop_counts(self, src: int, targets: Collection[int]) -> dict[int, int]:
        """``len(shortest_hop_path(src, t))`` for each target ``t`` that ``src`` reaches.

        One BFS serves every target and stops once all are reached; a
        target's count is its depth in that parent tree. Unreachable
        targets are absent, and ``src`` itself counts 0.
        """
        if src not in self.devices:
            raise KeyError(f"unknown device {src} in route query")
        parent = self._parents(src, targets=targets)
        counts: dict[int, int] = {}
        for target in targets:
            if target in parent:
                hops, node = 0, target
                while parent[node] != node:
                    hops, node = hops + 1, parent[node]
                counts[target] = hops
        return counts

    def transmission_times(self, src: int, size: float) -> dict[int, float]:
        """``transmission_time`` of a ``size``-byte message from ``src`` to each device it reaches.

        One BFS builds the parent tree ``shortest_hop_path`` walks, and each
        entry adds ``latency + size / bandwidth`` down that tree from 0.0,
        the fold ``transmission_time`` makes over the path, so the floats
        are bit-identical. ``src`` maps to 0.0; unreachable devices are absent.
        """
        if src not in self.devices:
            raise KeyError(f"unknown device {src} in route query")
        links = self._links
        times: dict[int, float] = {}
        for node, up in self._parents(src).items():
            if node == up:
                times[node] = 0.0
            else:
                link = links[(up, node) if up < node else (node, up)]
                times[node] = times[up] + (link.latency + size / link.bandwidth)
        return times


def execution_time(service: Service, device: Device) -> float:
    """Execution time in ms: workload over per-core speed (speed is per second)."""
    return service.workload / device.cpu_speed * MS_PER_S


def transmission_time(link_path: Sequence[NetworkLink], size: float) -> float:
    """Sum of per-link latency + size/bandwidth over a hop path (ms).

    The empty path means co-located endpoints and costs nothing.
    """
    if size <= 0:
        raise ValueError("message size must be positive")
    total = 0.0
    for link in link_path:
        total += link.latency + size / link.bandwidth
    return total


def response_times(
    app: Application,
    assignment: Mapping[int, int],
    topology: Topology,
    gateway: int,
    dead: frozenset[int] | set[int] = frozenset(),
) -> tuple[dict[int, float], float, frozenset[int]]:
    """Per-service response times (ms), the application response time, and the devices used.

    The entry service pays the gateway-to-host transmission of the initial
    request; every other service waits for its slowest predecessor message.
    Each message is routed once, by ``Topology.shortest_hop_path`` around
    ``dead``, and arrives at its send time (0 for the initial request, the
    sender's response time otherwise) plus ``transmission_time`` over that
    path. The devices used are the gateway, every host, and both ends of
    every link of those paths. ``assignment`` must place every service.
    Raises UnreachableError when no live route supports a required message.
    """
    rts: dict[int, float] = {}
    used = {gateway}
    for sid in app.topological_order():
        device_id = assignment[sid]
        used.add(device_id)
        device = topology.devices[device_id]
        arrivals = [0.0]
        for msg in app.incoming(sid):
            # topological order has timed every predecessor
            src, sent = (gateway, 0.0) if msg.source == USER else (assignment[msg.source], rts[msg.source])
            path = topology.shortest_hop_path(src, device_id, dead)
            if path is None:
                raise UnreachableError(f"no live route from {src} to {device_id}")
            for link in path:
                used.add(link.a)
                used.add(link.b)
            arrivals.append(sent + transmission_time(path, msg.size))
        rts[sid] = max(arrivals) + execution_time(app.service(sid), device)
    return rts, max(rts.values()), frozenset(used)


def deadline_satisfied(app: Application, rt_a: float) -> bool:
    """Strict comparison: the application meets its deadline iff RT < deadline."""
    return rt_a < app.deadline
