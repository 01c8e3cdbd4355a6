"""Deterministic synthesis of fog infrastructures, applications, and requests.

Everything is a pure function of (config, seed): the topology is a
Barabási–Albert graph whose lowest-betweenness nodes act as gateways, a
high-capacity cloud node hangs off the most central device, applications
are growing-network DAGs, and each user sends one request for a randomly
chosen application through a randomly chosen gateway, re-sent periodically
in deadline mode. A scenario therefore stores only the requests, each with
its gateway.

The three graph routines (Barabási–Albert growth, Brandes betweenness and
growing-network trees) reproduce networkx 3.6.1's ``barabasi_albert_graph``,
``betweenness_centrality`` and ``gn_graph`` draw for draw and float for
float, so scenarios keep the bytes they had when networkx made them.
``tests/data/generator_nx361.json`` and ``tests/test_generator.py`` guard
that.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from functools import wraps
from itertools import islice
from operator import le
from typing import Any, Iterator, NamedTuple, Sequence, TypeVar

from .model import Application, Device, Message, NetworkLink, Record, Service, Topology, USER


class ConfigError(ValueError):
    """Invalid scenario configuration."""


#: The ScenarioConfig fields a scale sets, in the order of a PRESETS row.
PRESET_FIELDS = ("app_count", "user_count", "deadline_mode")

#: Table of evaluation scales: (app templates, users, deadline mode).
PRESETS: dict[str, tuple[int, int, bool]] = {
    "SMALL": (10, 29, False),
    "MEDIUM": (20, 65, False),
    "LARGE": (30, 98, False),
    "D-SMALL": (10, 29, True),
    "D-MEDIUM": (20, 65, True),
    "D-LARGE": (30, 98, True),
}


T = TypeVar("T", bound=tuple)


def _validated(cls: type[T]) -> type[T]:
    """Make the NamedTuple ``cls`` run ``cls._check`` on every record its constructor builds.

    NamedTuple forbids ``__new__`` in a class body, so it is set here.
    ``_replace`` and ``_make`` build without ``__new__`` and skip the check.
    """
    build = cls.__new__

    @wraps(build)
    def __new__(cls: type[T], *args: Any, **kwargs: Any) -> T:
        self = build(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = __new__
    return cls


@_validated
class ScenarioConfig(NamedTuple):
    """Knobs for scenario synthesis; defaults mirror the evaluation setup.

    A NamedTuple, so it equals any tuple of the same values. Derive a
    changed config with ``replace``, which checks it as the constructor does.
    """

    device_count: int = 100
    gateway_count: int = 25
    ba_attachment: int = 2
    cores_range: tuple[int, int] = (10, 25)
    cpu_speed_range: tuple[float, float] = (20.0, 60.0)     # MI/s
    mem_range: tuple[float, float] = (10.0, 25.0)           # GB
    storage_range: tuple[float, float] = (10.0, 25.0)       # TB
    service_count_range: tuple[int, int] = (2, 10)
    deadline_range_ms: tuple[float, float] = (300.0, 50000.0)
    service_mem_range: tuple[float, float] = (1.0, 6.0)     # GB
    service_storage_range: tuple[float, float] = (1.0, 6.0)  # TB
    message_size_range_kb: tuple[float, float] = (1500.0, 4500.0)
    workload_range: tuple[float, float] = (20.0, 60.0)      # MI
    latency_ms: float = 5.0
    bandwidth_bytes_per_ms: float = 75000.0
    request_period_s: float = 1.557
    horizon_s: float = 2000.0
    cloud_factor: float = 10.0
    app_count: int = 10
    user_count: int = 29
    deadline_mode: bool = False
    scale: str | None = None
    seed: int = 0

    def _check(self) -> None:
        # each value, or each end of a range, has its default's type; an int
        # may stand for a float, but a bool is neither
        for name, default in self._field_defaults.items():
            value = getattr(self, name)
            ranged = isinstance(default, tuple)
            kind = type(default[0] if ranged else default)
            for v in value if ranged else (value,):
                if kind is bool and type(v) is not bool:
                    raise ConfigError(f"{name} must be true or false")
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{name} must be finite")
                if kind is int and type(v) is not int:
                    raise ConfigError(f"{name} must be an integer")
                if kind is float and type(v) not in (int, float):
                    raise ConfigError(f"{name} must be a number")
        if self.gateway_count < 0:
            raise ConfigError("gateway_count must be non-negative")
        if self.gateway_count >= self.device_count:
            raise ConfigError("gateway_count must be smaller than device_count")
        if self.device_count <= self.ba_attachment:
            raise ConfigError("device_count must exceed ba_attachment")
        if self.ba_attachment < 1:
            raise ConfigError("ba_attachment must be at least 1")
        for name in RANGE_FIELDS:
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name}: min must not exceed max")
        if self.latency_ms < 0 or self.bandwidth_bytes_per_ms <= 0:
            raise ConfigError("network parameters out of range")
        if self.request_period_s <= 0 or self.horizon_s < 0:
            raise ConfigError("request period must be positive and horizon non-negative")
        if self.app_count < 1 or self.user_count < 1:
            raise ConfigError("app_count and user_count must be positive")

    def replace(self, **changes: Any) -> ScenarioConfig:
        """This config with ``changes`` applied, checked as a new config is."""
        return ScenarioConfig(**{**self._asdict(), **changes})

    def with_scale(self, scale: str) -> ScenarioConfig:
        if scale not in PRESETS:
            raise ConfigError(f"unknown scale {scale!r}; expected one of {sorted(PRESETS)}")
        return self.replace(scale=scale, **dict(zip(PRESET_FIELDS, PRESETS[scale])))


#: The (min, max) fields of ScenarioConfig, in declaration order.
RANGE_FIELDS: tuple[str, ...] = tuple(
    name for name, default in ScenarioConfig._field_defaults.items() if isinstance(default, tuple)
)


class AppRequest(NamedTuple):
    """One user's request: an application template and the gateway it enters at."""

    request_id: int
    app_id: int
    gateway: int


class Schedule(Record):
    """Scheduled requests as two equal-length columns: the list ``times`` and the tuple ``request_ids``.

    Its length is the number of scheduled requests. Iterating it yields
    ``(time_s, request_id)`` pairs in column order, which ``scenario.json``
    stores as ``[time_s, request_id]`` rows; the times need not be sorted.
    ``ordered``, set once from the columns given, says whether no time is
    below the one before it; a NaN next to any time breaks the order. The
    columns are not changed in place after that.
    """

    __slots__ = ("times", "request_ids", "ordered")

    def __init__(self, times: list[float] | None = None, request_ids: tuple[int, ...] = ()) -> None:
        self.times = [] if times is None else times
        self.request_ids = request_ids
        if len(self.times) != len(request_ids):
            raise ValueError("schedule columns differ in length")
        self.ordered = all(map(le, self.times, islice(self.times, 1, None)))

    def __len__(self) -> int:
        return len(self.request_ids)

    def __iter__(self) -> Iterator[tuple[float, int]]:
        return zip(self.times, self.request_ids)


class Scenario(Record):
    """A fully materialized, replayable evaluation scenario.

    ``schedule`` is a ``Schedule``, by default a new empty one.
    """

    __slots__ = ("config", "devices", "links", "cloud_id", "apps", "requests", "schedule")

    def __init__(
        self,
        config: ScenarioConfig,
        devices: list[Device],
        links: list[NetworkLink],
        cloud_id: int,
        apps: list[Application],
        requests: list[AppRequest],
        schedule: Schedule | None = None,
    ) -> None:
        self.config = config
        self.devices = devices
        self.links = links
        self.cloud_id = cloud_id
        self.apps = apps
        self.requests = requests
        self.schedule = Schedule() if schedule is None else schedule

    def topology(self) -> Topology:
        """The scenario's devices and links, checked for duplicates and dangling ids."""
        return Topology(self.devices, self.links)

    def app_by_id(self) -> dict[int, Application]:
        return {a.id: a for a in self.apps}

    def instances(self) -> list[Application]:
        """Per-request application instances (instance id = request id).

        The one place a request's template and gateway are resolved: each
        instance carries its request's ``gateway``. Raises ValueError for a
        repeated request id, a request naming an unknown app, or a gateway
        that is not a device.
        """
        templates = self.app_by_id()
        device_ids = {d.id for d in self.devices}
        seen: set[int] = set()
        out = []
        for req in self.requests:
            if req.request_id in seen:
                raise ValueError(f"request id {req.request_id} is repeated")
            seen.add(req.request_id)
            tpl = templates.get(req.app_id)
            if tpl is None:
                raise ValueError(f"request {req.request_id} names unknown app {req.app_id}")
            if req.gateway not in device_ids:
                raise ValueError(f"request {req.request_id}'s gateway {req.gateway} is not a device")
            out.append(
                Application(
                    id=req.request_id,
                    services=tpl.services,
                    messages=tpl.messages,
                    deadline=tpl.deadline,
                    gateway=req.gateway,
                )
            )
        return out


def _rng(seed: int, stream: str) -> random.Random:
    # string seeding hashes via SHA-512, stable across interpreter runs
    return random.Random(f"{seed}:{stream}")


def _ba_rows(n: int, m: int, rng: random.Random) -> list[list[int]]:
    """Neighbour rows of a Barabási–Albert graph, as networkx 3.6.1 grows it.

    Growth starts from the star on nodes 0..m. Each new node draws targets
    with ``rng.choice`` from the list of nodes repeated once per edge end,
    into a set until it holds m, and links to them in the set's iteration
    order, which is also the order of each row.
    """
    rows: list[list[int]] = [list(range(1, m + 1))] + [[0] for _ in range(m)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        rows.append(list(targets))
        for target in targets:
            rows[target].append(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return rows


def _betweenness(rows: Sequence[Sequence[int]]) -> list[float]:
    """Normalized shortest-path betweenness of each node (Brandes 2001).

    Sources run in node order and the BFS scans each row in order, with
    float path counts, so every sum happens in the order networkx 3.6.1's
    ``betweenness_centrality`` does it. A node's predecessors are the
    neighbours one level up: each receives one share per popped node, so
    which of them goes first within that node does not change any sum.
    """
    n = len(rows)
    centrality = [0.0] * n
    for s in range(n):
        sigma = [0.0] * n
        dist = [-1] * n
        sigma[s] = 1.0
        dist[s] = 0
        order = [s]  # the BFS queue, kept as the stack of visited nodes
        for v in order:
            below = dist[v] + 1
            paths = sigma[v]
            for w in rows[v]:
                if dist[w] < 0:
                    order.append(w)
                    dist[w] = below
                    sigma[w] += paths
                elif dist[w] == below:
                    sigma[w] += paths
        delta = [0] * n
        for w in reversed(order):
            coeff = (1 + delta[w]) / sigma[w]
            above = dist[w] - 1
            for v in rows[w]:
                if dist[v] == above:
                    delta[v] += sigma[v] * coeff
            if w != s:
                centrality[w] += delta[w]
    if n - 1 >= 2:
        scale = 1 / ((n - 1) * (n - 2))
        centrality = [c * scale for c in centrality]
    return centrality


def _gn_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """``(new, old)`` edges of a growing-network tree, as networkx 3.6.1 grows it.

    Node 1 links to node 0; each later node draws one ``rng.random()`` and
    links to the node where it falls in the cumulative degree distribution.
    """
    if n < 2:
        return []
    edges = [(1, 0)]
    degrees = [1, 1]
    for source in range(2, n):
        cumulative = 0.0
        cdf = [0.0]
        for degree in degrees:
            cumulative += degree
            cdf.append(cumulative)
        cdf = [c / cumulative for c in cdf]
        target = bisect_left(cdf, rng.random()) - 1
        edges.append((source, target))
        degrees.append(1)
        degrees[target] += 1
    return edges


def generate_topology(
    cfg: ScenarioConfig,
) -> tuple[list[Device], list[NetworkLink], tuple[int, ...], int]:
    """Preferential-attachment fog network with gateways and one cloud node.

    Betweenness centrality is computed exactly; the ``gateway_count``
    lowest-centrality devices become gateways (ties by id) and the cloud
    device attaches at the single most central node with capacities at the
    top of every range times ``cloud_factor``. Graph, centralities and
    ranking equal those networkx 3.6.1 gave from the same seed, which
    ``tests/data/generator_nx361.json`` pins.
    """
    n = cfg.device_count
    rows = _ba_rows(n, cfg.ba_attachment, _rng(cfg.seed, "topology"))
    centrality = _betweenness(rows)
    by_centrality = sorted(range(n), key=lambda v: (centrality[v], v))
    gateways = tuple(sorted(by_centrality[: cfg.gateway_count]))
    hub = min(range(n), key=lambda v: (-centrality[v], v))

    rng = _rng(cfg.seed, "resources")
    devices = []
    for node in range(n):
        devices.append(
            Device(
                id=node,
                cores=rng.randint(*cfg.cores_range),
                cpu_speed=rng.uniform(*cfg.cpu_speed_range),
                mem=rng.uniform(*cfg.mem_range),
                storage=rng.uniform(*cfg.storage_range),
            )
        )
    cloud_id = n
    devices.append(
        Device(
            id=cloud_id,
            cores=int(cfg.cores_range[1] * cfg.cloud_factor),
            cpu_speed=cfg.cpu_speed_range[1] * cfg.cloud_factor,
            mem=cfg.mem_range[1] * cfg.cloud_factor,
            storage=cfg.storage_range[1] * cfg.cloud_factor,
        )
    )

    links = [
        NetworkLink(a, b, cfg.bandwidth_bytes_per_ms, cfg.latency_ms)
        for a in range(n)
        for b in sorted(rows[a])
        if a < b
    ]
    links.append(NetworkLink(hub, cloud_id, cfg.bandwidth_bytes_per_ms, cfg.latency_ms))
    return devices, links, gateways, cloud_id


def generate_applications(cfg: ScenarioConfig) -> list[Application]:
    """``cfg.app_count`` application templates: growing-network DAGs, sampled demands.

    Each new service attaches by one directed message edge from an earlier
    service, so every service is reachable from the entry service (id 0),
    which receives the single initial request message.
    """
    rng = _rng(cfg.seed, "apps")
    size_lo, size_hi = cfg.message_size_range_kb
    apps = []
    for app_id in range(cfg.app_count):
        n_services = rng.randint(*cfg.service_count_range)
        services = [
            Service(
                id=sid,
                workload=rng.uniform(*cfg.workload_range),
                mem_demand=rng.uniform(*cfg.service_mem_range),
                storage_demand=rng.uniform(*cfg.service_storage_range),
            )
            for sid in range(n_services)
        ]
        messages = [
            Message(source=USER, destination=0, size=rng.uniform(size_lo, size_hi) * 1000.0)
        ]
        # gn edges run new -> old; reverse them so requests flow outward
        for new, old in _gn_edges(n_services, rng):
            messages.append(
                Message(
                    source=old,
                    destination=new,
                    size=rng.uniform(size_lo, size_hi) * 1000.0,
                )
            )
        apps.append(
            Application(
                id=app_id,
                services=services,
                messages=messages,
                deadline=rng.uniform(*cfg.deadline_range_ms),
            )
        )
    return apps


def generate_users(
    cfg: ScenarioConfig, gateways: Sequence[int]
) -> tuple[list[AppRequest], Schedule]:
    """One request per user: a random gateway, then a random application.

    In deadline mode every request repeats with the configured period until
    the horizon; otherwise each request fires once at t=0. The requests of
    one tick share its time object.
    """
    if not gateways:
        raise ConfigError("cannot attach users without gateways")
    rng = _rng(cfg.seed, "users")
    ordered_gateways = sorted(gateways)
    requests = []
    for uid in range(cfg.user_count):
        gateway = rng.choice(ordered_gateways)  # drawn before the app: this order fixes the scenario
        requests.append(AppRequest(uid, app_id=rng.randrange(cfg.app_count), gateway=gateway))

    ticks = [0.0]
    if cfg.deadline_mode:
        count = int(math.floor(cfg.horizon_s / cfg.request_period_s))
        ticks = [k * cfg.request_period_s for k in range(1, count + 1)]
    ids = tuple(req.request_id for req in requests)
    return requests, Schedule([t for t in ticks for _ in ids], ids * len(ticks))


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Full scenario bundle from one config and seed."""
    devices, links, gateways, cloud_id = generate_topology(cfg)
    apps = generate_applications(cfg)
    requests, schedule = generate_users(cfg, gateways)
    return Scenario(
        config=cfg,
        devices=devices,
        links=links,
        cloud_id=cloud_id,
        apps=apps,
        requests=requests,
        schedule=schedule,
    )
