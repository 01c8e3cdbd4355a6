"""Replay of placed applications over the request schedule, with failure injection.

Requests fire at their scheduled times; in faulty mode one device dies per
failure period until none remain. There is no queuing model: concurrent
requests never slow each other, and no re-placement happens after a
failure. A request's outcome is therefore a function of the request and of
the set of devices dead at its time alone. ``run`` classifies a request
once and keeps that verdict across later deaths until one of them touches
its gateway, one of its hosts, or a relay of a route it used; a failed
dependency is kept for good, since deaths are never undone.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Container, Mapping, NamedTuple, Sequence

from .model import (
    Application,
    PlacementPlan,
    Topology,
    USER,
    UnreachableError,
    deadline_satisfied,
    response_times,
)
from .scenario import Scenario

log = logging.getLogger(__name__)

RELIABLE = "reliable"
FAULTY = "faulty"

SATISFIED = "satisfied"
MISSED = "missed"
FAILED_DEPENDENCY = "failed_dependency"


class RequestOutcome(NamedTuple):
    time_s: float
    request_id: int
    status: str
    rt_ms: float | None = None


@dataclass
class SimulationResult:
    mode: str
    horizon_s: float
    outcomes: list[RequestOutcome]
    deaths: list[tuple[float, int]]


def failure_deaths(
    device_ids: Sequence[int], seed: int, period_s: float, horizon_s: float
) -> list[tuple[float, int]]:
    """Deaths ``(time_s, victim)``: one per period, victims in a seeded order.

    Times accumulate as ``t += period_s`` from ``t = period_s``, which fixes
    how they round and so how they tie with request times. The list stops
    at the horizon or when every device is dead.
    """
    if not 0 < period_s < math.inf:
        raise ValueError("failure period must be positive and finite")
    victims = sorted(device_ids)
    random.Random(f"{seed}:failures").shuffle(victims)
    deaths: list[tuple[float, int]] = []
    t = period_s
    for victim in victims:
        if t > horizon_s:
            break
        deaths.append((t, victim))
        t += period_s
    return deaths


def run(
    scenario: Scenario,
    plans: Mapping[int, PlacementPlan],
    mode: str = RELIABLE,
    horizon_s: float | None = None,
    failure_period_s: float = 20.0,
    seed: int = 0,
) -> SimulationResult:
    """Classify every scheduled request up to the horizon, in time order.

    Requests are taken in time order, schedule order breaking ties. Before
    each request every death at or before its time is applied, so failures
    precede requests at the same instant. A request whose app has an
    unplaced service, a dead host, or no live route fails its dependency;
    otherwise the response time decides between satisfied and missed.

    A verdict is computed once and carried across later deaths. A failed
    dependency never changes, since deaths are never undone. A satisfied or
    missed verdict is recomputed only after a death of one of the devices
    it relies on: its gateway, its hosts and the relays of the routes
    ``response_times`` took. That device set is found only when a later
    death has to be tested against it, by repeating those route queries
    under the dead set the verdict was computed with.

    Carrying is exact. ``Topology.shortest_hop_path`` is a BFS over
    ascending neighbour lists, so each node's parent is its first-dequeued
    neighbour one level up, and the dequeue order sorts nodes by their
    parent chains. Killing a device that is neither an endpoint nor on the
    returned path only removes candidates: every node's depth and place in
    that order can only move later. The path nodes keep their depths, since
    the path survives, and keep their parents, since every other neighbour
    one level up still dequeues after the parent. So the query returns the
    same links, and the response time summed over them is bit-equal.

    Raises ValueError for a non-finite horizon, a schedule entry (up to the
    horizon) or a plan of a request the scenario lacks, a plan that does not
    assign exactly its app's services, or one that names a device outside
    the scenario.
    """
    if mode not in (RELIABLE, FAULTY):
        raise ValueError(f"unknown mode {mode!r}")
    horizon = scenario.config.horizon_s if horizon_s is None else horizon_s
    if not math.isfinite(horizon):
        raise ValueError("horizon must be finite")
    deaths: list[tuple[float, int]] = []
    if mode == FAULTY:
        fog_ids = [d.id for d in scenario.devices if d.id != scenario.cloud_id]
        deaths = failure_deaths(fog_ids, seed, failure_period_s, horizon)
    topology = scenario.topology()
    instances = {inst.id: inst for inst in scenario.instances()}
    _check_plans(plans, instances, topology.devices.keys())

    requests = sorted((e for e in scenario.schedule if e[0] <= horizon), key=itemgetter(0))
    victims = [victim for _, victim in deaths]
    outcomes: list[RequestOutcome] = []
    dead: frozenset[int] = frozenset()
    epoch = 0
    carried: dict[int, _Carried] = {}
    for time_s, request_id in requests:
        while epoch < len(deaths) and deaths[epoch][0] <= time_s:
            dead = dead | {victims[epoch]}
            epoch += 1
        kept = carried.get(request_id)
        if kept is None or kept.epoch != epoch:
            if kept is None or not kept.holds(victims[kept.epoch:epoch], topology):
                if request_id not in instances:
                    raise ValueError(f"schedule at {time_s} s names unknown request {request_id}")
                kept = carried[request_id] = _Carried(
                    instances[request_id], plans.get(request_id), topology, dead
                )
            kept.epoch = epoch
        outcomes.append(RequestOutcome(time_s, request_id, *kept.verdict))
    log.info("simulated %d requests (%s), %d failures", len(outcomes), mode, len(deaths))
    return SimulationResult(mode=mode, horizon_s=horizon, outcomes=outcomes, deaths=deaths)


def _check_plans(
    plans: Mapping[int, PlacementPlan],
    instances: Mapping[int, Application],
    device_ids: Container[int],
) -> None:
    """Reject plans read from outside that the scenario cannot replay."""
    for request_id, plan in plans.items():
        app = instances.get(request_id)
        if app is None:
            raise ValueError(f"plan of request {request_id}: the scenario has no such request")
        services = {s.id for s in app.services}
        if plan.assignment.keys() != services:
            raise ValueError(
                f"plan of request {request_id} assigns services {sorted(plan.assignment)}, "
                f"but its app has services {sorted(services)}"
            )
        for sid, host in plan.assignment.items():
            if host is not None and host not in device_ids:
                raise ValueError(
                    f"plan of request {request_id} places service {sid} on device {host}, "
                    "which is not in the scenario"
                )


class _Carried:
    """A request's verdict, what it was computed from, and the epoch it was last checked in."""

    __slots__ = ("app", "plan", "dead", "verdict", "epoch", "devices")

    def __init__(
        self, app: Application, plan: PlacementPlan | None, topology: Topology, dead: frozenset[int]
    ) -> None:
        self.app = app
        self.plan = plan
        self.dead = dead
        self.verdict = _classify(app, plan, topology, dead)
        self.epoch = 0
        self.devices: frozenset[int] | None = None

    def holds(self, victims: Sequence[int], topology: Topology) -> bool:
        """Whether the verdict still stands after ``victims`` died."""
        if self.verdict[0] == FAILED_DEPENDENCY:
            return True
        if self.devices is None:
            # any other verdict means a full plan whose every route was live
            app, assignment = self.app, self.plan.assignment
            devices = {app.gateway, *assignment.values()}
            for msg in app.messages:
                src = app.gateway if msg.source == USER else assignment[msg.source]
                for link in topology.shortest_hop_path(src, assignment[msg.destination], self.dead):
                    devices.add(link.a)
                    devices.add(link.b)
            self.devices = frozenset(devices)
        return self.devices.isdisjoint(victims)


def _classify(
    app: Application,
    plan: PlacementPlan | None,
    topology: Topology,
    dead: frozenset[int],
) -> tuple[str, float | None]:
    """(status, response time in ms) of one request while ``dead`` are down."""
    if plan is None or not plan.fully_placed:
        return FAILED_DEPENDENCY, None
    if any(host in dead for host in plan.assignment.values()):
        return FAILED_DEPENDENCY, None
    try:
        _, rt_a = response_times(app, plan.assignment, topology, app.gateway, dead)
    except UnreachableError:
        return FAILED_DEPENDENCY, None
    return (SATISFIED if deadline_satisfied(app, rt_a) else MISSED), rt_a
