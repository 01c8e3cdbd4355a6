"""Replay of placed applications over the request schedule, with failure injection.

Requests fire at their scheduled times; in faulty mode one device dies per
failure period until none remain. There is no queuing model: concurrent
requests never slow each other, and no re-placement happens after a
failure. A request's outcome is therefore a function of the request and of
the set of devices dead at its time alone.

``run`` works tick by tick, a tick being the requests scheduled at one
instant. It records each tick as one block: its time, its request ids and
a verdict map from request id to (status, response time). Consecutive
ticks share the map until a death or a request not seen before changes
it, and share the id tuple while they fire the same requests in the same
order, so a periodic schedule under one dead set is a run of identical
blocks. A verdict stays in the map across later deaths until one of them
touches its gateway, one of its hosts, or a relay of a route it used; a
failed dependency is kept for good, since deaths are never undone.
``SimulationResult.outcomes`` reads the blocks as one record per scheduled
request, built only when read.
"""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect_right
from operator import itemgetter
from typing import Container, Iterator, Mapping, NamedTuple, Sequence

from .model import (
    Application,
    PlacementPlan,
    Record,
    Topology,
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

Verdict = tuple[str, float | None]


class RequestOutcome(NamedTuple):
    time_s: float
    request_id: int
    status: str
    rt_ms: float | None = None


class Tick(NamedTuple):
    """The requests fired at one instant, in schedule order, and the verdicts they read.

    ``verdicts`` holds each of this tick's requests' verdicts at this tick,
    and may hold other requests'. Consecutive ticks hold the same
    ``request_ids`` object while their ids are equal, and the same
    ``verdicts`` object until a death or a new request changes it; neither
    is mutated once recorded.
    """

    time_s: float
    request_ids: tuple[int, ...]
    verdicts: Mapping[int, Verdict]


class Outcomes:
    """One outcome per scheduled request, in time order, read off the ticks."""

    __slots__ = ("ticks",)

    def __init__(self, ticks: Sequence[Tick]) -> None:
        self.ticks = ticks

    def __len__(self) -> int:
        return sum(len(tick.request_ids) for tick in self.ticks)

    def __iter__(self) -> Iterator[RequestOutcome]:
        for time_s, ids, verdicts in self.ticks:
            for request_id in ids:
                yield RequestOutcome(time_s, request_id, *verdicts[request_id])


class SimulationResult(Record):
    __slots__ = ("mode", "outcomes", "deaths")

    def __init__(self, mode: str, outcomes: Outcomes, deaths: list[tuple[float, int]]) -> None:
        self.mode = mode
        self.outcomes = outcomes
        self.deaths = deaths


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
    failure_period_s: float = 20.0,
    seed: int = 0,
) -> SimulationResult:
    """Classify every scheduled request up to the scenario's horizon, tick by tick.

    Requests are taken in time order, schedule order breaking ties, and
    grouped into ticks of equal time: the run reads the schedule's columns
    as they are, and sorts the schedule stably by time only if a time is
    below the one before it. A tick's time is reported as a float, so equal
    int and float times give one time whatever their order. Before each
    tick every death at or before its time is applied, so failures precede
    requests at the same instant. A request whose app has an unplaced
    service, a dead host, or no live route fails its dependency; otherwise
    the response time decides between satisfied and missed.

    A verdict is computed once and carried, with the devices it relies on,
    across later deaths: its gateway, its hosts and both ends of every link
    of the routes ``response_times`` took. A failed dependency relies on
    none and never changes, since deaths are never undone. A tick that
    applies deaths drops every carried verdict whose devices include a new
    victim, and then classifies only those of its requests that have no
    verdict.

    Carrying is exact. ``Topology.shortest_hop_path`` is a BFS over
    ascending neighbour lists, so each node's parent is its first-dequeued
    neighbour one level up, and the dequeue order sorts nodes by their
    parent chains. Killing a device that is neither an endpoint nor on the
    returned path only removes candidates: every node's depth and place in
    that order can only move later. The path nodes keep their depths, since
    the path survives, and keep their parents, since every other neighbour
    one level up still dequeues after the parent. So the query returns the
    same links, and the response time summed over them is bit-equal.

    The horizon is ``scenario.config.horizon_s``, which ``ScenarioConfig``
    keeps finite. Raises ValueError for a schedule entry (up to the horizon)
    or a plan of a request the scenario lacks, a plan that does not assign
    exactly its app's services, or one that names a device outside the
    scenario.
    """
    if mode not in (RELIABLE, FAULTY):
        raise ValueError(f"unknown mode {mode!r}")
    horizon = scenario.config.horizon_s
    deaths: list[tuple[float, int]] = []
    if mode == FAULTY:
        fog_ids = [d.id for d in scenario.devices if d.id != scenario.cloud_id]
        deaths = failure_deaths(fog_ids, seed, failure_period_s, horizon)
    topology = scenario.topology()
    instances = {inst.id: inst for inst in scenario.instances()}
    _check_plans(plans, instances, topology.devices.keys())

    times, ids = scenario.schedule.times, scenario.schedule.request_ids
    if not scenario.schedule.ordered:
        times, ids = zip(*sorted(scenario.schedule, key=itemgetter(0)))
    end = bisect_right(times, horizon)
    death_times = [t for t, _ in deaths]
    victims = [victim for _, victim in deaths]
    ticks: list[Tick] = []
    carried: dict[int, tuple[Verdict, frozenset[int]]] = {}
    verdicts: dict[int, Verdict] = {}
    tick_ids: tuple[int, ...] = ()
    dead: frozenset[int] = frozenset()
    epoch = 0
    start = 0
    while start < end:
        time_s = times[start]
        stop = bisect_right(times, time_s, start, end)
        fresh_ids = ids[start:stop] != tick_ids
        if fresh_ids:
            tick_ids = ids[start:stop]
        start = stop
        changed = False
        first, epoch = epoch, bisect_right(death_times, time_s, epoch)
        if epoch > first:
            new_victims = victims[first:epoch]
            dead = dead.union(new_victims)
            stale = [rid for rid, (_, used) in carried.items() if not used.isdisjoint(new_victims)]
            for rid in stale:
                del carried[rid]
            changed = bool(stale)
        # only new ids or dropped verdicts can leave a request of this tick without a verdict
        if fresh_ids or changed:
            for rid in tick_ids:
                if rid in carried:
                    continue
                if rid not in instances:
                    raise ValueError(f"schedule at {time_s} s names unknown request {rid}")
                carried[rid] = _classify(instances[rid], plans.get(rid), topology, dead)
                changed = True
        if changed:
            verdicts = {rid: verdict for rid, (verdict, _) in carried.items()}
        ticks.append(Tick(float(time_s), tick_ids, verdicts))
    outcomes = Outcomes(ticks)
    log.info("simulated %d requests (%s), %d failures", len(outcomes), mode, len(deaths))
    return SimulationResult(mode=mode, outcomes=outcomes, deaths=deaths)


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


def _classify(
    app: Application,
    plan: PlacementPlan | None,
    topology: Topology,
    dead: frozenset[int],
) -> tuple[Verdict, frozenset[int]]:
    """One request's verdict while ``dead`` are down, and the devices it relies on.

    The verdict is (status, response time in ms). A failed dependency
    relies on no device, since deaths are never undone.
    """
    failed = (FAILED_DEPENDENCY, None), frozenset()
    if plan is None or not plan.fully_placed:
        return failed
    if any(host in dead for host in plan.assignment.values()):
        return failed
    try:
        _, rt_a, used = response_times(app, plan.assignment, topology, app.gateway, dead)
    except UnreachableError:
        return failed
    return (SATISFIED if deadline_satisfied(app, rt_a) else MISSED, rt_a), used
