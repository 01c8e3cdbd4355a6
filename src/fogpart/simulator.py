"""Replay of placed applications over the request schedule, one verdict per failure epoch.

Requests fire at their scheduled times; in faulty mode one device dies per
failure period until none remain. There is no queuing model: concurrent
requests never slow each other, and no re-placement happens after a
failure. A request's outcome is therefore a function of the request and of
its failure epoch (the set of devices dead at its time) alone, so ``run``
classifies each request once per epoch and repeats that verdict for every
later tick of the same epoch.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Container, Mapping, Sequence

from .model import (
    Application,
    PlacementPlan,
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


@dataclass(frozen=True)
class RequestOutcome:
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
    if period_s <= 0:
        raise ValueError("failure period must be positive")
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
    otherwise the response time decides between satisfied and missed. The
    verdict is computed once per request and failure epoch: the memo is
    emptied at each death, since epochs never recur.

    Raises ValueError for a schedule entry (up to the horizon) or a plan of
    a request the scenario lacks, a plan that does not assign exactly its
    app's services, or one that names a device outside the scenario.
    """
    if mode not in (RELIABLE, FAULTY):
        raise ValueError(f"unknown mode {mode!r}")
    horizon = scenario.config.horizon_s if horizon_s is None else horizon_s
    deaths: list[tuple[float, int]] = []
    if mode == FAULTY:
        fog_ids = [d.id for d in scenario.devices if d.id != scenario.cloud_id]
        deaths = failure_deaths(fog_ids, seed, failure_period_s, horizon)
    topology = scenario.topology()
    instances = {inst.id: inst for inst in scenario.instances()}
    _check_plans(plans, instances, topology.devices.keys())

    requests = sorted((e for e in scenario.schedule if e[0] <= horizon), key=itemgetter(0))
    outcomes: list[RequestOutcome] = []
    dead: frozenset[int] = frozenset()
    epoch = 0
    verdicts: dict[int, tuple[str, float | None]] = {}
    for time_s, request_id in requests:
        while epoch < len(deaths) and deaths[epoch][0] <= time_s:
            dead = dead | {deaths[epoch][1]}
            epoch += 1
            verdicts = {}
        verdict = verdicts.get(request_id)
        if verdict is None:
            if request_id not in instances:
                raise ValueError(f"schedule at {time_s} s names unknown request {request_id}")
            verdict = verdicts[request_id] = _classify(
                instances[request_id], plans.get(request_id), topology, dead
            )
        outcomes.append(RequestOutcome(time_s, request_id, *verdict))
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
