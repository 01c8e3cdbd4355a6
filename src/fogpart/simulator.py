"""Deterministic event-driven execution of placed applications over time.

Requests fire at their scheduled times; in faulty mode one device dies per
failure period until none remain. There is no queuing model: concurrent
requests never slow each other, and no re-placement happens after a
failure.
"""

from __future__ import annotations

import logging
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class FailureSchedule:
    """One failure per period; the victim order is a seeded permutation."""

    period_s: float
    victims: tuple[int, ...]

    @classmethod
    def build(cls, device_ids: Sequence[int], seed: int, period_s: float = 20.0) -> "FailureSchedule":
        if period_s <= 0:
            raise ValueError("failure period must be positive")
        order = sorted(device_ids)
        random.Random(f"{seed}:failures").shuffle(order)
        return cls(period_s=period_s, victims=tuple(order))


@dataclass
class SimulationState:
    clock_ms: float
    topology: Topology
    dead: set[int] = field(default_factory=set)
    pending_victims: deque[int] = field(default_factory=deque)
    deaths: list[tuple[float, int]] = field(default_factory=list)
    epoch: int = 0


@dataclass
class SimulationResult:
    mode: str
    horizon_s: float
    outcomes: list[RequestOutcome]
    deaths: list[tuple[float, int]]

    @property
    def satisfied(self) -> int:
        return sum(1 for o in self.outcomes if o.status == SATISFIED)


def inject_failure(state: SimulationState, time_s: float) -> None:
    """Kill the next victim: residuals freeze, nothing is re-placed."""
    if not state.pending_victims:
        raise RuntimeError("no devices left to fail")
    victim = state.pending_victims.popleft()
    state.topology.devices[victim].alive = False
    state.dead.add(victim)
    state.deaths.append((time_s, victim))
    state.epoch += 1


def run(
    scenario: Scenario,
    plans: Mapping[int, PlacementPlan],
    mode: str = RELIABLE,
    horizon_s: float | None = None,
    failure_period_s: float = 20.0,
    seed: int = 0,
) -> SimulationResult:
    """Process every scheduled request and classify its outcome.

    A request whose app has an unplaced service, a dead host, or no live
    route fails its dependency; otherwise the response time decides between
    satisfied and missed. Failures scheduled at the same instant as
    requests are applied first.
    """
    if mode not in (RELIABLE, FAULTY):
        raise ValueError(f"unknown mode {mode!r}")
    horizon = scenario.config.horizon_s if horizon_s is None else horizon_s
    topology = scenario.topology()
    users = scenario.users_by_id()
    instances = {inst.id: inst for inst in scenario.instances()}

    state = SimulationState(clock_ms=0.0, topology=topology)
    events: list[tuple[float, int, int, int]] = []  # (time_s, priority, seq, payload)
    seq = 0
    if mode == FAULTY:
        fog_ids = [d.id for d in scenario.devices if d.id != scenario.cloud_id]
        schedule = FailureSchedule.build(fog_ids, seed, failure_period_s)
        state.pending_victims = deque(schedule.victims)
        t = schedule.period_s
        remaining = len(schedule.victims)
        while remaining > 0 and t <= horizon:
            events.append((t, 0, seq, -1))
            seq += 1
            t += schedule.period_s
            remaining -= 1
    for t, request_id in scenario.schedule:
        if t <= horizon:
            events.append((t, 1, seq, request_id))
            seq += 1
    events.sort()

    outcomes: list[RequestOutcome] = []
    rt_cache: dict[tuple[int, int], float | None] = {}
    for time_s, priority, _, payload in events:
        state.clock_ms = time_s * 1000.0
        if priority == 0:
            inject_failure(state, time_s)
            continue
        request_id = payload
        outcomes.append(
            _classify(request_id, time_s, instances, users, plans, state, rt_cache)
        )
    log.info("simulated %d requests (%s), %d failures", len(outcomes), mode, len(state.deaths))
    return SimulationResult(
        mode=mode, horizon_s=horizon, outcomes=outcomes, deaths=list(state.deaths)
    )


def _classify(
    request_id: int,
    time_s: float,
    instances: Mapping[int, Application],
    users: Mapping[int, object],
    plans: Mapping[int, PlacementPlan],
    state: SimulationState,
    rt_cache: dict[tuple[int, int], float | None],
) -> RequestOutcome:
    plan = plans.get(request_id)
    app = instances.get(request_id)
    if plan is None or app is None or not plan.fully_placed:
        return RequestOutcome(time_s, request_id, FAILED_DEPENDENCY)
    if any(host in state.dead for host in plan.assignment.values()):
        return RequestOutcome(time_s, request_id, FAILED_DEPENDENCY)

    key = (request_id, state.epoch)
    if key not in rt_cache:
        gateway = users[app.user].gateway
        try:
            _, rt_a = response_times(
                app, plan.assignment, state.topology, gateway, frozenset(state.dead)
            )
            rt_cache[key] = rt_a
        except UnreachableError:
            rt_cache[key] = None
    rt_a = rt_cache[key]
    if rt_a is None:
        return RequestOutcome(time_s, request_id, FAILED_DEPENDENCY)
    status = SATISFIED if deadline_satisfied(app, rt_a) else MISSED
    return RequestOutcome(time_s, request_id, status, rt_ms=rt_a)
