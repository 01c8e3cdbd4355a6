"""The benchmark's workloads and the 12-command CLI chain each one runs.

Every workload uses ``ScenarioConfig(device_count=n, gateway_count=n // 4)``
under one preset; only the preset, ``n`` and the simulator's failure period
differ. See README.md for why each was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

STRATEGIES = ("multilayer", "first_fit", "connectivity_greedy")
MODES = ("reliable", "faulty")


@dataclass(frozen=True)
class Workload:
    preset: str
    devices: int
    failure_period_s: float
    horizon_s: float | None = None  # None keeps the ScenarioConfig default

    def config(self) -> dict:
        cfg = {
            "scale": self.preset,
            "device_count": self.devices,
            "gateway_count": self.devices // 4,
        }
        if self.horizon_s is not None:
            cfg["horizon_s"] = self.horizon_s
        return cfg


WORKLOADS = {
    # graph scaling: similarity layers, Louvain and placement routing dominate
    "fleet-800": Workload("LARGE", 800, 20.0),
    # replay: 125,832 scheduled requests through the simulator and serializer
    "stream-100": Workload("D-LARGE", 100, 20.0),
    # one device death every 5 s, so route queries run under 400 dead sets
    "churn-400": Workload("D-LARGE", 400, 5.0),
    # smallest size, for the smoke test only; not listed in BENCHMARK.json
    "smoke": Workload("D-SMALL", 20, 20.0, horizon_s=100.0),
}


def chain(
    workload: Workload, scenario_seed: int, order_seed: int, config: Path, out: Path
) -> list[tuple[str, str, list[str]]]:
    """The 12 commands as ``(command, output dir, argv)``, in execution order.

    ``scenario_seed`` is the only seed the program receives. ``order_seed``
    shuffles the three place commands among themselves and the six simulate
    commands among themselves; each reads only earlier stages, so the order
    changes no artifact.
    """
    scenario = out / "generate" / "scenario.json"
    partitions = out / "partition" / "partitions.json"
    place = [
        ("place", out / "place" / strategy,
         ["place", "--scenario", str(scenario), "--partitions", str(partitions),
          "--strategy", strategy])
        for strategy in STRATEGIES
    ]
    simulate = [
        ("simulate", out / "simulate" / f"{strategy}-{mode}",
         ["simulate", "--scenario", str(scenario),
          "--plans", str(out / "place" / strategy / "plans.json"),
          "--mode", mode, "--failure-period-s", repr(workload.failure_period_s),
          "--seed", str(scenario_seed)])
        for strategy in STRATEGIES
        for mode in MODES
    ]
    runs = [str(d) for _, d, _ in place + simulate]
    order = random.Random(order_seed)
    order.shuffle(place)
    order.shuffle(simulate)
    steps = [
        ("generate", out / "generate",
         ["generate", "--config", str(config), "--seed", str(scenario_seed)]),
        ("partition", out / "partition",
         ["partition", "--scenario", str(scenario), "--seed", str(scenario_seed)]),
        *place,
        *simulate,
        ("report", out / "report", ["report", "--runs", *runs]),
    ]
    return [(cmd, str(d), [*argv, "--out", str(d)]) for cmd, d, argv in steps]
