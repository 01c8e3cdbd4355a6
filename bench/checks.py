"""Output checks made on the artifacts alone, without importing fogpart.

``check_chain`` returns, per command output directory, the reasons the
command counts as a failed operation: a non-zero exit, a missing artifact,
or an artifact that breaks one of these rules:

- every plan device exists in the scenario;
- summed committed cores, memory and storage per device never exceed its
  capacity;
- every layer partition covers each device exactly once;
- the simulated request count equals the scheduled requests within the
  horizon;
- every ratio lies in [0, 1].
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

INVALID = "invalid"
# float slack for demand sums compared against capacities
REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _ratio(value, name: str) -> None:
    _require(
        isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
        f"{name} = {value!r} outside [0, 1]",
    )


def _manifest(out: Path) -> None:
    manifest = _load(out / "manifest.json")
    for name in manifest["artifacts"]:
        _require((out / name).is_file(), f"manifest lists missing artifact {name}")


def check_generate(out: Path, ctx: dict) -> None:
    scenario = _load(out / "scenario.json")
    cfg = scenario["config"]
    _require(len(scenario["devices"]) == cfg["device_count"] + 1, "device count != n + cloud")
    ctx["scenario"] = scenario


def check_partition(out: Path, ctx: dict) -> None:
    devices = {d["id"] for d in ctx["scenario"]["devices"]}
    data = _load(out / "partitions.json")
    layers = {"NETWORK": data["network"], **data["resource_layers"]}
    for name, ps in layers.items():
        seen: list[int] = [d for members in ps["partitions"].values() for d in members]
        _require(len(seen) == len(set(seen)), f"{name}: a device sits in two partitions")
        _require(set(seen) == devices, f"{name}: partitions do not cover every device")
    for fp, members in data["feature_partitions"]["device_index"].items():
        _require(set(members) <= devices, f"feature partition {fp} names unknown devices")


def check_place(out: Path, ctx: dict) -> None:
    scenario = ctx["scenario"]
    devices = {d["id"]: d for d in scenario["devices"]}
    apps = {a["id"]: a for a in scenario["apps"]}
    app_of = {r["request_id"]: apps[r["app_id"]] for r in scenario["requests"]}
    plans = _load(out / "plans.json")["plans"]
    _require(set(map(int, plans)) == set(app_of), "plans do not match the requests")

    cores: dict[int, int] = defaultdict(int)
    mem: dict[int, float] = defaultdict(float)
    storage: dict[int, float] = defaultdict(float)
    placed = total = 0
    for rid, plan in plans.items():
        services = {s["id"]: s for s in app_of[int(rid)]["services"]}
        for sid, dev in plan["assignment"].items():
            total += 1
            if dev == INVALID:
                continue
            _require(dev in devices, f"request {rid} service {sid} on unknown device {dev!r}")
            placed += 1
            service = services[int(sid)]
            cores[dev] += 1
            mem[dev] += service["mem_gb"]
            storage[dev] += service["storage_tb"]
    for dev, used in cores.items():
        d = devices[dev]
        _require(used <= d["cores"], f"device {dev}: {used} services on {d['cores']} cores")
        _require(mem[dev] <= d["mem_gb"] * (1 + REL_TOL), f"device {dev}: memory over capacity")
        _require(
            storage[dev] <= d["storage_tb"] * (1 + REL_TOL), f"device {dev}: storage over capacity"
        )

    metrics = _load(out / "metrics.json")
    _ratio(metrics["placement_success_rate"], "placement_success_rate")
    _ratio(metrics["resource_wastage"], "resource_wastage")
    _require(
        metrics["placement_success_rate"] == placed / total,
        "placement_success_rate disagrees with plans.json",
    )


def check_simulate(out: Path, ctx: dict) -> None:
    scenario = ctx["scenario"]
    horizon = scenario["config"]["horizon_s"]
    scheduled = sum(1 for t, _ in scenario["schedule"] if t <= horizon)
    metrics = _load(out / "metrics.json")
    _require(metrics["horizon_s"] == horizon, "simulated horizon differs from the scenario's")
    _require(
        metrics["requests"] == scheduled,
        f"{metrics['requests']} requests simulated, {scheduled} scheduled",
    )
    _require(sum(metrics["outcome_counts"].values()) == scheduled, "outcome counts do not add up")
    _ratio(metrics["deadline_satisfaction"], "deadline_satisfaction")
    with (out / "outcomes.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if scheduled:
        _require(int(rows[-1]["requests"]) == scheduled, "outcomes.csv request total differs")
    for row in rows:
        _ratio(float(row["cumulative_ratio"]), "cumulative_ratio")


def check_report(out: Path, ctx: dict) -> None:
    runs = _load(out / "report.json")["runs"]
    _require(len(runs) == ctx["report_runs"], f"report has {len(runs)} runs")
    for row in runs:
        for key in ("placement_success_rate", "resource_wastage", "deadline_satisfaction"):
            if row.get(key) is not None:
                _ratio(row[key], f"{row['run']}.{key}")


CHECKS = {
    "generate": check_generate,
    "partition": check_partition,
    "place": check_place,
    "simulate": check_simulate,
    "report": check_report,
}


def check_chain(root: Path, commands: list[dict]) -> dict[str, list[str]]:
    """Failure reasons per command output directory; empty lists mean passed."""
    ctx: dict = {"report_runs": len(commands) - 3}
    problems: dict[str, list[str]] = {}
    for cmd in commands:
        reasons = problems.setdefault(cmd["out"], [])
        if cmd["exit"] != 0:
            reasons.append(f"exit code {cmd['exit']}")
            continue
        out = root / cmd["out"]
        try:
            _manifest(out)
            CHECKS[cmd["command"]](out, ctx)
        except CheckFailed as exc:
            reasons.append(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            reasons.append(f"malformed output: {exc!r}")
    return problems
