"""Versioned JSON/CSV file formats for scenario bundles, partitions, and plans.

Every JSON artifact is written compact and key-sorted, on one line plus a
newline, so identical inputs serialize to identical bytes;
``python -m json.tool FILE`` pretty-prints one. The versioned documents
carry a ``schema_version`` field. Each kind of document has its own
version, and a reader accepts only that one:

- ``scenario.json``: 2, in which each request carries its gateway.
  Version 1 kept those gateways in a separate user list, one user per
  request, and also stored the generator's gateway list, which no command
  read, and a null ``user`` on every app template;
- ``partitions.json``: 4, which holds the network and resource-layer
  partitions, the feature partitions' members, and the config hash of the
  scenario they were built from; each fp's devices and the feature triplets
  are derived on load. ``device_index`` is written for ``bench/checks.py``
  only. Version 3 also stored the triplets, 2 lacked the hash, and 1 held
  the compressed graph;
- ``plans.json``: 2, which holds each plan's assignment only. Version 1
  also stored per-service and app response times, which no command read.
"""

from __future__ import annotations

import csv
import gc
import json
import math
from contextlib import contextmanager
from dataclasses import fields
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .model import Application, Device, Message, NetworkLink, PlacementPlan, Service
from .multilayer import RESOURCE_LAYERS, Layer
from .partitioner import CompressedNode, FeaturePartitionSet, PartitionSet
from .partitioner import compress_graph, derive_feature_partitions
from .scenario import RANGE_FIELDS, AppRequest, Scenario, ScenarioConfig

#: document kind -> the one schema_version its reader accepts
SCHEMA_VERSIONS = {"scenario": 2, "partitions": 4, "plans": 2}

INVALID_MARK = "invalid"


def dump_json(path: Path, payload: Mapping[str, Any]) -> Path:
    """Write ``payload`` as compact, key-sorted JSON: one line plus a newline.

    Compact separators keep ``json`` on its C encoder; ``indent`` would
    force the pure-Python one. ``python -m json.tool`` pretty-prints the file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
    return path


def load_json(path: Path) -> dict[str, Any]:
    """The JSON document at ``path``, compact or pretty-printed alike.

    The cyclic collector is paused while decoding and then restored to the
    caller's state: a decoded document holds only acyclic lists and dicts,
    so a collection finds nothing to free, yet it would re-walk the growing
    heap every few hundred allocations.
    """
    text = Path(path).read_text()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return path


# -- scenario bundles --------------------------------------------------------


def config_to_dict(cfg: ScenarioConfig) -> dict[str, Any]:
    data = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for name in RANGE_FIELDS:
        data[name] = list(data[name])
    return data


def config_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    if not isinstance(data, Mapping):
        raise TypeError("config must be a JSON object")
    kwargs = dict(data)
    for name in RANGE_FIELDS:
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    return ScenarioConfig(**kwargs)


def _app_to_dict(app: Application) -> dict[str, Any]:
    return {
        "id": app.id,
        "deadline_ms": app.deadline,
        "services": [
            {
                "id": s.id,
                "workload_mi": s.workload,
                "mem_gb": s.mem_demand,
                "storage_tb": s.storage_demand,
            }
            for s in app.services
        ],
        "messages": [
            {"source": m.source, "destination": m.destination, "size_bytes": m.size}
            for m in app.messages
        ],
    }


#: A scenario record's integer keys and then its number keys, each in the
#: order of the constructor's arguments.
_DEVICE_KEYS = (("id", "cores"), ("cpu_speed_mi_s", "mem_gb", "storage_tb"))
_LINK_KEYS = (("a", "b"), ("bandwidth_bytes_ms", "latency_ms"))
_APP_KEYS = (("id",), ("deadline_ms",))
_SERVICE_KEYS = (("id",), ("workload_mi", "mem_gb", "storage_tb"))
_MESSAGE_KEYS = (("source", "destination"), ("size_bytes",))
_REQUEST_KEYS = (("request_id", "app_id", "gateway"), ())


def _apps_from_dicts(apps: list) -> list[Application]:
    heads = _fields(apps, "apps", *_APP_KEYS)
    return [
        Application(
            id=app_id,
            services=[
                Service(*values)
                for values in _fields(app["services"], f"apps[{k}].services", *_SERVICE_KEYS)
            ],
            messages=[
                Message(*values)
                for values in _fields(app["messages"], f"apps[{k}].messages", *_MESSAGE_KEYS)
            ],
            deadline=deadline,
        )
        for k, (app, (app_id, deadline)) in enumerate(zip(apps, heads))
    ]


def _fields(
    records: list, where: str, ints: tuple[str, ...], numbers: tuple[str, ...]
) -> Iterator[tuple]:
    """Each record's values at the keys ``ints`` and then ``numbers``, type-checked.

    The rule is ``ScenarioConfig``'s: an integer is an ``int``, and a number
    is a finite ``int`` or ``float``; a bool is neither. The columns are
    checked whole; only a failure looks for the record at fault, which the
    ValueError names within ``where``, as in ``devices[0].cores``.
    """
    keys = ints + numbers
    columns = [list(map(itemgetter(key), records)) for key in keys]
    for key, column in zip(keys, columns):
        integer = key in ints
        if not _column_ok(column, integer):
            k = next(k for k, value in enumerate(column) if not _column_ok([value], integer))
            expected = "an integer" if integer else "a finite number"
            bad = json.dumps(column[k])
            raise ValueError(f"scenario {where}[{k}].{key} is {bad}; expected {expected}")
    return zip(*columns)


def _column_ok(column: list, integer: bool) -> bool:
    types = set(map(type, column))
    if integer or types <= {int}:
        return types <= {int}
    try:
        return types <= {int, float} and all(map(math.isfinite, column))
    except OverflowError:  # an int too large for a float, which is still finite
        return all(-math.inf < v < math.inf for v in column)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSIONS["scenario"],
        "config": config_to_dict(scenario.config),
        "devices": [
            {
                "id": d.id,
                "cores": d.cores,
                "cpu_speed_mi_s": d.cpu_speed,
                "mem_gb": d.mem,
                "storage_tb": d.storage,
            }
            for d in scenario.devices
        ],
        "links": [
            {"a": l.a, "b": l.b, "bandwidth_bytes_ms": l.bandwidth, "latency_ms": l.latency}
            for l in scenario.links
        ],
        "cloud_id": scenario.cloud_id,
        "apps": [_app_to_dict(a) for a in scenario.apps],
        "requests": [
            {"request_id": r.request_id, "app_id": r.app_id, "gateway": r.gateway}
            for r in scenario.requests
        ],
        "schedule": scenario.schedule,
    }


def scenario_from_dict(data: Mapping[str, Any], schedule: bool = True) -> Scenario:
    """The scenario of a ``scenario.json`` document.

    The schedule rows are checked and kept as they are. ``schedule=False``
    skips them and leaves the scenario's schedule empty, for readers that
    never replay it: a D-LARGE schedule holds 125,832 rows, most of a
    document's decoding.
    """
    _check_version(data, "scenario")
    with _required_keys("scenario"):
        rows = data["schedule"]
        if schedule:
            _check_schedule(rows)
        devices = [Device(*values) for values in _fields(data["devices"], "devices", *_DEVICE_KEYS)]
        cloud_id = data["cloud_id"]
        # the simulator keeps the cloud out of faulty mode's deaths by this id
        if type(cloud_id) is not int or all(d.id != cloud_id for d in devices):
            raise ValueError(f"scenario cloud_id is {json.dumps(cloud_id)}; expected a device id")
        return Scenario(
            config=config_from_dict(data["config"]),
            devices=devices,
            links=[NetworkLink(*values) for values in _fields(data["links"], "links", *_LINK_KEYS)],
            cloud_id=cloud_id,
            apps=_apps_from_dicts(data["apps"]),
            requests=[
                AppRequest(*values) for values in _fields(data["requests"], "requests", *_REQUEST_KEYS)
            ],
            schedule=rows if schedule else [],
        )


def _check_schedule(rows: Any) -> None:
    """Raise ValueError naming the first row that is not ``[time_s >= 0, request_id]``."""
    if type(rows) is not list:
        raise ValueError("scenario schedule must be a list of [time_s, request_id] rows")
    if not _rows_ok(rows):
        # the columns are checked whole; only a failure looks for the row at fault
        index = next(i for i, row in enumerate(rows) if not _rows_ok([row]))
        raise ValueError(
            f"schedule row {index} is {json.dumps(rows[index])}; expected [time_s, request_id] "
            "with time_s a finite number >= 0 and request_id an integer"
        )


def _rows_ok(rows: list) -> bool:
    """Whether every row is a finite time >= 0 and an integer request id, column by column."""
    try:
        times = list(map(itemgetter(0), rows))
        ids = list(map(itemgetter(1), rows))
        lengths = set(map(len, rows))
    except (TypeError, KeyError, IndexError):
        return False
    # bool is neither int nor float here, and a NaN fails 0 <= t
    return (
        lengths <= {2}
        and set(map(type, times)) <= {int, float}
        and set(map(type, ids)) <= {int}
        and all(0 <= t < math.inf for t in set(times))
    )


# -- partition results -------------------------------------------------------


def _node_key(node: CompressedNode) -> str:
    layer, pid = node
    return f"{Layer(layer).name}:{pid}"


def _layer(name: str) -> Layer:
    # a KeyError would read as a missing key (see _required_keys)
    try:
        return Layer[name]
    except KeyError:
        raise ValueError(f"unknown layer {name!r}") from None


def _partition_set_to_dict(ps: PartitionSet) -> dict[str, Any]:
    return {
        "layer": ps.layer.name,
        "modularity": ps.modularity,
        "partitions": {str(pid): sorted(devs) for pid, devs in ps.partitions.items()},
    }


def _partition_set_from_dict(data: Mapping[str, Any], layer: Layer, ids: set[int]) -> PartitionSet:
    if _layer(data["layer"]) is not layer:
        raise ValueError(f"the {layer.name} partitions are labelled {data['layer']}")
    partitions = {int(pid): frozenset(devs) for pid, devs in data["partitions"].items()}
    _check_cover(partitions, f"{layer.name} partition", ids, "a scenario device")
    assignment = {dev: pid for pid, devs in partitions.items() for dev in devs}
    return PartitionSet(layer, assignment, partitions, _modularity(data["modularity"], layer.name))


def _modularity(value: Any, name: str) -> float:
    """``value`` if it is a finite number by ``_column_ok``'s rule; else a ValueError naming ``name``."""
    if not _column_ok([value], integer=False):
        raise ValueError(f"partitions {name} modularity is {json.dumps(value)}; expected a finite number")
    return value


def _check_cover(groups: Mapping[int, frozenset], kind: str, items: set, what: str) -> None:
    """ValueError unless no group is empty and the groups hold each of ``items`` once.

    A group is a ``kind``, as in ``feature partition``. An item must also
    have an item's type, since ``True == 1.0 == 1``.
    """
    types = set(map(type, items))
    owner: dict[Any, int] = {}
    for group, members in sorted(groups.items()):
        if not members:
            raise ValueError(f"{kind} {group} is empty")
        for item in members:
            if type(item) not in types or item not in items:
                raise ValueError(f"{kind} {group} holds {json.dumps(item)}, which is not {what}")
            if owner.setdefault(item, group) != group:
                raise ValueError(f"{kind}s {owner[item]} and {group} both hold {json.dumps(item)}")
    if len(owner) < len(items):
        raise ValueError(f"no {kind} holds {json.dumps(min(items - owner.keys()))}")


def partitions_to_dict(
    fps: FeaturePartitionSet,
    network: PartitionSet,
    layer_sets: Mapping[Layer, PartitionSet],
    scenario_config_hash: str,
) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSIONS["partitions"],
        "scenario_config_hash": scenario_config_hash,
        "network": _partition_set_to_dict(network),
        "resource_layers": {
            layer.name: _partition_set_to_dict(ps) for layer, ps in layer_sets.items()
        },
        "feature_partitions": {
            "modularity": fps.modularity,
            "members": {
                str(fp): sorted(_node_key(n) for n in nodes)
                for fp, nodes in fps.feature_partitions.items()
            },
            # output only, for bench/checks.py: partitions_from_dict derives it
            "device_index": {str(fp): sorted(devs) for fp, devs in fps.device_index.items()},
        },
    }


def partitions_from_dict(
    data: Mapping[str, Any], devices: Sequence[Device]
) -> tuple[FeaturePartitionSet, PartitionSet, str]:
    """The feature and network partitions of ``devices``, and the scenario config hash.

    Each fp's devices and the triplets are derived, not read. ValueError unless each
    layer holds every device once, the fps every resource-layer partition once, and
    every modularity is a finite number.
    """
    _check_version(data, "partitions")
    ids = {d.id for d in devices}
    with _required_keys("partitions"):
        network = _partition_set_from_dict(data["network"], Layer.NETWORK, ids)
        layers = data["resource_layers"]
        layer_sets = [_partition_set_from_dict(layers[layer.name], layer, ids) for layer in RESOURCE_LAYERS]
        cg = compress_graph(layer_sets, {d.id: d for d in devices})
        fp_data = data["feature_partitions"]
        nodes = {_node_key(node): node for node in cg.nodes}
        keys = {int(fp): frozenset(ks) for fp, ks in fp_data["members"].items()}
        _check_cover(keys, "feature partition", set(nodes), "a resource-layer partition")
        members = {fp: frozenset(map(nodes.__getitem__, ks)) for fp, ks in keys.items()}
        fps = derive_feature_partitions(members, cg, _modularity(fp_data["modularity"], "FEATURE"))
        return fps, network, data["scenario_config_hash"]


# -- placement plans ---------------------------------------------------------


def plans_to_dict(
    plans: Mapping[int, PlacementPlan],
    strategy: str,
    alpha: float,
    beta: float,
) -> dict[str, Any]:
    serialized = {
        str(request_id): {
            "assignment": {
                str(sid): (INVALID_MARK if dev is None else dev)
                for sid, dev in plan.assignment.items()
            }
        }
        for request_id, plan in plans.items()
    }
    return {
        "schema_version": SCHEMA_VERSIONS["plans"],
        "strategy": strategy,
        "alpha": alpha,
        "beta": beta,
        "plans": serialized,
    }


def plans_from_dict(data: Mapping[str, Any]) -> tuple[dict[int, PlacementPlan], str]:
    _check_version(data, "plans")
    with _required_keys("plans"):
        plans = {
            int(request_id): PlacementPlan(
                {int(sid): _host(request_id, sid, dev) for sid, dev in body["assignment"].items()}
            )
            for request_id, body in data["plans"].items()
        }
        return plans, data["strategy"]


def _host(request_id: str, sid: str, dev: Any) -> int | None:
    """A plan's host for a service: a device id, or None for ``INVALID_MARK``."""
    if dev == INVALID_MARK:
        return None
    # int("33"), int(33.7) and int(True) would all read as device ids
    if type(dev) is not int:
        raise ValueError(
            f"plan of request {request_id} puts service {sid} on {json.dumps(dev)}; "
            f"expected a device id or {json.dumps(INVALID_MARK)}"
        )
    return dev


@contextmanager
def _required_keys(kind: str) -> Iterator[None]:
    """Turn a missing key or a wrong-typed value of a ``kind`` document into a ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{kind} document is missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{kind} document is malformed: {exc}") from None


def _check_version(data: Mapping[str, Any], kind: str) -> None:
    version = data.get("schema_version")
    expected = SCHEMA_VERSIONS[kind]
    # True, 1.0 and 3.0 compare equal to ints; only an int (bool is not one) is a version
    if type(version) is not int or version != expected:
        raise ValueError(f"{kind} document has schema_version {version!r}, expected {expected}")
