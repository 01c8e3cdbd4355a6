"""Round trips of every versioned JSON document through its text form."""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import schedule_of
from fogpart.model import Application, Device, Message, NetworkLink, PlacementPlan, Service, USER
from fogpart.multilayer import RESOURCE_LAYERS, Layer, build_multilayer
from fogpart.partitioner import (
    FeatureTriplet,
    PartitionSet,
    compress_graph,
    derive_feature_partitions,
    multilayer_resource_partition,
)
from fogpart.scenario import PRESETS, AppRequest, Scenario, ScenarioConfig, Schedule, generate_scenario
from fogpart.serialize import (
    config_from_dict,
    config_to_dict,
    dump_json,
    load_json,
    partitions_from_dict,
    partitions_to_dict,
    plans_from_dict,
    plans_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


def through_json(payload):
    """The document as a reader sees it after ``dump_json``."""
    with tempfile.TemporaryDirectory() as tmp:
        return load_json(dump_json(Path(tmp) / "doc.json", payload))


def ordered_pair(elements):
    return st.tuples(elements, elements).map(lambda p: (min(p), max(p)))


@st.composite
def configs(draw):
    devices = draw(st.integers(3, 500))
    return ScenarioConfig(
        device_count=devices,
        gateway_count=draw(st.integers(0, devices - 1)),
        ba_attachment=draw(st.integers(1, devices - 1)),
        cores_range=draw(ordered_pair(st.integers(1, 64))),
        cpu_speed_range=draw(ordered_pair(positive)),
        mem_range=draw(ordered_pair(positive)),
        storage_range=draw(ordered_pair(positive)),
        service_count_range=draw(ordered_pair(st.integers(1, 20))),
        deadline_range_ms=draw(ordered_pair(positive)),
        service_mem_range=draw(ordered_pair(positive)),
        service_storage_range=draw(ordered_pair(positive)),
        message_size_range_kb=draw(ordered_pair(positive)),
        workload_range=draw(ordered_pair(positive)),
        latency_ms=draw(st.floats(0.0, 1e3)),
        bandwidth_bytes_per_ms=draw(positive),
        request_period_s=draw(positive),
        horizon_s=draw(st.floats(0.0, 1e5)),
        cloud_factor=draw(positive),
        app_count=draw(st.integers(1, 50)),
        user_count=draw(st.integers(1, 200)),
        deadline_mode=draw(st.booleans()),
        scale=draw(st.sampled_from([None, *sorted(PRESETS)])),
        seed=draw(st.integers(-(2**40), 2**40)),
    )


@st.composite
def applications(draw, app_id):
    n = draw(st.integers(1, 4))
    services = [Service(i, draw(positive), draw(positive), draw(positive)) for i in range(n)]
    messages = [Message(USER, 0, draw(positive))]
    for i in range(1, n):
        messages.append(Message(draw(st.integers(0, i - 1)), i, draw(positive)))
    return Application(app_id, services, messages, draw(positive))


@st.composite
def scenarios(draw):
    cfg = draw(configs())
    n = draw(st.integers(1, 6))
    devices = [
        Device(i, draw(st.integers(1, 30)), draw(positive), draw(positive), draw(positive))
        for i in range(n)
    ]
    links = [
        NetworkLink(draw(st.integers(0, i - 1)), i, draw(positive), draw(st.floats(0.0, 100.0)))
        for i in range(1, n)
    ]
    apps = [draw(applications(a)) for a in range(draw(st.integers(0, 3)))]
    requests = [
        AppRequest(r, draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        for r in range(draw(st.integers(0, 4)))
    ]
    schedule = schedule_of(draw(st.lists(st.tuples(st.floats(0.0, 1e4), st.integers(0, 10)), max_size=8)))
    return Scenario(
        config=cfg,
        devices=devices,
        links=links,
        cloud_id=n - 1,
        apps=apps,
        requests=requests,
        schedule=schedule,
    )


def app_fields(app: Application):
    return (app.id, app.services, app.messages, app.deadline, app.gateway)


@st.composite
def layer_partition(draw, layer, device_ids):
    labels = {d: draw(st.integers(0, len(device_ids) - 1)) for d in device_ids}
    partitions = {
        pid: frozenset(d for d, lab in labels.items() if lab == pid) for pid in set(labels.values())
    }
    return PartitionSet(layer, labels, partitions, draw(finite))


@st.composite
def partition_results(draw):
    """(feature, network and layer partitions, devices), the fps drawn as groups of compressed nodes."""
    devices = [
        Device(d, 1, draw(positive), draw(positive), draw(positive))
        for d in range(draw(st.integers(1, 6)))
    ]
    device_ids = [d.id for d in devices]
    network = draw(layer_partition(Layer.NETWORK, device_ids))
    layer_sets = {layer: draw(layer_partition(layer, device_ids)) for layer in RESOURCE_LAYERS}
    cg = compress_graph(list(layer_sets.values()), {d.id: d for d in devices})
    groups = {node: draw(st.integers(0, len(cg.nodes) - 1)) for node in cg.nodes}
    members = {
        fp: frozenset(n for n, g in groups.items() if g == old)
        for fp, old in enumerate(sorted(set(groups.values())))
    }
    fps = derive_feature_partitions(members, cg, draw(finite))
    return fps, network, layer_sets, devices


#: stands in for the sha256 of a scenario config that cli.cmd_partition records
CONFIG_HASH = "0" * 64

#: the one device of ``one_device_partitions``
ONE_DEVICE = [Device(0, 1, 1.0, 2.0, 3.0)]


def one_device_partitions():
    """(feature partitions, network partitions, layer partitions) of ``ONE_DEVICE``."""
    network = PartitionSet(Layer.NETWORK, {0: 0}, {0: frozenset({0})}, 0.0)
    layer_sets = {layer: PartitionSet(layer, {0: 0}, {0: frozenset({0})}, 0.0) for layer in RESOURCE_LAYERS}
    cg = compress_graph(list(layer_sets.values()), {0: ONE_DEVICE[0]})
    fps = derive_feature_partitions({0: frozenset(cg.nodes)}, cg, 0.0)
    return fps, network, layer_sets


@st.composite
def plan_sets(draw):
    plans = {}
    for request_id in draw(st.lists(st.integers(0, 1000), unique=True, max_size=5)):
        sids = range(draw(st.integers(1, 4)))
        plans[request_id] = PlacementPlan({sid: draw(st.one_of(st.none(), st.integers(0, 99))) for sid in sids})
    return plans


class TestConfigRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(configs())
    def test_round_trip(self, cfg):
        assert config_from_dict(through_json(config_to_dict(cfg))) == cfg

    def test_every_field_written(self):
        data = config_to_dict(ScenarioConfig())
        assert len(data) == 23
        assert data["cores_range"] == [10, 25]
        assert data["scale"] is None


class TestScenarioRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_round_trip(self, scenario):
        data = through_json(scenario_to_dict(scenario))
        back = scenario_from_dict(data)
        assert back.config == scenario.config
        assert back.devices == scenario.devices
        assert back.links == scenario.links
        assert back.cloud_id == scenario.cloud_id
        assert [app_fields(a) for a in back.apps] == [app_fields(a) for a in scenario.apps]
        assert back.requests == scenario.requests
        assert list(back.schedule) == list(scenario.schedule)
        assert through_json(scenario_to_dict(back)) == data

    def test_gateways_stored_only_on_requests(self):
        # schema 2 keeps no user list, no gateway list and no template user
        app = Application(0, [Service(0, 1.0, 1.0, 1.0)], [Message(USER, 0, 1.0)], 10.0)
        scenario = Scenario(
            config=ScenarioConfig(),
            devices=[Device(0, 1, 1.0, 1.0, 1.0)],
            links=[],
            cloud_id=0,
            apps=[app],
            requests=[AppRequest(0, app_id=0, gateway=0)],
        )
        data = scenario_to_dict(scenario)
        assert sorted(data) == [
            "apps", "cloud_id", "config", "devices", "links", "requests", "schedule",
            "schema_version",
        ]
        assert sorted(data["apps"][0]) == ["deadline_ms", "id", "messages", "services"]
        assert data["requests"] == [{"app_id": 0, "gateway": 0, "request_id": 0}]


class TestScheduleRows:
    """``scenario_from_dict`` reads the schedule into columns, checks them whole, and names the first bad row."""

    def document(self, rows):
        scenario = Scenario(
            config=ScenarioConfig(),
            devices=[Device(0, 1, 1.0, 1.0, 1.0)],
            links=[],
            cloud_id=0,
            apps=[],
            requests=[],
        )
        return dict(scenario_to_dict(scenario), schedule=rows)

    def test_numbers_read_as_rows(self):
        rows = [[0, 0], [2.5, 7], [0.0, 10**30], [10**30, 1]]
        schedule = scenario_from_dict(self.document(rows)).schedule
        assert [(type(t), t, rid) for t, rid in schedule] == [(type(t), t, rid) for t, rid in rows]
        assert type(schedule.request_ids) is tuple

    @pytest.mark.parametrize(
        "row",
        [
            [1.0], [], [0.0, 1, 2], None, 5, "ab", {"0": 1.0, "1": 0},
            ["a", 0], [1.0, "0"], [0.0, 1.5], [0.0, True], [False, 0],
            [float("nan"), 0], [float("inf"), 0], [-1.0, 0], [-1, 0],
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_bad_row_named_by_index(self, row, index):
        rows = [[float(k), k] for k in range(6)]
        rows[index] = row
        rows.append(row)  # only the first is named
        with pytest.raises(ValueError, match=rf"^schedule row {index} is "):
            scenario_from_dict(self.document(rows))

    # in times that never decrease, only the first and last are range-checked
    @pytest.mark.parametrize(
        "index, time, shown",
        [(0, -1.0, "-1.0"), (5, float("inf"), "Infinity"), (3, float("nan"), "NaN")],
        ids=["negative_first", "infinite_last", "nan_middle"],
    )
    def test_bad_time_in_order_named_by_index(self, index, time, shown):
        rows = [[float(k), k] for k in range(6)]
        rows[index] = [time, index]
        with pytest.raises(ValueError, match=rf"^schedule row {index} is \[{shown}, {index}\]; expected "):
            scenario_from_dict(self.document(rows))

    def test_skipped_rows_are_not_read(self):
        scenario = scenario_from_dict(self.document([[0.0, 0], None]), schedule=False)
        assert scenario.schedule == Schedule()

    def test_schedule_must_be_a_list(self):
        with pytest.raises(ValueError, match="schedule must be a list"):
            scenario_from_dict(self.document(None))


#: (path to a record in a scenario document, key) of every integer field
INT_FIELDS = [
    (("devices", 1), "id"), (("devices", 1), "cores"), (("links", 0), "a"), (("links", 0), "b"),
    (("apps", 0), "id"), (("apps", 0, "services", 0), "id"),
    (("apps", 0, "messages", 0), "source"), (("apps", 0, "messages", 0), "destination"),
    (("requests", 0), "request_id"), (("requests", 0), "app_id"), (("requests", 0), "gateway"),
]
#: ... and of every number field
NUMBER_FIELDS = [
    (("devices", 1), "cpu_speed_mi_s"), (("devices", 1), "mem_gb"), (("devices", 1), "storage_tb"),
    (("links", 0), "bandwidth_bytes_ms"), (("links", 0), "latency_ms"), (("apps", 0), "deadline_ms"),
    (("apps", 0, "services", 0), "workload_mi"), (("apps", 0, "services", 0), "mem_gb"),
    (("apps", 0, "services", 0), "storage_tb"), (("apps", 0, "messages", 0), "size_bytes"),
]


class TestRecordFieldTypes:
    """Each scenario record field reads only under ``ScenarioConfig``'s type rule."""

    def document(self):
        app = Application(0, [Service(0, 1.0, 1.0, 1.0)], [Message(USER, 0, 1.0)], 10.0)
        scenario = Scenario(
            config=ScenarioConfig(),
            devices=[Device(0, 1, 1.0, 1.0, 1.0), Device(1, 2, 2.0, 2.0, 2.0)],
            links=[NetworkLink(0, 1, 1.0, 0.0)],
            cloud_id=1,
            apps=[app],
            requests=[AppRequest(0, app_id=0, gateway=1)],
        )
        return through_json(scenario_to_dict(scenario))

    def test_ints_stand_for_numbers(self):
        data = self.document()
        # an int too large for a float is still a finite number
        data["devices"][1].update(cpu_speed_mi_s=3, mem_gb=4, storage_tb=10**400)
        data["apps"][0]["deadline_ms"] = 7
        assert scenario_from_dict(data).devices[1] == Device(1, 2, 3.0, 4.0, 10**400)

    @pytest.mark.parametrize(
        "record, key, bad, expected",
        [
            (record, key, bad, "an integer")
            for record, key in INT_FIELDS
            for bad in [True, 2.5, "1", None, [1]]
        ]
        + [
            (record, key, bad, "a finite number")
            for record, key in NUMBER_FIELDS
            for bad in [False, float("nan"), float("-inf"), "1", None]
        ],
        ids=repr,
    )
    def test_wrong_type_named_by_path(self, record, key, bad, expected):
        data = self.document()
        target = data
        for step in record:
            target = target[step]
        target[key] = bad
        where = "".join(f"[{step}]" if type(step) is int else f".{step}" for step in record)
        with pytest.raises(ValueError) as info:
            scenario_from_dict(data, schedule=False)
        assert str(info.value) == f"scenario {where[1:]}.{key} is {json.dumps(bad)}; expected {expected}"

    def test_cloud_id_of_a_device_reads(self):
        data = self.document()
        data["cloud_id"] = 0
        assert scenario_from_dict(data, schedule=False).cloud_id == 0

    # True and 1.0 equal the id 1 of a device; 2 names none
    @pytest.mark.parametrize("bad", ["x", True, 1.0, None, 2, -1], ids=repr)
    def test_cloud_id_must_be_a_device_id(self, bad):
        data = self.document()
        data["cloud_id"] = bad
        with pytest.raises(ValueError) as info:
            scenario_from_dict(data, schedule=False)
        assert str(info.value) == f"scenario cloud_id is {json.dumps(bad)}; expected a device id"


class TestPartitionsRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(partition_results())
    def test_round_trip(self, result):
        fps, network, layer_sets, devices = result
        data = through_json(partitions_to_dict(fps, network, layer_sets, CONFIG_HASH))
        assert partitions_from_dict(data, devices) == (fps, network, CONFIG_HASH)

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["SMALL", "LARGE"]), st.integers(4, 40), st.integers(0, 10**6))
    def test_loader_rebuilds_what_partitioning_returns(self, scale, n, seed):
        cfg = ScenarioConfig(seed=seed).replace(device_count=n, gateway_count=n // 4).with_scale(scale)
        scenario = generate_scenario(cfg)
        fps, network, layer_sets = multilayer_resource_partition(build_multilayer(scenario.topology()))
        data = through_json(partitions_to_dict(fps, network, layer_sets, CONFIG_HASH))
        assert partitions_from_dict(data, scenario.devices) == (fps, network, CONFIG_HASH)

    def test_repeat_inside_one_partition_is_harmless(self):
        # a partition's device list stands for a set
        data = through_json(partitions_to_dict(*one_device_partitions(), CONFIG_HASH))
        data["network"]["partitions"]["0"].append(0)
        assert partitions_from_dict(data, ONE_DEVICE) == (*one_device_partitions()[:2], CONFIG_HASH)

    def test_stores_no_triplets_and_reads_no_device_index(self):
        fps, network, layer_sets = one_device_partitions()
        data = through_json(partitions_to_dict(fps, network, layer_sets, CONFIG_HASH))
        assert sorted(data) == [
            "feature_partitions", "network", "resource_layers", "scenario_config_hash",
            "schema_version",
        ]
        assert sorted(data["feature_partitions"]) == ["device_index", "members", "modularity"]
        del data["feature_partitions"]["device_index"]
        assert partitions_from_dict(data, ONE_DEVICE) == (fps, network, CONFIG_HASH)
        assert fps.features[(Layer.CPU, 0)] == FeatureTriplet(1.0, 2.0, 3.0)

    @pytest.mark.parametrize(
        "edit, expected",
        [
            # True == 1.0 == 1 would pass a set comparison
            (lambda d: d["network"]["partitions"].update({"0": [0.0]}), "NETWORK partition 0 holds 0.0, which is not a scenario device"),
            (lambda d: d["network"]["partitions"].update({"0": [True]}), "NETWORK partition 0 holds true, which is not a scenario device"),
            (lambda d: d["network"].update(layer="CPU"), "the NETWORK partitions are labelled CPU"),
            (lambda d: d["feature_partitions"]["members"]["0"].append("NETWORK:0"), 'feature partition 0 holds "NETWORK:0", which is not a resource-layer partition'),
            (lambda d: d["feature_partitions"]["members"]["0"].append("CPU"), 'feature partition 0 holds "CPU", which is not a resource-layer partition'),
            (lambda d: d["feature_partitions"]["members"]["0"].append("CPU:00"), 'feature partition 0 holds "CPU:00", which is not a resource-layer partition'),
            # "00" and "0" are both fp 0, so one list replaces the other
            (lambda d: d["feature_partitions"]["members"].update({"00": ["MEM:0"]}), 'no feature partition holds "CPU:0"'),
        ],
    )
    def test_partitions_must_cover_once(self, edit, expected):
        data = through_json(partitions_to_dict(*one_device_partitions(), CONFIG_HASH))
        edit(data)
        with pytest.raises(ValueError) as info:
            partitions_from_dict(data, ONE_DEVICE)
        assert expected in str(info.value)

    @pytest.mark.parametrize("bad", ["x", None, True, [1], {"q": 1}, math.nan, math.inf], ids=repr)
    @pytest.mark.parametrize(
        "where, name",
        [
            (lambda d: d["network"], "NETWORK"),
            (lambda d: d["resource_layers"]["STORAGE"], "STORAGE"),
            (lambda d: d["feature_partitions"], "FEATURE"),
        ],
        ids=["network", "resource", "feature"],
    )
    def test_modularity_is_a_finite_number(self, where, name, bad):
        data = through_json(partitions_to_dict(*one_device_partitions(), CONFIG_HASH))
        where(data)["modularity"] = bad
        with pytest.raises(ValueError) as info:
            partitions_from_dict(data, ONE_DEVICE)
        assert str(info.value) == f"partitions {name} modularity is {json.dumps(bad)}; expected a finite number"

    def test_modularity_of_an_int_is_read(self):
        data = through_json(partitions_to_dict(*one_device_partitions(), CONFIG_HASH))
        data["network"]["modularity"] = data["feature_partitions"]["modularity"] = 0
        fps, network, _ = partitions_from_dict(data, ONE_DEVICE)
        assert (fps.modularity, network.modularity) == (0, 0)


class TestPlansRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(plan_sets(), st.sampled_from(["multilayer", "first_fit"]), finite, finite)
    def test_round_trip(self, plans, strategy, alpha, beta):
        data = through_json(plans_to_dict(plans, strategy, alpha, beta))
        assert plans_from_dict(data) == (plans, strategy)
        assert (data["alpha"], data["beta"]) == (alpha, beta)

    def test_a_stored_plan_is_its_assignment(self):
        # schema 1 also stored response times, which no command read
        plans = {7: PlacementPlan(assignment={0: 3, 1: None}), 8: PlacementPlan(assignment={0: 3})}
        data = through_json(plans_to_dict(plans, "first_fit", 0.5, 0.5))
        assert sorted(data) == ["alpha", "beta", "plans", "schema_version", "strategy"]
        assert [set(body) for body in data["plans"].values()] == [{"assignment"}] * 2
        assert data["plans"]["7"]["assignment"] == {"0": 3, "1": "invalid"}
        assert plans_from_dict(data) == (plans, "first_fit")

    @pytest.mark.parametrize("host", [33.7, 3.0, "3", True, None, "INVALID"], ids=repr)
    def test_host_is_a_device_id_or_invalid(self, host):
        data = through_json(plans_to_dict({7: PlacementPlan(assignment={0: 3})}, "first_fit", 0.5, 0.5))
        data["plans"]["7"]["assignment"]["0"] = host
        expected = f'plan of request 7 puts service 0 on {json.dumps(host)}; expected a device id or "invalid"'
        with pytest.raises(ValueError) as info:
            plans_from_dict(data)
        assert str(info.value) == expected


class TestSchemaVersion:
    def documents(self):
        """(reader, written document, the version each kind expects)."""
        scenario = Scenario(
            config=ScenarioConfig(),
            devices=[Device(0, 1, 1.0, 1.0, 1.0)],
            links=[],
            cloud_id=0,
            apps=[],
            requests=[],
        )
        return [
            (scenario_from_dict, scenario_to_dict(scenario), 2),
            (
                lambda data: partitions_from_dict(data, ONE_DEVICE),
                partitions_to_dict(*one_device_partitions(), CONFIG_HASH),
                4,
            ),
            (plans_from_dict, plans_to_dict({}, "first_fit", 0.5, 0.5), 2),
        ]

    def test_each_kind_written_and_read_at_its_version(self):
        for reader, data, expected in self.documents():
            assert data["schema_version"] == expected
            reader(data)
            with pytest.raises(ValueError, match=f"schema_version '{expected}', expected {expected}"):
                reader(dict(data, schema_version=str(expected)))

    @pytest.mark.parametrize("version", [0, 1, 2, 3, None, True, 1.0, 2.0, 3.0, 4.0])
    def test_wrong_version_rejected(self, version):
        # 1 covers every kind, whose old versions have no reader, and 2 and 3
        # partitions; True and the floats equal some kind's version in Python
        # but are not ints
        for reader, data, expected in self.documents():
            if type(version) is not int or version != expected:
                with pytest.raises(ValueError, match=f"schema_version {version!r}, expected {expected}"):
                    reader(dict(data, schema_version=version))

    def test_missing_version_rejected(self):
        for reader, data, _ in self.documents():
            data = dict(data)
            del data["schema_version"]
            with pytest.raises(ValueError, match="schema_version"):
                reader(data)
