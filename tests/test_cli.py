"""Start-up cost of the CLI module and the exit of each command on bad input."""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fogpart
from fogpart import cli, partitioner
from fogpart.model import Topology
from fogpart.placement import STRATEGIES


def test_import_leaves_numpy_dataclasses_inspect_pickle_and_process_pools_out():
    # every command of a chain shares one process, so numpy loaded at import
    # would add its import time to every start-up and its memory to every peak;
    # dataclasses (which loads inspect) cost each start-up about 15 ms, and a
    # cold pickle about 3 ms, so only partitioning's fork path imports pickle
    src = Path(fogpart.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    kept_out = {"numpy", "dataclasses", "inspect", "pickle", "multiprocessing", "concurrent.futures"}
    code = f"import sys, fogpart.cli; print(*sorted({kept_out!r} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""


def test_networkx_never_loaded(tmp_path):
    # the generator reproduces the networkx routines it used; importing networkx
    # would cost every command its start-up time and memory again
    src = Path(fogpart.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, fogpart.cli; print('networkx' in sys.modules); "
        "fogpart.cli.main(['generate', '--preset', 'SMALL', '--out', sys.argv[1]]); "
        "print('networkx' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "gen")], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["False", "False"]
    assert (tmp_path / "gen" / "scenario.json").exists()


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    """A small generated scenario for the commands that read one."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps({"device_count": 10, "gateway_count": 3, "horizon_s": 10.0}))
    assert cli.main(["generate", "--config", str(config), "--out", str(root / "gen")]) == 0
    return root / "gen" / "scenario.json"


def generate_from(tmp, config):
    """``generate`` from a config file holding ``config``."""
    (tmp / "config.json").write_text(json.dumps(config))
    return ["generate", "--config", str(tmp / "config.json")]


def unknown_config_key(scenario, tmp):
    return generate_from(tmp, {"device_count": 10, "bogus": 1})


def malformed_config_json(scenario, tmp):
    (tmp / "config.json").write_text("{not json")
    return ["generate", "--config", str(tmp / "config.json")]


def malformed_scenario_json(scenario, tmp):
    (tmp / "scenario.json").write_text('{"schedule": [')
    return ["place", "--scenario", str(tmp / "scenario.json"), "--strategy", "first_fit"]


def config_file_missing(scenario, tmp):
    return ["generate", "--config", str(tmp / "missing.json")]


def config_field_of_wrong_type(scenario, tmp):
    return generate_from(tmp, {"device_count": "ten"})


def ba_attachment_not_below_device_count(scenario, tmp):
    return generate_from(tmp, {"device_count": 10, "gateway_count": 3, "ba_attachment": 10})


def ba_attachment_zero(scenario, tmp):
    return generate_from(tmp, {"ba_attachment": 0})


def negative_latency_config(scenario, tmp):
    return generate_from(tmp, {"latency_ms": -1.0})


def zero_request_period(scenario, tmp):
    return generate_from(tmp, {"request_period_s": 0})


def zero_app_count(scenario, tmp):
    return generate_from(tmp, {"app_count": 0})


def scale_with_other_app_count(scenario, tmp):
    # with_scale used to overwrite the explicit field: this config generated 30 apps
    return generate_from(tmp, {"scale": "LARGE", "app_count": 5})


def negative_gateway_count(scenario, tmp):
    # by_centrality[:-3] made gateways of all but 3 devices
    return generate_from(tmp, {"device_count": 10, "gateway_count": -3})


def nan_horizon_config(scenario, tmp):
    # generated, placed and simulated 0 requests, and wrote bare NaN into the JSON
    return generate_from(tmp, {"device_count": 10, "gateway_count": 3, "horizon_s": float("nan")})


def infinite_range_config(scenario, tmp):
    return generate_from(tmp, {"cpu_speed_range": [20.0, float("inf")]})


def fractional_device_count(scenario, tmp):
    # exited 0 with 11 fog devices and a cloud device of id 10.5
    return generate_from(tmp, {"device_count": 10.5, "gateway_count": 3})


def deadline_mode_of_text(scenario, tmp):
    # generated a deadline-mode schedule and wrote "no" into scenario.json
    return generate_from(tmp, {"device_count": 10, "gateway_count": 3, "horizon_s": 10.0, "deadline_mode": "no"})


def deadline_mode_of_number(scenario, tmp):
    return generate_from(tmp, {"device_count": 10, "gateway_count": 3, "horizon_s": 10.0, "deadline_mode": 1})


def config_of_number(scenario, tmp):
    # died with "TypeError: 'int' object is not iterable"
    return generate_from(tmp, 5)


def config_of_null(scenario, tmp):
    # died with "TypeError: 'NoneType' object is not iterable"
    return generate_from(tmp, None)


def seed_of_text(scenario, tmp):
    # exited 0 and stored the seed "x"
    return generate_from(tmp, {"device_count": 10, "gateway_count": 3, "horizon_s": 10.0, "seed": "x"})


def seed_of_null(scenario, tmp):
    # exited 0 and stored a null seed
    return generate_from(tmp, {"device_count": 10, "gateway_count": 3, "horizon_s": 10.0, "seed": None})


def range_of_text(scenario, tmp):
    # passed the config checks, then died in random.randint
    return generate_from(tmp, {"device_count": 10, "gateway_count": 3, "cores_range": ["10", "25"]})


def nan_failure_period(scenario, tmp):
    # reported 10 failures while applying none
    return [*edited_plans(scenario, tmp, lambda assignment: None), "--mode", "faulty", "--failure-period-s", "nan"]


def multilayer_without_partitions(scenario, tmp):
    return ["place", "--scenario", str(scenario), "--strategy", "multilayer"]


def negative_alpha(scenario, tmp):
    return ["place", "--scenario", str(scenario), "--strategy", "first_fit", "--alpha", "-1"]


def report_without_metrics(scenario, tmp):
    return ["report", "--runs", str(tmp)]


def wrong_schema_version(scenario, tmp):
    data = json.loads(scenario.read_text())
    data["schema_version"] = 99
    (tmp / "scenario.json").write_text(json.dumps(data))
    return ["partition", "--scenario", str(tmp / "scenario.json")]


def generated(tmp, name, device_count):
    """A scenario.json of ``device_count`` fog devices plus the cloud."""
    config = tmp / f"{name}.json"
    config.write_text(json.dumps({"device_count": device_count, "gateway_count": 3, "horizon_s": 10.0}))
    assert cli.main(["generate", "--config", str(config), "--out", str(tmp / name)]) == 0
    return tmp / name / "scenario.json"


def partitioned(scenario, tmp):
    assert cli.main(["partition", "--scenario", str(scenario), "--out", str(tmp / "partition")]) == 0
    return tmp / "partition" / "partitions.json"


def partitions_of_smaller_scenario(scenario, tmp):
    partitions = partitioned(generated(tmp, "small", 8), tmp)
    return ["place", "--scenario", str(scenario), "--partitions", str(partitions)]


def partitions_of_larger_scenario(scenario, tmp):
    partitions = partitioned(scenario, tmp)
    return [
        "place", "--scenario", str(generated(tmp, "small", 8)), "--partitions", str(partitions),
        "--strategy", "connectivity_greedy",
    ]


def partitions_of_another_seed(scenario, tmp):
    # SMALL seeds 0 and 1 have the same device ids, so only the config hash tells them apart
    scenarios = {}
    for seed in (0, 1):
        argv = ["generate", "--preset", "SMALL", "--seed", str(seed), "--out", str(tmp / f"seed{seed}")]
        assert cli.main(argv) == 0
        scenarios[seed] = tmp / f"seed{seed}" / "scenario.json"
    return ["place", "--scenario", str(scenarios[0]), "--partitions", str(partitioned(scenarios[1], tmp))]


def scenario_edited_by_hand(scenario, tmp):
    # the config, and so its hash, still matches the partitions; the devices do not
    partitions = partitioned(scenario, tmp)
    data = json.loads(scenario.read_text())
    del data["devices"][0]  # a fog device: without the cloud, the cloud_id check would fire first
    (tmp / "scenario.json").write_text(json.dumps(data))
    return ["place", "--scenario", str(tmp / "scenario.json"), "--partitions", str(partitions)]


def partitions_schema_1(scenario, tmp):
    path = partitioned(scenario, tmp)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), schema_version=1)))
    return ["place", "--scenario", str(scenario), "--partitions", str(path)]


def simulate_on_edited_plans(scenario, tmp, edit):
    """``simulate`` of ``scenario`` against its first-fit plans.json, edited by ``edit``."""
    place = ["place", "--scenario", str(scenario), "--strategy", "first_fit", "--out", str(tmp / "place")]
    assert cli.main(place) == 0
    path = tmp / "place" / "plans.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return ["simulate", "--scenario", str(scenario), "--plans", str(path)]


def edited_plans(scenario, tmp, edit):
    """First-fit plans of ``scenario`` with ``edit`` applied to request 0's assignment."""
    return simulate_on_edited_plans(scenario, tmp, lambda data: edit(data["plans"]["0"]["assignment"]))


def plans_schema_1(scenario, tmp):
    # schema 1 also stored response times, which no command read
    return simulate_on_edited_plans(scenario, tmp, lambda data: data.update(schema_version=1))


def plan_omits_a_service(scenario, tmp):
    return edited_plans(scenario, tmp, lambda assignment: assignment.pop("0"))


def plan_names_unknown_device(scenario, tmp):
    return edited_plans(scenario, tmp, lambda assignment: assignment.update({"0": 99999}))


def plan_host_of_float(scenario, tmp):
    # was replayed on device int(33.7) == 33
    return edited_plans(scenario, tmp, lambda assignment: assignment.update({"0": 33.7}))


def plan_host_of_text(scenario, tmp):
    return edited_plans(scenario, tmp, lambda assignment: assignment.update({"0": "33"}))


def plan_host_of_bool(scenario, tmp):
    return edited_plans(scenario, tmp, lambda assignment: assignment.update({"0": True}))


def edited_scenario(scenario, tmp, edit):
    """A copy of ``scenario`` with ``edit`` applied to its JSON document."""
    data = json.loads(scenario.read_text())
    edit(data)
    path = tmp / "edited" / "scenario.json"
    path.parent.mkdir()
    path.write_text(json.dumps(data))
    return path


def place_edited(scenario, tmp, edit):
    return ["place", "--scenario", str(edited_scenario(scenario, tmp, edit)), "--strategy", "first_fit"]


def request_names_unknown_app(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["requests"][0].update(app_id=999))


def request_on_unknown_gateway(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["requests"][0].update(gateway=9999))


def scenario_schema_1(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data.update(schema_version=1))


def partition_without_devices(scenario, tmp):
    # a scenario without devices has no device for its cloud_id to name
    edited = edited_scenario(scenario, tmp, lambda data: data.update(devices=[], links=[]))
    return ["partition", "--scenario", str(edited)]


def self_link(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["links"][0].update(b=data["links"][0]["a"]))


def zero_bandwidth(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["links"][0].update(bandwidth_bytes_ms=0))


def negative_link_latency(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["links"][0].update(latency_ms=-1.0))


def zero_message_size(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["apps"][0]["messages"][0].update(size_bytes=0))


def duplicate_service_id(scenario, tmp):
    def edit(data):
        services = data["apps"][0]["services"]
        services.append(dict(services[0]))

    return place_edited(scenario, tmp, edit)


def zero_cores(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["devices"][0].update(cores=0))


def zero_deadline(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["apps"][0].update(deadline_ms=0))


def message_to_unknown_service(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["apps"][0]["messages"][0].update(destination=99))


def app_without_services(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["apps"][0].update(services=[]))


def simulate_edited(scenario, tmp, edit):
    """``simulate`` of ``scenario`` edited by ``edit``, against the unedited scenario's plans."""
    place = ["place", "--scenario", str(scenario), "--strategy", "first_fit", "--out", str(tmp / "place")]
    assert cli.main(place) == 0
    edited = edited_scenario(scenario, tmp, edit)
    return ["simulate", "--scenario", str(edited), "--plans", str(tmp / "place" / "plans.json")]


def schedule_names_unknown_request(scenario, tmp):
    return simulate_edited(scenario, tmp, lambda data: data["schedule"].append([0.0, 12345]))


def schedule_row(row):
    """An edit that makes ``row`` the scenario's first schedule row."""

    def edit(data):
        data["schedule"][0] = row

    return edit


def schedule_row_without_request(scenario, tmp):
    # died with an IndexError traceback
    return simulate_edited(scenario, tmp, schedule_row([1.0]))


def schedule_row_of_text_time(scenario, tmp):
    # died with "TypeError: '<=' not supported"
    return simulate_edited(scenario, tmp, schedule_row(["a", 0]))


def schedule_row_null(scenario, tmp):
    # died with a TypeError traceback
    return simulate_edited(scenario, tmp, schedule_row(None))


def schedule_row_of_nan_time(scenario, tmp):
    # the request was silently dropped
    return simulate_edited(scenario, tmp, schedule_row([float("nan"), 0]))


def schedule_row_of_bool_request(scenario, tmp):
    # was replayed as request 1
    return simulate_edited(scenario, tmp, schedule_row([0.0, True]))


def repeated_request_id(data):
    data["requests"][1]["request_id"] = data["requests"][0]["request_id"]


def place_repeated_request_id(scenario, tmp):
    # place used to keep the last plan of the id: 28 plans for 29 requests, exit 0
    return place_edited(scenario, tmp, repeated_request_id)


def simulate_repeated_request_id(scenario, tmp):
    return simulate_edited(scenario, tmp, repeated_request_id)


def scenario_missing_key(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["devices"][0].pop("cores"))


def place_on_edited_partitions(scenario, tmp, edit):
    path = partitioned(scenario, tmp)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return ["place", "--scenario", str(scenario), "--partitions", str(path)]


def partitions_missing_key(scenario, tmp):
    return place_on_edited_partitions(scenario, tmp, lambda data: data["feature_partitions"].pop("members"))


def partitions_unknown_layer(scenario, tmp):
    return place_on_edited_partitions(scenario, tmp, lambda data: data["network"].update(layer="BOGUS"))


def plans_missing_key(scenario, tmp):
    return simulate_on_edited_plans(scenario, tmp, lambda data: data["plans"]["0"].pop("assignment"))


def device_cores_of_text(scenario, tmp):
    # died with "TypeError: '<' not supported between instances of 'str' and 'int'"
    return place_edited(scenario, tmp, lambda data: data["devices"][0].update(cores="x"))


def device_cores_of_float(scenario, tmp):
    # was placed with 2.5 cores
    return place_edited(scenario, tmp, lambda data: data["devices"][0].update(cores=2.5))


def device_cores_of_bool(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["devices"][0].update(cores=True))


def device_mem_of_text(scenario, tmp):
    return place_edited(scenario, tmp, lambda data: data["devices"][0].update(mem_gb="10"))


def scenario_config_unknown_key(scenario, tmp):
    # died with "TypeError: ...got an unexpected keyword argument 'bogus'"
    return place_edited(scenario, tmp, lambda data: data["config"].update(bogus=1))


def scenario_config_of_list(scenario, tmp):
    # was read as the default config
    return place_edited(scenario, tmp, lambda data: data.update(config=[]))


def plans_of_list(scenario, tmp):
    # died with "AttributeError: 'list' object has no attribute 'items'"
    return simulate_on_edited_plans(scenario, tmp, lambda data: data.update(plans=[]))


def faulty_with_cloud_id(cloud_id):
    """A builder of ``simulate --mode faulty`` on a scenario whose ``cloud_id`` is ``cloud_id``."""

    def build(scenario, tmp):
        # exited 0, with the cloud among the devices that faulty mode may kill
        return [*simulate_edited(scenario, tmp, lambda data: data.update(cloud_id=cloud_id)), "--mode", "faulty"]

    build.__name__ = f"cloud_id_of_{type(cloud_id).__name__}_{cloud_id}"
    return build


def feature_partition_member_of_no_partition(scenario, tmp):
    # placement died with "KeyError: (<Layer.CPU: 1>, 999)"
    return place_on_edited_partitions(
        scenario, tmp, lambda data: data["feature_partitions"]["members"]["0"].append("CPU:999")
    )


def feature_partitions_overlap(scenario, tmp):
    # exited 0, with CPU:0 in two feature partitions
    return place_on_edited_partitions(
        scenario, tmp, lambda data: data["feature_partitions"]["members"].update({"99": ["CPU:0"]})
    )


def empty_feature_partition(scenario, tmp):
    # died with "max() arg is an empty sequence"
    def edit(data):
        data["feature_partitions"]["members"]["9"] = []
        data["feature_partitions"]["device_index"]["9"] = []

    return place_on_edited_partitions(scenario, tmp, edit)


def feature_partitions_miss_a_member(scenario, tmp):
    return place_on_edited_partitions(
        scenario, tmp, lambda data: data["feature_partitions"]["members"]["0"].pop()
    )


def network_modularity_of_text(scenario, tmp):
    # exited 0: a stored modularity was read without a type check
    return place_on_edited_partitions(scenario, tmp, lambda data: data["network"].update(modularity="x"))


def resource_modularity_of_nan(scenario, tmp):
    return place_on_edited_partitions(
        scenario, tmp, lambda data: data["resource_layers"]["MEM"].update(modularity=math.nan)
    )


def feature_modularity_of_list(scenario, tmp):
    return place_on_edited_partitions(scenario, tmp, lambda data: data["feature_partitions"].update(modularity=[1]))


def resource_layer_missing(scenario, tmp):
    return place_on_edited_partitions(scenario, tmp, lambda data: data["resource_layers"].pop("MEM"))


def resource_layers_swapped(scenario, tmp):
    def edit(data):
        layers = data["resource_layers"]
        layers["CPU"], layers["MEM"] = layers["MEM"], layers["CPU"]

    return place_on_edited_partitions(scenario, tmp, edit)


def empty_resource_layer_partition(scenario, tmp):
    # an empty partition has no mean resources
    return place_on_edited_partitions(
        scenario, tmp, lambda data: data["resource_layers"]["CPU"]["partitions"].update({"99": []})
    )


def network_partition_repeats_a_device(scenario, tmp):
    # exited 0 on SMALL seed 0 with other multilayer plans: the last copy set device 0's partition
    argv = ["generate", "--preset", "SMALL", "--seed", "0", "--out", str(tmp / "small")]
    assert cli.main(argv) == 0
    small = tmp / "small" / "scenario.json"
    return place_on_edited_partitions(small, tmp, lambda data: data["network"]["partitions"]["8"].append(0))


def report_of_list_metrics(scenario, tmp):
    # died with "AttributeError: 'list' object has no attribute 'get'"
    (tmp / "run").mkdir()
    (tmp / "run" / "metrics.json").write_text("[]\n")
    return ["report", "--runs", str(tmp / "run")]


#: builder of a bad command line -> the reason its error message must give
BAD_INPUTS = [
    (unknown_config_key, "unknown config keys"),
    (malformed_config_json, "config parse error"),
    (malformed_scenario_json, "Expecting value: line 1 column 15 (char 14)"),
    (config_file_missing, "config file not found"),
    (config_field_of_wrong_type, "device_count must be an integer"),
    (ba_attachment_not_below_device_count, "device_count must exceed ba_attachment"),
    (ba_attachment_zero, "ba_attachment must be at least 1"),
    (negative_latency_config, "network parameters out of range"),
    (zero_request_period, "request period must be positive"),
    (zero_app_count, "app_count and user_count must be positive"),
    (scale_with_other_app_count, "scale LARGE fixes app_count; the config sets other values"),
    (negative_gateway_count, "gateway_count must be non-negative"),
    (nan_horizon_config, "horizon_s must be finite"),
    (infinite_range_config, "cpu_speed_range must be finite"),
    (fractional_device_count, "device_count must be an integer"),
    (deadline_mode_of_text, "deadline_mode must be true or false"),
    (deadline_mode_of_number, "deadline_mode must be true or false"),
    (config_of_number, "config must be a JSON object"),
    (config_of_null, "config must be a JSON object"),
    (seed_of_text, "seed must be an integer"),
    (seed_of_null, "seed must be an integer"),
    (range_of_text, "cores_range must be an integer"),
    (nan_failure_period, "failure period must be positive and finite"),
    (multilayer_without_partitions, "requires --partitions"),
    (negative_alpha, "alpha and beta must be non-negative"),
    (report_without_metrics, "has no metrics.json"),
    (wrong_schema_version, "schema_version 99"),
    (partitions_of_smaller_scenario, "no NETWORK partition holds 9"),
    (partitions_of_larger_scenario, "holds 9, which is not a scenario device"),
    (partitions_of_another_seed, "scenario config hash differs"),
    (scenario_edited_by_hand, "holds 0, which is not a scenario device"),
    (partitions_schema_1, "schema_version 1"),
    (plan_omits_a_service, "plan of request 0 assigns services"),
    (plan_names_unknown_device, "on device 99999, which is not in the scenario"),
    (plan_host_of_float, 'plan of request 0 puts service 0 on 33.7; expected a device id or "invalid"'),
    (plan_host_of_text, 'plan of request 0 puts service 0 on "33"; expected a device id'),
    (plan_host_of_bool, "plan of request 0 puts service 0 on true; expected a device id"),
    (request_names_unknown_app, "request 0 names unknown app 999"),
    (request_on_unknown_gateway, "request 0's gateway 9999 is not a device"),
    (scenario_schema_1, "scenario document has schema_version 1, expected 2"),
    (partition_without_devices, "scenario cloud_id is 10; expected a device id"),
    (self_link, "link endpoints must differ"),
    (zero_bandwidth, "link bandwidth must be positive"),
    (negative_link_latency, "link latency must be non-negative"),
    (zero_message_size, "message size must be positive"),
    (duplicate_service_id, "app 0: duplicate service ids"),
    (zero_cores, "device 0: needs at least one core"),
    (zero_deadline, "app 0: deadline must be positive"),
    (message_to_unknown_service, "app 0: message destination 99 unknown"),
    (app_without_services, "app 0: needs at least one service"),
    (schedule_names_unknown_request, "names unknown request 12345"),
    (schedule_row_without_request, "schedule row 0 is [1.0]; expected [time_s, request_id]"),
    (schedule_row_of_text_time, 'schedule row 0 is ["a", 0]; expected'),
    (schedule_row_null, "schedule row 0 is null; expected"),
    (schedule_row_of_nan_time, "schedule row 0 is [NaN, 0]; expected"),
    (schedule_row_of_bool_request, "schedule row 0 is [0.0, true]; expected"),
    (place_repeated_request_id, "request id 0 is repeated"),
    (simulate_repeated_request_id, "request id 0 is repeated"),
    (scenario_missing_key, "scenario document is missing key 'cores'"),
    (partitions_missing_key, "partitions document is missing key 'members'"),
    (partitions_unknown_layer, "unknown layer 'BOGUS'"),
    (plans_missing_key, "plans document is missing key 'assignment'"),
    (plans_schema_1, "plans document has schema_version 1, expected 2"),
    (device_cores_of_text, 'scenario devices[0].cores is "x"; expected an integer'),
    (device_cores_of_float, "scenario devices[0].cores is 2.5; expected an integer"),
    (device_cores_of_bool, "scenario devices[0].cores is true; expected an integer"),
    (device_mem_of_text, 'scenario devices[0].mem_gb is "10"; expected a finite number'),
    (scenario_config_unknown_key, "unexpected keyword argument 'bogus'"),
    (scenario_config_of_list, "scenario document is malformed: config must be a JSON object"),
    (plans_of_list, "plans document is malformed: 'list' object has no attribute 'items'"),
    (faulty_with_cloud_id("x"), 'scenario cloud_id is "x"; expected a device id'),
    (faulty_with_cloud_id(True), "scenario cloud_id is true; expected a device id"),
    (faulty_with_cloud_id(5.0), "scenario cloud_id is 5.0; expected a device id"),
    (faulty_with_cloud_id(99999), "scenario cloud_id is 99999; expected a device id"),
    (feature_partition_member_of_no_partition, 'feature partition 0 holds "CPU:999", which is not a resource-layer partition'),
    (feature_partitions_overlap, 'feature partitions 0 and 99 both hold "CPU:0"'),
    (empty_feature_partition, "feature partition 9 is empty"),
    (feature_partitions_miss_a_member, "no feature partition holds "),
    (network_modularity_of_text, 'partitions NETWORK modularity is "x"; expected a finite number'),
    (resource_modularity_of_nan, "partitions MEM modularity is NaN; expected a finite number"),
    (feature_modularity_of_list, "partitions FEATURE modularity is [1]; expected a finite number"),
    (resource_layer_missing, "partitions document is missing key 'MEM'"),
    (resource_layers_swapped, "the CPU partitions are labelled MEM"),
    (empty_resource_layer_partition, "CPU partition 99 is empty"),
    (network_partition_repeats_a_device, "NETWORK partitions 0 and 8 both hold 0"),
    (report_of_list_metrics, "metrics.json holds list, not a JSON object"),
]


@pytest.mark.parametrize(
    "bad_input, reason", BAD_INPUTS, ids=[build.__name__ for build, _ in BAD_INPUTS]
)
def test_error_exits_one_with_command_prefix(bad_input, reason, scenario_path, tmp_path, capsys):
    argv = bad_input(scenario_path, tmp_path)
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fogpart {argv[0]}: ")
    assert reason in err


def test_device_index_is_never_read(scenario_path, tmp_path):
    # partitions.json still writes each fp's devices, but place derives them from the members
    partitions = partitioned(scenario_path, tmp_path)
    place = ["place", "--scenario", str(scenario_path), "--partitions", str(partitions)]
    assert cli.main([*place, "--out", str(tmp_path / "stored")]) == 0
    data = json.loads(partitions.read_text())
    data["feature_partitions"]["device_index"] = {"0": [99999], "7": []}
    partitions.write_text(json.dumps(data))
    assert cli.main([*place, "--out", str(tmp_path / "edited")]) == 0
    for name in ("plans.json", "metrics.json"):
        assert (tmp_path / "edited" / name).read_bytes() == (tmp_path / "stored" / name).read_bytes()


def test_simulate_stops_at_the_scenario_horizon(scenario_path, tmp_path):
    # a row past config.horizon_s is kept in scenario.json but never replayed
    horizon = json.loads(scenario_path.read_text())["config"]["horizon_s"]
    argv = simulate_edited(scenario_path, tmp_path, lambda data: data["schedule"].append([horizon + 1.0, 0]))
    edited = json.loads(Path(argv[2]).read_text())
    in_horizon = sum(1 for t, _ in edited["schedule"] if t <= horizon)
    assert 0 < in_horizon < len(edited["schedule"])
    assert cli.main([*argv, "--out", str(tmp_path / "sim")]) == 0
    metrics = json.loads((tmp_path / "sim" / "metrics.json").read_text())
    assert (metrics["horizon_s"], metrics["requests"]) == (horizon, in_horizon)
    assert sum(metrics["outcome_counts"].values()) == in_horizon


class TestCollectorPause:
    """``main`` pauses the cyclic collector for the command and leaves it as the caller had it."""

    def place(self, scenario, tmp):
        return ["place", "--scenario", str(scenario), "--strategy", "first_fit", "--out", str(tmp / "place")]

    def rejected(self, tmp):
        (tmp / "bad.json").write_text('{"schedule": [')
        return self.place(tmp / "bad.json", tmp)

    def test_paused_while_the_command_reads(self, scenario_path, tmp_path, monkeypatch):
        seen = []
        load = cli.load_json
        monkeypatch.setattr(cli, "load_json", lambda path: seen.append(gc.isenabled()) or load(path))
        assert cli.main(self.place(scenario_path, tmp_path)) == 0
        assert seen == [False]

    def test_restored_after_success_and_after_a_rejected_document(self, scenario_path, tmp_path):
        assert gc.isenabled()
        assert cli.main(self.place(scenario_path, tmp_path)) == 0
        assert gc.isenabled()
        assert cli.main(self.rejected(tmp_path)) == 1
        assert gc.isenabled()

    def test_left_disabled_for_a_caller_that_disabled_it(self, scenario_path, tmp_path):
        gc.disable()
        try:
            assert cli.main(self.place(scenario_path, tmp_path)) == 0
            assert not gc.isenabled()
            assert cli.main(self.rejected(tmp_path)) == 1
            assert not gc.isenabled()
        finally:
            gc.enable()


def generated_config(tmp_path, argv, config):
    """The ``config`` block of the scenario that ``generate`` writes for a config file."""
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "gen"
    assert cli.main(["generate", "--config", str(path), *argv, "--out", str(out)]) == 0
    return json.loads((out / "scenario.json").read_text())["config"]


def test_preset_flag_wins_over_config_scale(tmp_path):
    config = {"scale": "LARGE", "device_count": 10, "gateway_count": 3, "horizon_s": 10.0}
    generated = generated_config(tmp_path, ["--preset", "SMALL"], config)
    assert (generated["scale"], generated["app_count"], generated["user_count"]) == ("SMALL", 10, 29)


def test_scenario_config_block_generates_the_same_scenario(tmp_path):
    # a written config repeats the fields its scale sets, with the same values
    config = {"scale": "D-SMALL", "device_count": 10, "gateway_count": 3, "horizon_s": 10.0}
    first = generated_config(tmp_path / "first", [], config)
    assert first["app_count"] == 10 and first["deadline_mode"] is True
    assert generated_config(tmp_path / "again", [], first) == first


def test_each_command_builds_one_topology(scenario_path, tmp_path, monkeypatch):
    # the infrastructure is fixed input: partition, each place and simulate share one check of it
    built = []
    init = Topology.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Topology, "__init__", counting_init)
    partitions = partitioned(scenario_path, tmp_path)
    assert len(built) == 1
    for strategy in STRATEGIES:
        built.clear()
        out = tmp_path / strategy
        argv = ["place", "--scenario", str(scenario_path), "--partitions", str(partitions),
                "--strategy", strategy, "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(built) == 1, strategy
        built.clear()
        argv = ["simulate", "--scenario", str(scenario_path), "--plans", str(out / "plans.json"),
                "--out", str(tmp_path / f"sim-{strategy}")]
        assert cli.main(argv) == 0
        assert len(built) == 1, strategy


class TestForkedPartition:
    """``partition`` above ``FORK_MIN_DEVICES`` partitions the resource layers in forked children."""

    @pytest.fixture
    def scenario(self, tmp_path_factory):
        """A generated LARGE scenario.json with 50 devices more than ``FORK_MIN_DEVICES``."""
        n = partitioner.FORK_MIN_DEVICES + 50
        tmp = tmp_path_factory.mktemp("forked")
        (tmp / "config.json").write_text(json.dumps({"device_count": n, "gateway_count": n // 4}))
        argv = ["generate", "--config", str(tmp / "config.json"), "--preset", "LARGE", "--out", str(tmp / "gen")]
        assert cli.main(argv) == 0
        return tmp / "gen" / "scenario.json"

    def test_writes_the_in_process_bytes(self, scenario, forks, tmp_path, monkeypatch):
        argv = ["partition", "--scenario", str(scenario), "--out"]
        assert cli.main([*argv, str(tmp_path / "forked")]) == 0
        assert len(forks) == 3
        monkeypatch.setattr(partitioner, "FORK_MIN_DEVICES", math.inf)
        assert cli.main([*argv, str(tmp_path / "here")]) == 0
        assert len(forks) == 3
        for name in ("partitions.json", "modularity.csv"):
            assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()

    def test_a_child_error_exits_one(self, scenario, forks, tmp_path, monkeypatch, capsys):
        real = partitioner.louvain_partition

        def louvain(view):
            if view.layer.name == "CPU":
                raise ValueError("no CPU partition today")
            return real(view)

        monkeypatch.setattr(partitioner, "louvain_partition", louvain)
        argv = ["partition", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert len(forks) == 3
        assert capsys.readouterr().err == "fogpart partition: no CPU partition today\n"
