"""Placement success, resource wastage, cumulative series, hop summary and the report."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import infrastructures, per_request_series, per_request_tally

from fogpart.metrics import (
    REPORT_COLUMNS,
    ZeroServicesError,
    cumulative_series,
    emit_report,
    hop_histogram,
    hop_summary,
    placement_success_rate,
    resource_wastage,
)
from fogpart.model import Application, Device, Message, NetworkLink, PlacementPlan, Service, Topology, USER
from fogpart.multilayer import build_multilayer
from fogpart.partitioner import multilayer_resource_partition
from fogpart.placement import run_placement
from fogpart.scenario import ScenarioConfig, generate_scenario
from fogpart.simulator import FAILED_DEPENDENCY, MISSED, SATISFIED, RequestOutcome, Tick


class TestPlacementSuccessRate:
    def test_none_counts_as_unplaced(self):
        plans = [PlacementPlan({0: 1, 1: None}), PlacementPlan({0: None})]
        assert placement_success_rate(plans) == 1 / 3

    def test_all_placed(self):
        assert placement_success_rate([PlacementPlan({0: 0, 1: 0})]) == 1.0

    @pytest.mark.parametrize("plans", [[], [PlacementPlan({})]])
    def test_no_services_raises(self, plans):
        with pytest.raises(ZeroServicesError):
            placement_success_rate(plans)


class TestResourceWastage:
    def test_two_device_toy(self):
        # offered: max(4 cores, 2 GB, 1 TB) + max(2 cores, 8 GB, 3 TB) = 4 + 8
        devices = [Device(0, 4, 20.0, 2.0, 1.0), Device(1, 2, 20.0, 8.0, 3.0)]
        services = [
            Service(0, 20.0, 0.5, 0.5),  # 1 unit: one core-equivalent
            Service(1, 20.0, 3.0, 1.0),  # 3 units: its memory
            Service(2, 20.0, 5.0, 1.0),  # unplaced, so it consumes nothing
        ]
        messages = [Message(USER, 0, 1.0), Message(0, 1, 1.0), Message(1, 2, 1.0)]
        app = Application(0, services, messages, 1000.0)
        plan = PlacementPlan({0: 0, 1: 1, 2: None})
        assert resource_wastage([(app, plan)], devices) == 1.0 - 4.0 / 12.0

    def test_nothing_placed_wastes_everything(self):
        devices = [Device(0, 4, 20.0, 2.0, 1.0)]
        assert resource_wastage([], devices) == 1.0

    @pytest.mark.parametrize(
        "strategy, wastage",
        [("first_fit", -0.009444588844218282), ("multilayer", -0.003334685202078136)],
    )
    def test_negative_on_a_generated_scenario(self, strategy, wastage):
        """A departure pinned, not a target: the definition is ROADMAP item 1(c)'s to settle.

        A placed service counts max(1, GB, TB) units and its device offers
        max(cores, GB, TB), so two services heavy in different dimensions
        consume more units than their host offers, and wastage drops below 0.
        """
        scenario = generate_scenario(
            ScenarioConfig(device_count=10, gateway_count=3, horizon_s=10.0, seed=0)
        )
        topology = scenario.topology()
        fps, network, _ = multilayer_resource_partition(build_multilayer(topology))
        instances = scenario.instances()
        plans = run_placement(
            instances, topology, strategy=strategy, feature_partitions=fps, network=network
        )
        by_id = {app.id: app for app in instances}
        measured = resource_wastage(
            [(by_id[rid], plan) for rid, plan in sorted(plans.items())], scenario.devices
        )
        assert measured < 0
        assert measured == pytest.approx(wastage, rel=1e-9)


def expand(ticks):
    """One record per request of ``ticks``, as the per-request pipeline kept them."""
    return [
        RequestOutcome(time_s, rid, *verdicts[rid]) for time_s, ids, verdicts in ticks for rid in ids
    ]


@st.composite
def tick_blocks(draw):
    """Ticks at increasing times whose ids and verdict maps are often the previous tick's objects."""
    statuses = st.sampled_from([(SATISFIED, 1.0), (MISSED, 9.0), (FAILED_DEPENDENCY, None)])
    ticks = []
    ids, verdicts = (0,), {0: (SATISFIED, 1.0)}
    for k in range(draw(st.integers(0, 12))):
        if not ticks or draw(st.booleans()):
            ids = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=6)))
        if not ticks or draw(st.booleans()):
            verdicts = {rid: draw(statuses) for rid in range(5)}
        ticks.append(Tick(float(k), ids, verdicts))
    return ticks


class TestCumulativeSeries:
    def test_one_row_per_tick_with_ties_merged(self):
        both = (0, 1)
        verdicts = {0: (SATISFIED, 1.0), 1: (MISSED, 9.0)}
        ticks = [
            Tick(0.0, both, verdicts),
            Tick(5.0, (0,), verdicts),
            Tick(10.0, both, {0: (FAILED_DEPENDENCY, None), 1: (SATISFIED, 2.0)}),
        ]
        assert cumulative_series(ticks) == (
            [(0.0, 2, 1, 0.5), (5.0, 3, 2, 2 / 3), (10.0, 5, 3, 0.6)],
            Counter({SATISFIED: 3, MISSED: 1, FAILED_DEPENDENCY: 1}),
        )

    def test_new_verdict_map_is_recounted_under_the_same_ids(self):
        ids = (0, 1)
        ticks = [
            Tick(1.0, ids, {0: (SATISFIED, 1.0), 1: (SATISFIED, 1.0)}),
            Tick(2.0, ids, {0: (SATISFIED, 1.0), 1: (FAILED_DEPENDENCY, None)}),
        ]
        rows, _ = cumulative_series(ticks)
        assert rows == [(1.0, 2, 2, 1.0), (2.0, 4, 3, 0.75)]

    def test_empty(self):
        assert cumulative_series([]) == ([], Counter())

    @settings(max_examples=200, deadline=None)
    @given(tick_blocks())
    def test_matches_the_per_request_reference(self, ticks):
        outcomes = expand(ticks)
        assert cumulative_series(ticks) == (per_request_series(outcomes), per_request_tally(outcomes))


def routed_hop_histogram(placements, topology):
    """Frozen copy of ``hop_histogram`` as it was: one ``shortest_hop_path`` per placed service."""
    histogram = {}
    for app, plan in placements:
        for device_id in plan.assignment.values():
            if device_id is None:
                continue
            path = topology.shortest_hop_path(app.gateway, device_id)
            key = "unreachable" if path is None else len(path)
            histogram[key] = histogram.get(key, 0) + 1
    return histogram


class TestHopHistogram:
    def test_each_instance_counts_from_its_own_gateway(self):
        # path 0-1-2 plus an isolated device 3
        topology = Topology(
            [Device(i, 4, 20.0, 2.0, 1.0) for i in range(4)],
            [NetworkLink(0, 1, 1.0, 1.0), NetworkLink(1, 2, 1.0, 1.0)],
        )
        services = [Service(0, 20.0, 1.0, 1.0), Service(1, 20.0, 1.0, 1.0)]
        messages = [Message(USER, 0, 1.0), Message(0, 1, 1.0)]
        near = Application(0, services, messages, 1000.0, gateway=0)
        far = Application(1, services, messages, 1000.0, gateway=2)
        placements = [
            (near, PlacementPlan({0: 0, 1: 2})),
            (far, PlacementPlan({0: 0, 1: None})),
            (Application(2, services, messages, 1000.0, gateway=0), PlacementPlan({0: 3, 1: 1})),
        ]
        assert hop_histogram(placements, topology) == {0: 1, 2: 2, 1: 1, "unreachable": 1}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equal_to_one_route_per_service(self, data):
        devices, links = data.draw(infrastructures())
        topology = Topology(devices, links)
        ids = sorted(topology.devices)
        placements = []
        for app_id in range(data.draw(st.integers(0, 4))):
            services = [Service(i, 20.0, 1.0, 1.0) for i in range(data.draw(st.integers(1, 4)))]
            messages = [Message(USER, 0, 1.0)] + [Message(0, s.id, 1.0) for s in services[1:]]
            gateway = data.draw(st.sampled_from(ids))
            app = Application(app_id, services, messages, 1000.0, gateway=gateway)
            # hosts may repeat, may be the gateway, and may be cut off from it
            host = st.none() | st.sampled_from(ids)
            placements.append((app, PlacementPlan({s.id: data.draw(host) for s in services})))
        assert hop_histogram(placements, topology) == routed_hop_histogram(placements, topology)


class TestHopSummary:
    def test_empty_histogram(self):
        assert hop_summary({}) == (None, None, 0)

    def test_unreachable_only(self):
        assert hop_summary({"unreachable": 3}) == (None, None, 3)

    def test_mean_and_max_ignore_unreachable(self):
        assert hop_summary({0: 2, 3: 1, "unreachable": 1}) == (1.0, 3, 1)


class TestEmitReport:
    def test_columns_empty_cells_and_float_repr(self, tmp_path):
        row = {
            "strategy": "first_fit",
            "run": "place-ff",
            "scenario": "SMALL",
            "placement_success_rate": 1 / 3,
            "resource_wastage": 0.1,
            "deadline_satisfaction": None,
            "hop_mean": 1.5,
            "hop_max": 3,
            "unreachable_services": 0,
            "hop_histogram": {"0": 2},
        }
        paths = emit_report([row], tmp_path / "report")
        assert [p.name for p in paths] == ["comparison.csv", "report.json"]
        lines = paths[0].read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert lines[1] == "place-ff,SMALL,first_fit,0.3333333333333333,0.1,,1.5,3,0"
        assert len(lines) == 2
        report = json.loads(paths[1].read_text())
        assert report == {"schema_version": 1, "runs": [row]}
        assert list(report["runs"][0]) == sorted(row)
