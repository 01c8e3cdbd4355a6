"""Placement success, resource wastage, cumulative series, hop summary and the report."""

from __future__ import annotations

import json

import pytest

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
from fogpart.simulator import FAILED_DEPENDENCY, MISSED, SATISFIED, RequestOutcome


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


class TestCumulativeSeries:
    def test_one_row_per_tick_with_ties_merged(self):
        outcomes = [
            RequestOutcome(0.0, 0, SATISFIED),
            RequestOutcome(0.0, 1, MISSED),
            RequestOutcome(5.0, 0, SATISFIED),
            RequestOutcome(10.0, 0, FAILED_DEPENDENCY),
            RequestOutcome(10.0, 1, SATISFIED),
        ]
        assert cumulative_series(outcomes) == [
            (0.0, 2, 1, 0.5),
            (5.0, 3, 2, 2 / 3),
            (10.0, 5, 3, 0.6),
        ]

    def test_empty(self):
        assert cumulative_series([]) == []


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
