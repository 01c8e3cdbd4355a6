"""Where the code stands against the abstract's three headline claims.

The abstract claims that, against two baselines, multilayer placement
places twice as many services (2×), satisfies deadlines for three times as
many requests (3×) and wastes 15–32× fewer resources. The tables below pin
what the code measures, strategy by strategy, at SMALL and LARGE seeds 0–2
(reliable satisfaction at D-LARGE seed 0, the overlap of feature
partitions, connectivity_greedy's whole apps and the multilayer ablation
at D-LARGE seeds 0–9, and connectivity_greedy's hosts at D-LARGE seed 1).
They record the departures;
they are not targets. Each tuple lists (multilayer, first_fit,
connectivity_greedy). A change that moves a number updates it here and
says why in CHANGES.md.
"""

from __future__ import annotations

from functools import lru_cache

from fogpart import simulator
from fogpart.metrics import placement_success_rate, resource_wastage
from fogpart.multilayer import build_multilayer
from fogpart.partitioner import (
    RESOURCE_LAYERS,
    PartitionSet,
    compress_graph,
    derive_feature_partitions,
    multilayer_resource_partition,
)
from fogpart.placement import STRATEGIES, run_placement
from fogpart.scenario import ScenarioConfig, generate_scenario

CASES = [(scale, seed) for scale in ("SMALL", "LARGE") for seed in range(3)]


@lru_cache(maxsize=None)
def chain(scale: str, seed: int):
    """(scenario, feature partitions, {strategy: plans}, network partitions, {layer: partitions}) as the CLI chain builds them."""
    scenario = generate_scenario(ScenarioConfig(seed=seed).with_scale(scale))
    topology = scenario.topology()
    fps, network, layer_sets = multilayer_resource_partition(build_multilayer(topology))
    instances = scenario.instances()
    plans = {
        strategy: run_placement(
            instances, topology, strategy=strategy, feature_partitions=fps, network=network
        )
        for strategy in STRATEGIES
    }
    return scenario, fps, plans, network, layer_sets


def per_strategy(measure):
    """``measure(scenario, plans)`` of every strategy, for every case."""
    table = {}
    for case in CASES:
        scenario, _, plans, _, _ = chain(*case)
        table[case] = tuple(measure(scenario, plans[strategy]) for strategy in STRATEGIES)
    return table


def test_placement_success():
    """Claim: 2× the placed services. Measured: a tie with first_fit.

    Against first_fit, multilayer's success ratio is 1.00, 1.06 and 0.98 at
    LARGE seeds 0–2, and 1.00, 1.00 and 0.97 at SMALL. Only
    connectivity_greedy trails by 2× or more: 2.31, 4.11 and 3.46 at LARGE.
    """
    assert per_strategy(lambda _, plans: round(placement_success_rate(plans.values()), 4)) == {
        ("SMALL", 0): (1.0, 1.0, 1.0),
        ("SMALL", 1): (1.0, 1.0, 0.5813),
        ("SMALL", 2): (0.9677, 1.0, 0.929),
        ("LARGE", 0): (0.9622, 0.9622, 0.4163),
        ("LARGE", 1): (0.776, 0.7312, 0.1888),
        ("LARGE", 2): (0.8842, 0.9007, 0.2555),
    }


def test_fully_and_partly_placed_apps():
    """Claim: 2× the placed services, counted here in whole apps.

    Pinned as (fully placed, partly placed) apps of 29 (SMALL) or 98
    (LARGE). Multilayer trails first_fit in fully placed apps at every LARGE
    seed (88 vs 90, 67 vs 68, 78 vs 88) and strands 9, 26 and 16 apps whose
    requests all fail while their placed services hold capacity. The anchor
    rule, which confines an app to its first service's network partition,
    is the likely cause.
    """

    def counts(_, plans):
        full = sum(plan.fully_placed for plan in plans.values())
        started = sum(
            any(d is not None for d in plan.assignment.values()) for plan in plans.values()
        )
        return full, started - full

    assert per_strategy(counts) == {
        ("SMALL", 0): ((29, 0), (29, 0), (29, 0)),
        ("SMALL", 1): ((29, 0), (29, 0), (16, 1)),
        ("SMALL", 2): ((27, 2), (29, 0), (27, 1)),
        ("LARGE", 0): ((88, 9), (90, 1), (36, 3)),
        ("LARGE", 1): ((67, 26), (68, 1), (13, 3)),
        ("LARGE", 2): ((78, 16), (88, 2), (19, 3)),
    }


def test_resource_wastage():
    """Claim: 15–32× less wastage. Measured: at most 6.8×, against connectivity_greedy.

    ``resource_wastage`` is 1 − placed service units / all device units, so
    it restates success: all three strategies score 0.7302 at SMALL seed 0.
    At LARGE the baselines waste 1.04, 1.29 and 0.85× (first_fit) and 5.80,
    6.80 and 6.01× (connectivity_greedy) what multilayer wastes.
    """

    def wastage(scenario, plans):
        apps = {app.id: app for app in scenario.instances()}
        placements = [(apps[rid], plan) for rid, plan in sorted(plans.items())]
        return round(resource_wastage(placements, scenario.devices), 4)

    assert per_strategy(wastage) == {
        ("SMALL", 0): (0.7302, 0.7302, 0.7302),
        ("SMALL", 1): (0.6265, 0.6265, 0.7829),
        ("SMALL", 2): (0.7156, 0.7062, 0.729),
        ("LARGE", 0): (0.1036, 0.1075, 0.6013),
        ("LARGE", 1): (0.1154, 0.149, 0.7847),
        ("LARGE", 2): (0.1234, 0.1051, 0.7419),
    }


def test_feature_partitions():
    """The structure the claims rest on: (feature partition count, summed size).

    No claim gives a number here. A feature partition is the union of its
    resource-layer partitions, so their device sets overlap: the sizes sum
    to 173, 206 and 159 over 101 devices at seeds 0–2. SMALL and LARGE
    share the infrastructure, so they share these numbers.
    """

    def shape(scale, seed):
        fps = chain(scale, seed)[1]
        return len(fps.device_index), sum(len(devs) for devs in fps.device_index.values())

    assert {case: shape(*case) for case in CASES} == {
        ("SMALL", 0): (2, 173),
        ("SMALL", 1): (3, 206),
        ("SMALL", 2): (2, 159),
        ("LARGE", 0): (2, 173),
        ("LARGE", 1): (3, 206),
        ("LARGE", 2): (2, 159),
    }


def test_feature_partitions_overlap_across_cells():
    """Departure: feature partitions overlap. Pinned, not fixed: the overlap is not what costs multilayer.

    A feature partition is the union of its resource-layer partitions, so
    its device sets overlap instead of splitting the devices. Pinned at
    D-LARGE (101 devices) over scenario seeds 0–9 as (fp count, each fp's
    device count in fp id order, distinct (CPU, MEM, STORAGE) partition
    cells): 2–3 fps of 32–99 devices each, against 29–45 cells. Disjoint
    fps, one per cell with the cell's three layer partitions as members,
    were tried over these seeds: multilayer's fully placed apps went from
    794 to 808 and its stranded apps from 160 to 142. Dropping the anchor
    rule instead, which confines an app to its first service's network
    partition, gave 850 and 28. So the anchor costs multilayer its whole
    apps, not the overlap.
    """

    def shape(seed):
        scenario, fps, _, _, layer_sets = chain("D-LARGE", seed)
        cell = {d.id: [] for d in scenario.devices}
        for layer in RESOURCE_LAYERS:
            for pid, devs in sorted(layer_sets[layer].partitions.items()):
                for d in devs:
                    cell[d].append(pid)
        sizes = tuple(len(fps.device_index[f]) for f in fps.ids())
        return len(sizes), sizes, len({tuple(pids) for pids in cell.values()})

    assert {seed: shape(seed) for seed in range(10)} == {
        0: (2, (77, 96), 32),
        1: (3, (32, 91, 83), 39),
        2: (2, (99, 60), 34),
        3: (3, (67, 72, 67), 35),
        4: (3, (58, 79, 71), 38),
        5: (3, (81, 84, 50), 33),
        6: (3, (71, 62, 70), 45),
        7: (3, (79, 46, 82), 29),
        8: (2, (68, 98), 33),
        9: (3, (53, 69, 78), 39),
    }


def test_connectivity_greedy_places_only_in_the_cloud_partition():
    """Departure: connectivity_greedy offers every app the cloud's network partition.

    It gives each app the network partition with the most residual units,
    and a device's units are the largest of its free cores, GB and TB. The
    cloud starts with 250 of each; its memory or storage runs out long
    before its cores, but the cores keep its partition the "fullest" after
    nothing fits there. At D-LARGE seed 1 every one of its 15 hosts lies
    in the cloud's network partition, and it places 118 of 625 services.
    """
    scenario, _, plans, network, _ = chain("D-LARGE", 1)
    hosts = [d for plan in plans["connectivity_greedy"].values() for d in plan.assignment.values()]
    placed = {d for d in hosts if d is not None}
    cloud_partition = network.partitions[network.assignment[scenario.cloud_id]]
    assert (len(placed), len(hosts) - hosts.count(None), len(hosts)) == (15, 118, 625)
    assert placed <= cloud_partition


def test_whole_apps_over_ten_seeds():
    """The cost of connectivity_greedy's rule over D-LARGE seeds 0–9, in whole apps of 980.

    Pinned as (apps with no placed service, fully placed, stranded) per
    strategy: connectivity_greedy places nothing of 693 apps, against 26
    for multilayer and 118 for first_fit.
    """

    def shape(strategy):
        plans = [plan for seed in range(10) for plan in chain("D-LARGE", seed)[2][strategy].values()]
        nothing = sum(all(d is None for d in plan.assignment.values()) for plan in plans)
        full = sum(plan.fully_placed for plan in plans)
        return nothing, full, len(plans) - nothing - full

    assert tuple(shape(strategy) for strategy in STRATEGIES) == ((26, 794, 160), (118, 842, 20), (693, 266, 21))


def test_multilayer_ablation_over_ten_seeds():
    """What the multilayer method's parts buy over D-LARGE seeds 0–9: the feature partitions barely steer placement.

    Each variant of multilayer placement is pinned as (fully placed apps of
    980, stranded apps, satisfied requests per tick), summed over the seeds.
    In reliable mode every tick fires every request with the same verdict.
    The variants are built from data, with no strategy or option of their
    own:
    - ``alpha`` 1 with ``beta`` 0 ranks the fps by demand similarity alone,
      and ``alpha`` 0 with ``beta`` 1 by proximity alone;
    - one fp holds every compressed node (``derive_feature_partitions``), so
      every device is offered, ordered by transmission time from the gateway;
    - no anchor gives the network one partition of every device, so an app
      is not confined to its first service's network partition.
    The fp ranking moves at most 9 fully placed apps and the fps themselves
    8: the feature partitions, the paper's core, move fewer than 10 of 980
    apps. Dropping the anchor places 56 more and strands 132 fewer. With one
    fp and no anchor, multilayer is proximity-ordered first fit, and it
    places 853 apps fully, more than first_fit's 842.
    """

    totals: dict[str, tuple[int, int, int]] = {}
    for seed in range(10):
        scenario, fps, _, network, layer_sets = chain("D-LARGE", seed)
        topology = scenario.topology()
        instances = scenario.instances()
        cg = compress_graph([layer_sets[layer] for layer in RESOURCE_LAYERS], topology.devices)
        one_fp = derive_feature_partitions({0: frozenset(cg.nodes)}, cg, 0.0)
        everyone = frozenset(topology.devices)
        no_anchor = PartitionSet(network.layer, dict.fromkeys(everyone, 0), {0: everyone}, 0.0)
        variants = {  # (feature partitions, network partitions, alpha, beta)
            "default": (fps, network, 0.5, 0.5),
            "alpha 1, beta 0": (fps, network, 1.0, 0.0),
            "alpha 0, beta 1": (fps, network, 0.0, 1.0),
            "one fp": (one_fp, network, 0.5, 0.5),
            "no anchor": (fps, no_anchor, 0.5, 0.5),
            "one fp, no anchor": (one_fp, no_anchor, 0.5, 0.5),
        }
        for name, (feature_partitions, anchors, alpha, beta) in variants.items():
            plans = run_placement(instances, topology, "multilayer", feature_partitions, anchors, alpha, beta)
            full = sum(plan.fully_placed for plan in plans.values())
            started = sum(any(d is not None for d in plan.assignment.values()) for plan in plans.values())
            outcomes = simulator.run(scenario, plans, mode=simulator.RELIABLE).outcomes
            satisfied = sum(o.status == simulator.SATISFIED for o in outcomes) // len(outcomes.ticks)
            before = totals.get(name, (0, 0, 0))
            totals[name] = (before[0] + full, before[1] + started - full, before[2] + satisfied)
    assert totals == {
        "default": (794, 160, 705),
        "alpha 1, beta 0": (792, 152, 704),
        "alpha 0, beta 1": (785, 158, 697),
        "one fp": (786, 164, 698),
        "no anchor": (850, 28, 765),
        "one fp, no anchor": (853, 33, 768),
    }


def test_reliable_deadline_satisfaction():
    """Claim: 3× the satisfied requests. Measured at D-LARGE seed 0: 0.96× first_fit.

    In reliable mode each request gets the same verdict at every one of its
    1,284 ticks, so satisfaction is satisfied requests over 98. Multilayer
    satisfies 71, first_fit 74 and connectivity_greedy 22: 3.23× the latter
    only.
    """
    scenario, _, plans, _, _ = chain("D-LARGE", 0)
    measured = []
    for strategy in STRATEGIES:
        outcomes = simulator.run(scenario, plans[strategy], mode=simulator.RELIABLE).outcomes
        satisfied = sum(o.status == simulator.SATISFIED for o in outcomes)
        assert len(outcomes) == 98 * 1284
        measured.append((satisfied // 1284, round(satisfied / len(outcomes), 4)))
    assert measured == [(71, 0.7245), (74, 0.7551), (22, 0.2245)]
