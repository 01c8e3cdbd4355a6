"""The scenario generator's graphs, pinned to what networkx 3.6.1 produced.

``scenario.py`` builds its Barabási–Albert topology, betweenness ranking and
growing-network application trees from the seeded ``random.Random`` streams
exactly as networkx 3.6.1's ``barabasi_albert_graph``,
``betweenness_centrality`` and ``gn_graph`` did, so every ``scenario.json``
keeps its bytes. ``data/generator_nx361.json`` holds the records below as
``generate_topology`` and ``generate_applications`` wrote them while they
called networkx 3.6.1: for each (n, m, seed) the BA edge list (in full up
to ``FULL_EDGES_UP_TO`` devices, as a sha256 above), the gateways and the
cloud's hub; and for SMALL and LARGE at each seed the GN edges and deadline
of every app. The deadline is the app's last draw, so it also pins the
random state after its tree.

The oracle tests compare against networkx itself and run only where
networkx 3.6.1 is importable.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogpart.model import USER
from fogpart.scenario import (
    ScenarioConfig,
    _ba_rows,
    _betweenness,
    _gn_edges,
    _rng,
    generate_applications,
    generate_topology,
)

try:
    import networkx as nx
except ImportError:
    nx = None

needs_networkx_361 = pytest.mark.skipif(
    nx is None or nx.__version__ != "3.6.1", reason="the oracle is networkx 3.6.1"
)

FIXTURE = Path(__file__).parent / "data" / "generator_nx361.json"

DEVICE_COUNTS = (3, 4, 5, 6, 7, 10, 20, 34, 101, 400, 800)
ATTACHMENTS = (1, 2, 3)
SEEDS = range(10)
SCALES = ("SMALL", "LARGE")
FULL_EDGES_UP_TO = 20


def topology_config(n: int, m: int, seed: int) -> ScenarioConfig:
    return ScenarioConfig(device_count=n, gateway_count=n // 4, ba_attachment=m, seed=seed)


def topology_record(n: int, m: int, seed: int) -> dict:
    """Edges, gateways and hub of the generated fog network (the cloud link left out)."""
    _, links, gateways, cloud_id = generate_topology(topology_config(n, m, seed))
    *fog, uplink = links
    assert uplink.b == cloud_id
    edges = [[link.a, link.b] for link in fog]
    record = {"n": n, "m": m, "seed": seed, "gateways": list(gateways), "hub": uplink.a}
    if n <= FULL_EDGES_UP_TO:
        record["edges"] = edges
    else:
        record["edges_sha256"] = hashlib.sha256(json.dumps(edges).encode()).hexdigest()
    return record


def applications_record(scale: str, seed: int) -> dict:
    """Each app's GN tree edges as ``[new, old]`` and its deadline."""
    apps = generate_applications(ScenarioConfig(seed=seed).with_scale(scale))
    return {
        "scale": scale,
        "seed": seed,
        "apps": [
            {
                "gn_edges": [[m.destination, m.source] for m in app.messages if m.source != USER],
                "deadline_ms": app.deadline,
            }
            for app in apps
        ],
    }


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid(fixture):
    grid = [(n, m, s) for n in DEVICE_COUNTS for m in ATTACHMENTS if m < n for s in SEEDS]
    assert [(r["n"], r["m"], r["seed"]) for r in fixture["topologies"]] == grid
    assert [(r["scale"], r["seed"]) for r in fixture["applications"]] == [
        (scale, s) for scale in SCALES for s in SEEDS
    ]


@pytest.mark.parametrize("n", DEVICE_COUNTS)
def test_topologies_match_fixture(fixture, n):
    for expected in fixture["topologies"]:
        if expected["n"] == n:
            assert topology_record(n, expected["m"], expected["seed"]) == expected


@pytest.mark.parametrize("scale", SCALES)
def test_applications_match_fixture(fixture, scale):
    for expected in fixture["applications"]:
        if expected["scale"] == scale:
            assert applications_record(scale, expected["seed"]) == expected


@needs_networkx_361
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_topology_matches_networkx(data):
    n = data.draw(st.integers(3, 150), label="n")
    m = data.draw(st.integers(1, min(3, n - 1)), label="m")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    cfg = topology_config(n, m, seed)
    graph = nx.barabasi_albert_graph(n, m, seed=_rng(seed, "topology"))
    centrality = nx.betweenness_centrality(graph)
    ranked = sorted(graph.nodes, key=lambda v: (centrality[v], v))
    _, links, gateways, _ = generate_topology(cfg)
    assert [(link.a, link.b) for link in links[:-1]] == sorted(
        tuple(sorted(e)) for e in graph.edges
    )
    assert gateways == tuple(sorted(ranked[: cfg.gateway_count]))
    assert links[-1].a == min(graph.nodes, key=lambda v: (-centrality[v], v))


@needs_networkx_361
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ba_rows_match_networkx(data):
    # row order is the order betweenness scans neighbours, so it must match too
    n = data.draw(st.integers(2, 200), label="n")
    m = data.draw(st.integers(1, min(4, n - 1)), label="m")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    ours, theirs = random.Random(seed), random.Random(seed)
    rows = _ba_rows(n, m, ours)
    graph = nx.barabasi_albert_graph(n, m, seed=theirs)
    assert rows == [list(graph[v]) for v in graph]
    assert ours.getstate() == theirs.getstate()


@needs_networkx_361
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_betweenness_matches_networkx_bit_for_bit(data):
    # any simple graph, disconnected and with rows in any order, not only BA graphs
    n = data.draw(st.integers(1, 40), label="n")
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
    edges = [data.draw(st.permutations(e), label="ends") for e in edges]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    centrality = nx.betweenness_centrality(graph)
    assert _betweenness([list(graph[v]) for v in range(n)]) == [centrality[v] for v in range(n)]


@needs_networkx_361
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32))
def test_gn_edges_match_networkx(n, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _gn_edges(n, ours) == sorted(nx.gn_graph(n, seed=theirs).edges)
    assert ours.getstate() == theirs.getstate()
