"""Multilayer resource-aware partitioning and service placement for fog infrastructures."""

from .model import (
    Application,
    Device,
    Message,
    NetworkLink,
    PlacementPlan,
    Service,
    Topology,
    USER,
    deadline_satisfied,
    execution_time,
    response_times,
    transmission_time,
)
from .multilayer import Layer, LayerView, MultilayerGraph, SimilarityView, build_multilayer
from .partitioner import (
    CompressedGraph,
    FeaturePartitionSet,
    FeatureTriplet,
    PartitionSet,
    compress_graph,
    derive_feature_partitions,
    feature_partition,
    louvain_partition,
    multilayer_resource_partition,
    partition_feature,
)
from .placement import (
    demand_similarity,
    place_service,
    placement_valid,
    run_placement,
    sort_applications,
)
from .scenario import (
    AppRequest,
    Scenario,
    ScenarioConfig,
    generate_applications,
    generate_scenario,
    generate_topology,
    generate_users,
)

__version__ = "0.1.0"
