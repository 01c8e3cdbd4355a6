"""Command-line pipeline: generate, partition, place, simulate, report.

Every command writes its artifacts plus a ``manifest.json`` listing them.
All randomness flows from --seed; reruns with identical inputs produce
byte-identical data artifacts (set SOURCE_DATE_EPOCH to also pin the
manifest timestamp).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import __version__
from .metrics import (
    REPORT_COLUMNS,
    cumulative_series,
    emit_report,
    hop_histogram,
    hop_summary,
    placement_success_rate,
    resource_wastage,
)
from .multilayer import build_multilayer
from .partitioner import multilayer_resource_partition
from .placement import STRATEGIES, run_placement
from .scenario import PRESET_FIELDS, PRESETS, ConfigError, ScenarioConfig, generate_scenario
from .serialize import (
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
    write_csv,
)
from . import simulator

log = logging.getLogger("fogpart")


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _timestamp() -> str:
    # honor SOURCE_DATE_EPOCH so reruns can be fully byte-identical
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    moment = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(moment))


def _write_manifest(out_dir: Path, command: str, seed: int | None, config_payload: dict, artifacts: list[Path]) -> Path:
    manifest = {
        "schema_version": 1,
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "config_hash": _config_hash(config_payload),
        "artifacts": sorted(p.name for p in artifacts),
        "created_utc": _timestamp(),
    }
    return dump_json(out_dir / "manifest.json", manifest)


def _load_config_file(path: Path | None, preset: str | None, seed: int | None) -> ScenarioConfig:
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
        if type(data) is not dict:
            raise ConfigError("config must be a JSON object")
    unknown = set(data).difference(ScenarioConfig._fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    file_scale = data.pop("scale", None)
    scale = preset or file_scale  # the flag wins, as --seed does
    if seed is not None:
        data["seed"] = seed
    try:
        cfg = config_from_dict(data)
    except TypeError as exc:
        raise ConfigError(f"invalid config: {exc}")
    if scale:
        cfg = cfg.with_scale(scale)
        # a config may repeat the fields a scale sets, but not change them
        clash = [k for k in PRESET_FIELDS if k in data and data[k] != getattr(cfg, k)]
        if clash:
            raise ConfigError(f"scale {scale} fixes {', '.join(clash)}; the config sets other values")
    return cfg


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config, args.preset, args.seed)
    scenario = generate_scenario(cfg)
    out = Path(args.out)
    payload = scenario_to_dict(scenario)
    artifacts = [dump_json(out / "scenario.json", payload)]
    _write_manifest(out, "generate", cfg.seed, config_to_dict(cfg), artifacts)
    log.info(
        "generated scenario: %d devices, %d apps, %d requests, %d scheduled",
        len(scenario.devices), len(scenario.apps), len(scenario.requests), len(scenario.schedule),
    )
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    scenario = scenario_from_dict(load_json(args.scenario), schedule=False)
    graph = build_multilayer(scenario.topology())
    fps, network, layer_sets = multilayer_resource_partition(graph)
    out = Path(args.out)
    config_hash = _config_hash(config_to_dict(scenario.config))
    payload = partitions_to_dict(fps, network, layer_sets, config_hash)
    artifacts = [dump_json(out / "partitions.json", payload)]
    summary_rows = [["NETWORK", repr(network.modularity), len(network.partitions)]]
    for layer, ps in sorted(layer_sets.items()):
        summary_rows.append([layer.name, repr(ps.modularity), len(ps.partitions)])
    summary_rows.append(["FEATURE", repr(fps.modularity), len(fps.feature_partitions)])
    artifacts.append(
        write_csv(out / "modularity.csv", ["layer", "modularity", "partitions"], summary_rows)
    )
    _write_manifest(
        out, "partition", args.seed, config_to_dict(scenario.config), artifacts
    )
    log.info(
        "partitioned: %d network partitions, %d feature partitions",
        len(network.partitions), len(fps.feature_partitions),
    )
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    scenario = scenario_from_dict(load_json(args.scenario), schedule=False)
    fps = network = None
    if args.strategy == "multilayer" or args.strategy == "connectivity_greedy":
        if args.partitions is None:
            raise ConfigError(f"strategy {args.strategy} requires --partitions")
        fps, network, built_for = partitions_from_dict(load_json(args.partitions), scenario.devices)
        if built_for != _config_hash(config_to_dict(scenario.config)):
            raise ConfigError(
                "partitions were built for another scenario: their scenario config hash differs"
            )
    topology = scenario.topology()
    instances = scenario.instances()
    plans = run_placement(
        instances=instances,
        topology=topology,
        strategy=args.strategy,
        feature_partitions=fps,
        network=network,
        alpha=args.alpha,
        beta=args.beta,
    )
    out = Path(args.out)
    artifacts = [dump_json(out / "plans.json", plans_to_dict(plans, args.strategy, args.alpha, args.beta))]

    by_id = {a.id: a for a in instances}
    placements = [(by_id[rid], plan) for rid, plan in sorted(plans.items())]
    histogram = hop_histogram(placements, topology)
    mean_hops, max_hops, unreachable = hop_summary(histogram)
    metrics = {
        "schema_version": 1,
        "scenario": scenario.config.scale,
        "strategy": args.strategy,
        "placement_success_rate": placement_success_rate(plans.values()),
        "resource_wastage": resource_wastage(placements, scenario.devices),
        "hop_histogram": {str(k): v for k, v in histogram.items()},
        "hop_mean": mean_hops,
        "hop_max": max_hops,
        "unreachable_services": unreachable,
    }
    artifacts.append(dump_json(out / "metrics.json", metrics))
    _write_manifest(out, "place", None, config_to_dict(scenario.config), artifacts)
    log.info("placed with %s: success rate %.4f", args.strategy, metrics["placement_success_rate"])
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = scenario_from_dict(load_json(args.scenario))
    plans, strategy = plans_from_dict(load_json(args.plans))
    result = simulator.run(
        scenario,
        plans,
        mode=args.mode,
        failure_period_s=args.failure_period_s,
        seed=args.seed,
    )
    out = Path(args.out)
    rows, tally = cumulative_series(result.outcomes.ticks)
    artifacts = [
        write_csv(out / "outcomes.csv", ["time_s", "requests", "satisfied", "cumulative_ratio"], rows)
    ]
    requests = tally.total()
    metrics = {
        "schema_version": 1,
        "scenario": scenario.config.scale,
        "strategy": strategy,
        "mode": result.mode,
        "horizon_s": scenario.config.horizon_s,
        "requests": requests,
        "deadline_satisfaction": tally[simulator.SATISFIED] / requests if requests else 0.0,
        "failures": len(result.deaths),
        "outcome_counts": {
            status: tally[status]
            for status in (simulator.SATISFIED, simulator.MISSED, simulator.FAILED_DEPENDENCY)
        },
    }
    artifacts.append(dump_json(out / "metrics.json", metrics))
    _write_manifest(out, "simulate", args.seed, config_to_dict(scenario.config), artifacts)
    log.info(
        "simulated %s/%s: %d requests, satisfaction %.4f",
        strategy, result.mode, requests, metrics["deadline_satisfaction"],
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for run_dir in args.runs:
        run_dir = Path(run_dir)
        metrics_path = run_dir / "metrics.json"
        if not metrics_path.exists():
            raise ConfigError(f"run directory {run_dir} has no metrics.json")
        data = load_json(metrics_path)
        if not isinstance(data, dict):
            raise ConfigError(f"{metrics_path} holds {type(data).__name__}, not a JSON object")
        row = {col: data.get(col) for col in (*REPORT_COLUMNS, "hop_histogram")}
        row["run"] = run_dir.name
        rows.append(row)
    out = Path(args.out)
    artifacts = emit_report(rows, out)
    _write_manifest(out, "report", None, {"runs": [str(r) for r in args.runs]}, artifacts)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogpart",
        description="Multilayer resource-aware partitioning and service placement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a scenario bundle")
    g.add_argument("--config", type=Path, default=None, help="JSON config file")
    g.add_argument("--preset", choices=sorted(PRESETS), default=None)
    g.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    g.add_argument("--out", type=Path, required=True)
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("partition", help="run the multilayer partitioning pipeline")
    p.add_argument("--scenario", type=Path, required=True)
    p.add_argument(
        "--seed", type=int, default=0,
        help="recorded in the manifest only; partitioning is deterministic",
    )
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_partition)

    pl = sub.add_parser("place", help="place all requested applications")
    pl.add_argument("--scenario", type=Path, required=True)
    pl.add_argument("--partitions", type=Path, default=None)
    pl.add_argument("--strategy", choices=STRATEGIES, default="multilayer")
    pl.add_argument("--alpha", type=float, default=0.5)
    pl.add_argument("--beta", type=float, default=0.5)
    pl.add_argument("--out", type=Path, required=True)
    pl.set_defaults(func=cmd_place)

    s = sub.add_parser("simulate", help="replay the schedule up to the scenario horizon against plans")
    s.add_argument("--scenario", type=Path, required=True)
    s.add_argument("--plans", type=Path, required=True)
    s.add_argument("--mode", choices=(simulator.RELIABLE, simulator.FAULTY), default=simulator.RELIABLE)
    s.add_argument("--failure-period-s", type=float, default=20.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", type=Path, required=True)
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("report", help="cross-run comparison tables")
    r.add_argument("--runs", type=Path, nargs="+", required=True)
    r.add_argument("--out", type=Path, required=True)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("FOGPART_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    # a command leaves almost no cyclic garbage, so a collection would only
    # re-walk its growing heap, decoded documents included; the collector is
    # paused for the command and left as the caller had it
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"fogpart {args.command}: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
