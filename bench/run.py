"""fogpart benchmark: times the 12-command CLI chain and checks its outputs.

Usage, from the repository root:

    python3 bench/run.py --workload fleet-800 [--seed 0] [--scenario-seed 0]
                         [--seconds 20] [--trace 0|1]

Each chain is a fresh interpreter running ``bench/chain.py``. Every chain of
a run repeats the same inputs: the workload's scenario at ``--scenario-seed``,
with the independent place and simulate commands in an order drawn from
``--seed``. A run keeps starting chains while ``--seconds`` allow (see
``main`` for the minimum counts), and every chain's artifacts must be
bit-identical to the first's. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of untraced chains; ``--trace 1``
alternates untraced and traced chains and reports the per-layer metrics.
Metric names and units are listed in ``BENCHMARK.json`` and explained in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_chain
from workloads import MODES, STRATEGIES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = Path(".bench_build")  # relative to ROOT, so artifact paths hash alike everywhere

MIN_CHAINS = 2
MIN_TRACED = 2
SETUP_RUNS = 11
RUN_LIMIT_S = 175  # a run must end within 180 s, so chains get what is left
MIB = 1024.0 * 1024.0

SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fogpart.cli; print(time.perf_counter() - t)"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        SOURCE_DATE_EPOCH="0",
        PYTHONPYCACHEPREFIX=str(ROOT / BUILD / "pycache"),
        FOGPART_LOG="WARNING",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the prefix cache must fill
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Median cold ``import fogpart.cli`` in fresh interpreters (bytecode cached)."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src")]
    samples = []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        if i:  # the first run only fills the bytecode cache
            samples.append(float(out.stdout))
    return statistics.median(samples)


def run_chain(args: argparse.Namespace, trace: bool, env: dict[str, str], timeout: float) -> dict:
    """One repetition: timings, hashes, checks and quality."""
    work = BUILD / "work" / args.workload
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "chain.py"), "--workload", args.workload,
         "--scenario-seed", str(args.scenario_seed), "--order-seed", str(args.seed),
         "--work", str(work), "--trace", str(int(trace))],
        env=env, cwd=ROOT, check=True, timeout=timeout,
    )
    result = json.loads((ROOT / work / "result.json").read_text())
    chain_dir = ROOT / work / "chain"
    result["hashes"] = {
        str(p.relative_to(chain_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(chain_dir.rglob("*")) if p.is_file()
    }
    result["artifact_bytes"] = sum((chain_dir / p).stat().st_size for p in result["hashes"])
    result["problems"] = check_chain(ROOT, result["commands"])
    result["quality"] = quality(chain_dir)
    return result


def _field(path: Path, key: str):
    """One field of a JSON artifact; None if unreadable (the checks say why)."""
    try:
        return json.loads(path.read_text())[key]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def quality(chain_dir: Path) -> dict[str, float]:
    """Placement and simulation outcomes read back from the artifacts; 0 if unreadable."""
    place = chain_dir / "place"
    out = {
        f"success.{s}": _field(place / s / "metrics.json", "placement_success_rate")
        for s in STRATEGIES
    }
    out["wastage.multilayer"] = _field(place / "multilayer" / "metrics.json", "resource_wastage")
    for mode in MODES:
        path = chain_dir / "simulate" / f"multilayer-{mode}" / "metrics.json"
        out[f"satisfaction.{mode}"] = _field(path, "deadline_satisfaction")
    plans = _field(place / "multilayer" / "plans.json", "plans") or {}
    out["unplaced"] = sum(
        1 for p in plans.values() for dev in p["assignment"].values() if dev == "invalid"
    )
    scenario = chain_dir / "generate" / "scenario.json"
    out["scenario_bytes"] = scenario.stat().st_size if scenario.is_file() else 0
    return {k: 0.0 if v is None else v for k, v in out.items()}


def mark_mismatches(reps: list[dict]) -> None:
    """Fail each command whose artifacts differ from the run's first chain."""
    reference = reps[0]["hashes"]
    for rep in reps[1:]:
        for cmd in rep["commands"]:
            prefix = cmd["out"].split("/chain/", 1)[1] + "/"
            names = {n for n in (*reference, *rep["hashes"]) if n.startswith(prefix)}
            bad = sorted(n for n in names if reference.get(n) != rep["hashes"].get(n))
            if bad:
                rep["problems"][cmd["out"]].append(f"not bit-identical to the first chain: {bad}")


def command_seconds(rep: dict, command: str) -> float:
    return sum(c["seconds"] for c in rep["commands"] if c["command"] == command)


def median_of(reps: list[dict], fn) -> float:
    return statistics.median(fn(r) for r in reps)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[dict], setup_s: float, attempted: int, failed: int) -> dict:
    """Times and RSS are medians over the run's chains.

    Sizes and ratios come from the first chain: every chain repeats its
    inputs, and a chain whose artifacts differ has already failed.
    """
    q = reps[0]["quality"]
    return {
        "pipeline_s": metric(median_of(reps, lambda r: r["pipeline_s"]), "s"),
        "partition_s": metric(median_of(reps, lambda r: command_seconds(r, "partition")), "s"),
        "place_s": metric(median_of(reps, lambda r: command_seconds(r, "place")), "s"),
        "simulate_s": metric(median_of(reps, lambda r: command_seconds(r, "simulate")), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(median_of(reps, lambda r: r["peak_rss_mb"]), "MB"),
        "artifact_mb": metric(reps[0]["artifact_bytes"] / MIB, "MB"),
        "placement_success": metric(q["success.multilayer"], "ratio"),
        "resource_wastage": metric(q["wastage.multilayer"], "ratio"),
        "deadline_satisfaction.reliable": metric(q["satisfaction.reliable"], "ratio"),
        "deadline_satisfaction.faulty": metric(q["satisfaction.faulty"], "ratio"),
        "succeeded_ops_share": metric((attempted - failed) / attempted, "ratio"),
    }


# Per-layer counts, and below them other values, that must repeat exactly
# between traced repetitions.
COUNTS = {
    "scenario.schedule_events": "count",
    "multilayer.edges": "count",
    "partitioner.louvain_calls": "count",
    "partitioner.feature_partitions": "count",
    "model.route_queries": "count",
    "model.route_distinct": "count",
    "model.response_times_calls": "count",
    "simulator.requests": "count",
    "simulator.epochs": "count",
    "simulator.rt_evaluations": "count",
}
EXACT = {
    "partitioner.q_network": "modularity",
    "partitioner.q_cpu": "modularity",
    "partitioner.q_mem": "modularity",
    "partitioner.q_storage": "modularity",
    "partitioner.q_feature": "modularity",
    "serialize.scenario_bytes": "bytes",
    "placement.success.first_fit": "ratio",
    "placement.success.connectivity_greedy": "ratio",
    "placement.unplaced_services": "count",
}
SPAN_TIMES = {
    "scenario.generate_s": "scenario.generate",
    "serialize.load_s": "serialize.load",
    "serialize.dump_s": "serialize.dump",
    "serialize.scenario_from_dict_s": "serialize.scenario_from_dict",
    "multilayer.build_s": "multilayer.build",
    "partitioner.louvain_s": "partitioner.louvain",
    "partitioner.compress_s": "partitioner.compress",
    "partitioner.feature_s": "partitioner.feature",
    "placement.multilayer_s": "placement.multilayer",
    "placement.first_fit_s": "placement.first_fit",
    "placement.connectivity_greedy_s": "placement.connectivity_greedy",
    "simulator.run_s.reliable": "simulator.run.reliable",
    "simulator.run_s.faulty": "simulator.run.faulty",
    "metrics.cumulative_series_s": "metrics.cumulative_series",
    "metrics.hop_histogram_s": "metrics.hop_histogram",
}
COMMANDS = ("generate", "partition", "place", "simulate", "report")


def layer_values(rep: dict) -> dict[str, float]:
    """Every per-layer metric of one traced repetition."""
    trace, q = rep["trace"], rep["quality"]
    spans = trace["span_totals"]
    values: dict[str, float] = {name: trace["counts"].get(name, 0) for name in COUNTS}
    for name in ("q_network", "q_cpu", "q_mem", "q_storage", "q_feature"):
        values["partitioner." + name] = trace["totals"].get("partitioner." + name, 0.0)
    values["serialize.scenario_bytes"] = q["scenario_bytes"]
    values["placement.success.first_fit"] = q["success.first_fit"]
    values["placement.success.connectivity_greedy"] = q["success.connectivity_greedy"]
    values["placement.unplaced_services"] = q["unplaced"]
    for name, span in SPAN_TIMES.items():
        values[name] = spans.get(span, 0.0)
    values["model.route_s"] = trace["totals"].get("model.route_s", 0.0)
    values["model.response_times_s"] = trace["totals"].get("model.response_times_s", 0.0)
    run_s = values["simulator.run_s.reliable"] + values["simulator.run_s.faulty"]
    # no simulator spans means the simulate commands failed, and the checks say so
    values["simulator.requests_per_s"] = values["simulator.requests"] / run_s if run_s else 0.0
    for command in COMMANDS:
        values[f"cli.{command}_self_s"] = trace["self_s"].get("cli." + command, 0.0)
    return values


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics (times are medians over traced chains), plus counts that failed to repeat."""
    samples = [layer_values(r) for r in traced]
    mismatched = sorted(
        name for name in (*COUNTS, *EXACT) if any(s[name] != samples[0][name] for s in samples)
    )
    units = {**COUNTS, **EXACT}
    out = {}
    for name in samples[0]:
        if name in units:
            out[name] = metric(samples[0][name], units[name])
        else:
            unit = "1/s" if name.endswith("_per_s") else "s"
            out[name] = metric(statistics.median(s[name] for s in samples), unit)
    overhead = median_of(traced, lambda r: r["pipeline_s"]) - median_of(untraced, lambda r: r["pipeline_s"])
    out["trace.overhead_s"] = metric(overhead, "s")
    return out, mismatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=0,
        help="orders the independent place and simulate commands; changes no artifact",
    )
    parser.add_argument(
        "--scenario-seed", type=int, default=0,
        help="the seed the program receives; use another for a held-out check",
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="time to spend on chains")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fogpart" / "cli.py").is_file():
        print(f"no fogpart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        # untraced and traced chains alternate, at least MIN_TRACED of each
        plan = (i % 2 == 1 for i in itertools.count())
        min_chains = 2 * MIN_TRACED
    else:
        plan = itertools.repeat(False)
        min_chains = MIN_CHAINS

    # SIGTERM unwinds through subprocess.run, which then kills the running chain
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    reps: list[dict] = []
    try:
        setup_s = measure_setup(env)
        start = time.perf_counter()
        for n, use_trace in enumerate(plan, 1):
            t0 = time.perf_counter()
            rep = run_chain(args, use_trace, env, deadline - t0)
            rep["traced"] = use_trace
            reps.append(rep)
            print(
                f"chain {n}: traced {int(use_trace)}, "
                f"pipeline {rep['pipeline_s']:.3f} s, partition "
                f"{command_seconds(rep, 'partition'):.3f} s, place "
                f"{command_seconds(rep, 'place'):.3f} s, simulate "
                f"{command_seconds(rep, 'simulate'):.3f} s",
                flush=True,
            )
            now = time.perf_counter()
            if n >= min_chains and now - start + (now - t0) > args.seconds:
                break
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    mark_mismatches(reps)
    attempted = sum(len(r["commands"]) for r in reps)
    failed = 0
    for i, rep in enumerate(reps, 1):
        for out_dir, reasons in rep["problems"].items():
            if reasons:
                failed += 1
                print(f"repetition {i}: {out_dir}: {'; '.join(reasons)}", file=sys.stderr)
    correct = failed == 0
    if args.trace:
        metrics, mismatched = per_layer(traced, untraced)
        if mismatched:
            correct = False
            print(f"counts differ between traced repetitions: {mismatched}", file=sys.stderr)
    else:
        metrics = end_to_end(untraced, setup_s, attempted, failed)
    print(
        f"{args.workload} seed {args.seed}, scenario seed {args.scenario_seed}: "
        f"setup {setup_s:.4f} s, {len(untraced)} untraced, {len(traced)} traced chains"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
