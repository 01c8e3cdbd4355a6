"""One repetition: run the 12-command CLI chain in this process and time it.

Started by ``run.py`` as a fresh interpreter per repetition. Imports fogpart
from the checkout's ``src/`` and calls ``fogpart.cli.main(argv)`` for each
command, so the timings cover exactly what the ``fogpart`` console script
does minus interpreter start-up. Writes one JSON result file; with
``--trace 1`` it also records spans and counters (see tracing.py) and writes
the spans next to the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scenario-seed", type=int, required=True)
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from fogpart import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"fogpart imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, chain

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    work: Path = args.work
    out = work / "chain"
    shutil.rmtree(out, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    workload = WORKLOADS[args.workload]
    config.write_text(json.dumps(workload.config(), sort_keys=True) + "\n")

    commands = []
    pipeline_start = time.perf_counter()
    for command, out_dir, argv in chain(workload, args.scenario_seed, args.order_seed, config, out):
        if tracer is not None:
            tracer.new_command()
            span = tracer.open("cli." + command)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a dead bench
            print(f"fogpart {command} --out {out_dir} crashed:", file=sys.stderr)
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        commands.append({"command": command, "out": out_dir, "exit": code, "seconds": elapsed})
    pipeline_s = time.perf_counter() - pipeline_start

    result = {
        "commands": commands,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {
            "counts": dict(tracer.counts),
            "totals": dict(tracer.totals),
            "span_totals": tracer.span_totals(),
            "self_s": tracer.self_times("cli."),
        }
        spans = [
            {"name": n, "start": s - pipeline_start, "end": e - pipeline_start, "parent": p}
            for n, s, e, p in tracer.spans
        ]
        (work / "spans.json").write_text(json.dumps(spans) + "\n")
    (work / "result.json").write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
