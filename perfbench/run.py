"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload evolve_T16 --seed 2013 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the same workload twice, untraced and then traced,
and reports the per-layer metrics of the traced pass plus the tracing
overhead (traced minus untraced, per end-to-end metric).  Every run
checks the program's outputs after its timed window; a mismatch exits
non-zero without a result.

The last line of standard output is the result line (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it is the full
run record: environment, samples, serve flags, and in a traced run every
per-layer number and layer share.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_SEED,
    ROOT,
    BenchError,
    environment_record,
    import_program,
)


def workloads():
    import workloads as wl

    return {
        "evolve_T16": wl.evolve_T16,
        "table1_ST16": wl.table1_ST16,
        "serve_mixed": wl.serve_mixed,
    }


def declared_units(kind):
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer"), as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_metrics(kind, values):
    """The result's ``metrics`` object: every declared metric, measured."""
    missing = [name for name in declared_units(kind) if name not in values]
    if missing:
        raise BenchError(f"declared {kind} metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared_units(kind).items()}


def run(workload, seed, seconds, trace):
    """``(record, attempted, failed, metrics)`` for one invocation."""
    import layers

    env = environment_record()
    if env["step_backend"] != "numpy":
        raise BenchError(f"step backend is {env['step_backend']}, "
                         "the benchmark runs on numpy")
    fn = workloads()[workload]
    untraced = fn(seed, seconds)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "end_to_end": untraced.metrics,
        "samples": untraced.samples,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
    }
    if workload == "serve_mixed":
        import workloads as wl

        record["serve_flags"] = wl.serve_flags("<fresh cache>",
                                               "<fresh journal>")
    if not trace:
        metrics = result_metrics("end_to_end", untraced.metrics)
        return record, untraced.attempted, untraced.failed, metrics
    from tracing import Tracer

    traced = fn(seed, seconds, Tracer())
    report = layers.report(workload, untraced, traced)
    record["traced"] = report
    metrics = result_metrics("per_layer", report["per_layer"])
    return record, traced.attempted, traced.failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        record, attempted, failed, metrics = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
