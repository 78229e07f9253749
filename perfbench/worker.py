"""One pass of one workload in a fresh interpreter (started by run.py).

Usage: python3 perfbench/worker.py --workload W --seed N --size full|smoke
           --spawned-at T [--once] [--trace SPANS_PATH] [--probe]

Imports latticelab from the checkout's `src`, makes the workload's inputs
from the seed, runs one pass, checks the answers, and prints one JSON
object as its last line.  `--spawned-at` is the wall-clock time at which
the parent started this process, so set-up time runs from interpreter
start to the first timed call.  `--probe` stops after set-up; `--once`
skips the rounds that time items again after the pass.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_latticelab():
    if not os.path.isfile(os.path.join(SRC, "latticelab", "__init__.py")):
        sys.exit(f"no latticelab sources under {SRC}")
    sys.path.insert(0, SRC)
    import latticelab

    if not os.path.abspath(latticelab.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported latticelab from {latticelab.__file__}, not {SRC}")
    return latticelab


def _layer_metrics(tracer, workload_wall):
    "Per-layer metrics from the spans of the traced pass."
    import spans

    summary = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for _, _, name in spans.LAYERS:
        row = summary.get(name, {})
        put(f"{name}.calls", row.get("calls", 0), "count")
        put(f"{name}.self_s", row.get("self_s", 0.0), "s")
    for n in (8, 9, 10):
        row = summary.get(f"atlas.enumerate_lattices.n{n}", {})
        put(f"atlas.enumerate_lattices.n{n}.self_s", row.get("self_s", 0.0), "s")
    kept = tracer.observed.get("atlas.canonicalize", [])
    put("atlas.enumerate.candidates", len(kept), "count")
    put("atlas.enumerate.keep_ratio", len(set(kept)) / len(kept) if kept else 0.0, "ratio")
    searches = tracer.observed.get("shellability.el_search", [])
    nodes = sum(n for n, _ in searches)
    search_s = summary.get("shellability.el_search", {}).get("total_s", 0.0)
    put("shellability.el_search.nodes", nodes, "count")
    put("shellability.el_search.nodes_per_s", nodes / search_s if search_s else 0.0, "1/s")
    put("shellability.el_search.unknown", sum(1 for _, s in searches if s == "unknown"), "count")
    put("trace.spans", len(tracer.start), "count")
    put("trace.wall_s", workload_wall, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--once", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_PATH")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    lib = _import_latticelab()
    import hostclock
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(
            tracer,
            {
                "atlas.enumerate_lattices": {"split": lambda a: f"n{a[0]}"},
                "shellability.el_search": {"observe": lambda r: (r.nodes, r.status)},
            },
        )
        spans.count_calls(
            tracer, "atlas", "canonicalize", "atlas.canonicalize",
            observe=lambda q: (q.n, q.covers),
        )

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results")) as workdir:
        workload = workloads.make(args.workload, args.seed, args.size, workdir)
        clock = hostclock.HostClock()
        setup_s = time.time() - args.spawned_at
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer:
            tracer.active = True
        run = workload.run(lib, clock, repeat=not args.once)
        if tracer:
            tracer.active = False
        failed, problems = workload.verify(lib, run)

    out = {
        "setup_s": setup_s,
        "wall_s": run.wall[0],
        "wall_ref": run.wall[1],
        "items": {it.key: (it.seconds, it.ref) for it in run.items},
        "host_slowdown": clock.slowdown(),
        "attempted": len(run.items),
        "failed": failed,
        "problems": problems,
        "inputs": workload.describe(),
        "info": run.info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["layers"] = _layer_metrics(tracer, run.wall[0])
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
