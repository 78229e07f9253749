"""latticelab benchmark: EL decisions at n=9, the n=10 scan, `check` on large lattices.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload el9|scan10|check-large --seed N \
        --seconds S --trace 0|1 [--smoke]

A run is a closed loop with one caller: it starts one worker process at
a time (perfbench/worker.py), each a fresh interpreter with cold caches
that runs one whole pass of the workload and checks its answers.  Passes
repeat until the workload has its MIN_PASSES and S seconds have gone by.
Set-up time is sampled by further workers that stop after set-up, half
of them before the passes and half after, so that the samples are spread
over the run.

End-to-end metrics, in the result line: setup_s is the median set-up,
from interpreter start to the first timed call.  wall_ref is a pass's
work from its first to its last operation.  An item is one el_search
call, one filter of one class, or one `check`; item_p50_ref and
item_tail_ref are the median item latency and the highest whole
percentile with at least ten items beyond it.  peak_rss_mb is the
largest resident set of a pass.  Times in "ref" units are multiples of a
fixed reference kernel timed alongside the work (hostclock.py), because
a shared host can run whole stretches up to 1.8 times slower; medians
are taken over passes and rounds.  The report before the result line
also gives the same times in seconds (wall_s, item_p50_ms, item_tail_ms,
each the least over passes and rounds) and fail_frac.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a report
for people.  Full results go to perfbench/results/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("el9", "scan10", "check-large")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 6
# End-to-end metrics in the result line; the report also shows raw times.
GATED = ("setup_s", "wall_ref", "item_p50_ref", "item_tail_ref", "peak_rss_mb")
# Passes per run.  el9 and scan10 are too long for two within a run's
# time; they time their items again in rounds after the pass instead.
MIN_PASSES = {"el9": 1, "scan10": 1, "check-large": 2}
# Every run must end within this many seconds; no pass starts that would
# likely end after it.
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


class RunFailed(Exception):
    pass


def _git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _source_digest():
    "sha256 over src/latticelab/*.py, since a checkout need not be a git repository."
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "latticelab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_details():
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_at_start": os.getloadavg(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _worker(args, deadline, *extra):
    "Start one worker, wait for it, and return its JSON result."
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before a worker could start")
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", "smoke" if args.smoke else "full",
    ]
    command += list(extra) + ["--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=remaining, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed("a worker ran past the run's time limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def tail_percentile(count):
    "Highest whole percentile of `count` items with TAIL_BEYOND items beyond it."
    q = math.floor(100 * (count - TAIL_BEYOND) / count) if count else 0
    return max(q, 50)


def nearest_rank(sorted_values, q):
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(passes, setups):
    "{name: (value, unit, note)} of every end-to-end metric, gated or not."
    timings = {}
    for p in passes:
        for key, timing in p["items"].items():
            timings.setdefault(key, []).append(timing)
    seconds = sorted(min(s for s, _ in t) for t in timings.values())
    refs = sorted(statistics.median(r for _, r in t) for t in timings.values())
    q = tail_percentile(len(refs))
    n = f"{len(refs)} items"
    least = f"least of {len(passes)} passes"
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_ref": (statistics.median(p["wall_ref"] for p in passes), "ref",
                     f"median of {len(passes)} passes"),
        "item_p50_ref": (statistics.median(refs), "ref", f"median of {n}"),
        "item_tail_ref": (nearest_rank(refs, q), "ref", f"p{q} of {n}"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB", "largest over the passes"),
        "wall_s": (min(p["wall_s"] for p in passes), "s", least),
        "item_p50_ms": (statistics.median(seconds) * 1e3, "ms", f"median of {n}"),
        "item_tail_ms": (nearest_rank(seconds, q) * 1e3, "ms", f"p{q} of {n}"),
        "host_slowdown": (
            max(p["host_slowdown"] for p in passes),
            "ratio",
            "slowest over fastest reference kernel",
        ),
    }


def measure(args, deadline):
    "--trace 0: whole passes for --seconds, with set-up samples around them."
    setups = [
        _worker(args, deadline, "--probe")["setup_s"]
        for _ in range(SETUP_SAMPLES // 2)
    ]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES[args.workload] or time.monotonic() - start < args.seconds:
        began = time.monotonic()
        passes.append(_worker(args, deadline))
        if 2 * time.monotonic() - began > deadline:
            break  # another pass of the same length would not fit
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(args, deadline, "--probe")["setup_s"])
    return passes, setups


def trace(args, deadline):
    "--trace 1: one untraced pass, then one traced pass."
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.tsv")
    plain = _worker(args, deadline, "--once")
    traced = _worker(args, deadline, "--once", "--trace", spans_path)
    layers = traced.pop("layers")
    # The raw difference carries the host's noise; the ref one divides it out.
    layers["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    layers["trace.overhead_ref"] = {"value": traced["wall_ref"] - plain["wall_ref"], "unit": "ref"}
    return [plain, traced], layers, spans_path


def report(args, machine, passes, lines):
    first = passes[0]
    print(
        f"latticelab benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} passes={len(passes)}"
        + (" (smoke sizes)" if args.smoke else "")
    )
    print("machine: " + json.dumps(machine, sort_keys=True))
    inputs = first["inputs"]
    if "inputs" in inputs:
        print(f"inputs: {len(inputs['inputs'])} lattices")
        for spec in inputs["inputs"]:
            print(
                f"  {spec['name']:<10} elements={spec['elements']:<4} "
                f"covers={spec['covers']:<4} intervals={spec['intervals']:<6} "
                f"chain_steps={spec['chain_steps']}"
            )
    else:
        print("inputs: " + json.dumps(inputs, sort_keys=True))
    info = first["info"]
    if "nodes_total" in info:
        print(
            f"el_search nodes: total={info['nodes_total']} "
            f"certify={info['nodes_certify']} refute={info['nodes_refute']} "
            f"digest={info['nodes_digest']} "
            f"(classes searched again under a second relabeling: {info['repeated']})"
        )
    for key in ("counts", "sd", "candidates"):
        if key in info:
            print(f"{key}: {info[key]}")
    for line in lines:
        print(line)
    for p in passes:
        for problem in p["problems"][:20]:
            print("WRONG: " + problem)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "latticelab", "__init__.py")):
        print(f"error: no latticelab sources under {ROOT}/src", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    machine = machine_details()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            passes, metrics, spans_path = trace(args, deadline)
            lines = [f"traced spans: {spans_path}"]
            lines += [
                f"{name:<48} {m['value']:<14.6g} {m['unit']}"
                for name, m in sorted(metrics.items())
            ]
            counted = passes[1:]
        else:
            passes, setups = measure(args, deadline)
            values = end_to_end(passes, setups)
            metrics = {
                k: {"value": v, "unit": u}
                for k, (v, u, _) in values.items()
                if k in GATED
            }
            lines = [
                f"{name:<14} {value:<12.6g} {unit:<3}  ({note})"
                for name, (value, unit, note) in values.items()
            ]
            counted = passes
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["failed"] for p in counted)
    if not args.trace:
        lines.append(
            f"{'fail_frac':<14} {failed / attempted if attempted else 1:<12.6g} "
            f"{'':<3}  ({failed} of {attempted} items attempted failed)"
        )
    correct = all(not p["problems"] for p in passes) and attempted > 0
    report(args, machine, passes, lines)

    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(
            {"args": vars(args), "machine": machine, "metrics": metrics, "passes": passes},
            fh,
            indent=1,
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
