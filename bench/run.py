"""Closed-loop benchmark of zzcalc.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One client in one process, no threads: each item is handed to the library
only after the previous result has returned. A run sets up its inputs
several times (importing zzcalc afresh each time) and reports the median,
then cycles through the items for --seconds, completing at least one pass.
Every output is checked after the timed loop. The last line of standard output is one JSON object: with
--trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run (see tracing.py). --workload all runs every
workload, untraced and traced, each in a fresh process, and prints a table.

Inputs come from the seed only; the library receives the generated inputs.
Records of each workload (why it was chosen, its recipe, what each layer
metric should move, and the output digests for the default seed) are in
records.json beside this file.
"""

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

WORKLOADS = ("sweep", "large", "nilmanifold")
MODULES = ("linalg", "bicomplex", "functors", "decomposition", "conditions",
           "cdga", "cli")
SETUPS = 5
RESULTS = ROOT / "bench_results"


def load_records():
    return json.loads((BENCH / "records.json").read_text())


def import_zzcalc():
    """Import zzcalc afresh from src/ and return its modules by name."""
    for name in [m for m in sys.modules if m == "zzcalc" or m.startswith("zzcalc.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        m: importlib.import_module(f"zzcalc.{m}") for m in MODULES})


# ---------------------------------------------------------------------------
# Provenance, read from the checkout and /proc only


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = []
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": load,
    }


# ---------------------------------------------------------------------------
# The closed loop


def measure(zz, items, first_inputs, seconds, tracer=None):
    """Hand the items to the library one at a time, cycling through them.

    The first pass always completes. After it, an item is started only if
    its last latency says it will end within `seconds` of the start, so
    `seconds=0` gives exactly one pass. Returns, per item, the
    (latency_ns, output) of each of its runs, and the elapsed ns; an output
    is the canonical JSON text, or the exception the item raised.
    """
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(seconds * 1e9)
    runs = [[] for _ in items]
    given = list(first_inputs)
    i = 0
    while True:
        if tracer:
            tracer.item = i
        t0 = clock()
        try:
            out = workloads.run_item(zz, items[i], given[i])
        except Exception as exc:  # a failed item is counted, never fatal
            out = exc
        runs[i].append((clock() - t0, out))
        i = (i + 1) % len(items)
        if runs[i] and clock() + runs[i][-1][0] > deadline:
            return runs, clock() - start
        if runs[i]:
            given[i] = workloads.item_input(zz, items[i])


def check(items, runs, digests):
    """(attempted, failures) over every output of every item run."""
    failures = []
    attempted = 0
    for item, item_runs in zip(items, runs):
        first = item_runs[0][1]
        for n, (_, out) in enumerate(item_runs):
            attempted += 1
            want = digests.get(item.key) if digests else None
            problems = workloads.check_item(item, out, want)
            if not problems and out != first:
                problems = ["output differs from the item's first run"]
            if problems:
                failures.append({"item": item.key, "run": n, "problems": problems})
    return attempted, failures


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def run(workload, seed, seconds, trace, size="full", records=None):
    """One benchmark run; returns the result dict printed by main()."""
    records = records if records is not None else load_records()
    prov = provenance()
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        zz = import_zzcalc()
        items = workloads.make_items(zz, workload, seed, size)
        first = [workloads.item_input(zz, it) for it in items]
        setup_s.append(time.perf_counter() - t0)

    rec = records["workloads"][workload]
    # a nilmanifold item's output does not depend on the seed or the size
    digests = None
    if workload == "nilmanifold" or (size == "full" and seed == records["default_seed"]):
        digests = rec["digests"]

    runs, _ = measure(zz, items, first, seconds / 2 if trace else seconds)
    # an item's median latency over its runs; wall_s is one pass of those
    item_s = [statistics.median(lat for lat, _ in r) / 1e9 for r in runs]
    wall_s = sum(item_s)
    if trace:
        import tracing  # only traced runs load the wrappers

        tracer = tracing.Tracer(zz)
        tracer.install()
        try:
            traced, elapsed_ns = measure(
                zz, items, [workloads.item_input(zz, it) for it in items], 0, tracer)
        finally:
            tracer.uninstall()
        runs = [r + t for r, t in zip(runs, traced)]

    attempted, failures = check(items, runs, digests)
    props = workloads.properties(zz, items)
    if size == "full" and seed == records["default_seed"] and props != rec["properties"]:
        failures.append({"item": "*", "run": -1,
                         "problems": [f"input properties {props} != recorded"]})

    n_runs = sum(len(r) for r in runs)
    if trace:
        metrics, accounted = tracing.layer_metrics(tracer.spans, elapsed_ns, len(items))
        traced_s = sum(lat for r in traced for lat, _ in r) / 1e9
        metrics["trace.wall_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - wall_s, "unit": "s"}
        if not accounted:
            failures.append({"item": "*", "run": -1, "problems": [
                "layer self times plus benchmark time do not add up to the traced wall time"]})
        samples = {"trace.wall_s": "1 traced pass",
                   "trace.untraced_wall_s": f"{n_runs - len(items)} untraced item runs"}
    else:
        lat_ms = sorted(s * 1e3 for s in item_s)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "item_p50_ms": {"value": nearest_rank(lat_ms, 50), "unit": "ms"},
            "item_p90_ms": {"value": nearest_rank(lat_ms, 90), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
        per_item = f"{len(items)} items, {n_runs} item runs"
        samples = {"wall_s": per_item, "item_p50_ms": per_item, "item_p90_ms": per_item,
                   "setup_s": f"{SETUPS} set-ups", "peak_rss_mb": "1 process"}

    failed = sum(f["run"] >= 0 for f in failures)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": prov, "properties": props, "samples": samples,
        "items": len(items), "item_runs": n_runs, "setup_runs_s": setup_s,
        "item_latencies_s": {it.key: [lat / 1e9 for lat, _ in r] for it, r in zip(items, runs)},
        "failures": failures, "spans": tracer.spans if trace else None,
        "line": {"correct": not failures, "attempted": n_runs,
                 "failed": failed, "metrics": metrics},
    }


# ---------------------------------------------------------------------------
# Output


def save(result):
    RESULTS.mkdir(exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json.gz"
    with gzip.open(RESULTS / name, "wt") as f:
        json.dump(result, f)
    return RESULTS / name


def print_result(result, path):
    line = result["line"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  {result['items']} items, "
          f"{result['item_runs']} item runs")
    print("provenance " + json.dumps(result["provenance"]))
    print("inputs " + json.dumps(result["properties"]))
    for name, m in line["metrics"].items():
        extra = result["samples"].get(name, "")
        print(f"  {name:46s} {m['value']:>14.6g} {m['unit']:10s} {extra}")
    print(f"  {'fail_ratio':46s} {line['failed']:>6d} / {line['attempted']:<6d} "
          f"{'ratio':10s} failed item runs over item runs attempted")
    for f in result["failures"][:20]:
        print(f"FAIL {f['item']} run {f['run']}: {'; '.join(f['problems'])}")
    print(f"saved {path.relative_to(ROOT)}")
    print(json.dumps(line))


def report(args):
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            sys.stdout.flush()
            status = status or subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed is None:
        args.seed = load_records()["default_seed"]
    if args.workload == "all":
        return report(args)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        found = Path(importlib.import_module("zzcalc").__file__)
    except ImportError as exc:
        print(f"cannot import zzcalc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not found.is_relative_to(ROOT / "src"):
        print(f"zzcalc was imported from {found}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    path = save(result)
    print_result(result, path)
    return 0 if result["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
