"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each reports exactly the metrics BENCHMARK.json names, with their units,
and that every output passes. Then plants wrong expected outputs, and an
item that raises, and checks that each run reports the failures, so the
output checks are known to be able to fail. Exits 1 on any problem.
"""

import copy
import json
import sys

import run
import workloads

SEED = 1


def tiny(workload, trace=0, records=None):
    return run.run(workload, SEED, 0.01, trace, size="tiny", records=records)["line"]


def expect_all_failed(label, line, problems):
    if line["correct"] or line["failed"] != line["attempted"]:
        problems.append(f"{label}: planted failure not reported: {line}")


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line = tiny(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                "missing or unexpected, or a unit differs")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {line}")

    # A census answer that contradicts every complex's ddc+3 verdict.
    lengths = workloads._zigzag_lengths
    workloads._zigzag_lengths = lambda t: [3] if any(n != 3 for n in lengths(t)) else [4]
    try:
        expect_all_failed("wrong census", tiny("sweep"), problems)
    finally:
        workloads._zigzag_lengths = lengths

    # Wrong recorded digests.
    planted = copy.deepcopy(run.load_records())
    for key in planted["workloads"]["nilmanifold"]["digests"]:
        planted["workloads"]["nilmanifold"]["digests"][key] = "0" * 16
    expect_all_failed("wrong digest", tiny("nilmanifold", records=planted), problems)

    # An item that raises.
    run_item = workloads.run_item

    def boom(zz, item, given):
        raise ArithmeticError("planted")

    workloads.run_item = boom
    try:
        expect_all_failed("raising item", tiny("large"), problems)
    finally:
        workloads.run_item = run_item

    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
