"""Benchmark of assoform: one closed-loop client, seeded inputs, exact checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload assoc-grid --seed 0 --seconds 20 --trace 0

Steps: measure set-up (fresh interpreters importing assoform and building
the CLI parser), generate the workload's inputs from the seed, run the ops
in a worker process (worker.py), check every report (checks.py), and print
the metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer ones.  Times are in
reference seconds (calibrate.py), so that the host's speed drift does not
show in them; the wall-clock figures are printed above the result.  Work
files go to
``.perfbench/`` in the checkout.  Exits 1 without a result when the
program cannot be run or the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REF_START_CODE, REF_START_SECONDS, Speedometer  # noqa: E402
from checks import check  # noqa: E402
from tracing import COUNTERS, FUNCTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 4  # before the worker and again after it
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from assoform.cli import main; sys.exit(main(['--help']))")
WORKER_TIMEOUT = 165.0
GOLDEN_SEED = 0
WARMUP = "vars: x1 x2\nx1^2 + x2^2\nx1*x2\n"


def per_layer_units():
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead_ratio"] = "ratio"
    return units


END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class Abort(Exception):
    """The benchmark cannot produce a result."""


def setup_times(root, count) -> list[float]:
    """Fresh interpreters that import assoform and build the CLI parser.

    Each start is timed on the wall clock beside a start of the reference
    interpreter (calibrate.REF_START_CODE), the two in turns, and given in
    reference seconds.
    """
    src = os.path.join(root, "src")

    def start(code, *args):
        begin = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=root,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        if proc.returncode != 0:
            raise Abort(f"set-up probe failed: {proc.stderr.decode()[-400:]}")
        return time.perf_counter() - begin

    times = []
    for i in range(count):
        if i % 2:
            own, ref = start(SETUP_CODE, src), start(REF_START_CODE)
        else:
            ref, own = start(REF_START_CODE), start(SETUP_CODE, src)
        times.append(own * REF_START_SECONDS / ref)
    return times


def write_inputs(builder, work):
    for rel, content in builder.files.items():
        path = os.path.join(work, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        mode = "wb" if isinstance(content, bytes) else "w"
        with open(path, mode, **({} if mode == "wb" else {"encoding": "utf-8"})) as fh:
            fh.write(content)


def run_worker(plan, work) -> dict:
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           plan_path, result_path], cwd=work,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise Abort(f"worker exited {proc.returncode}: {proc.stderr.decode()[-800:]}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def digest(outcome) -> str:
    return hashlib.sha256(f"{outcome['exit']}\n{outcome['stdout']}".encode()).hexdigest()


def golden_path(workload):
    return os.path.join(HERE, "golden", f"{workload}.json")


def verify(ops_by_id, outcomes, golden, reference=None) -> list[str]:
    """One line per failed op: wrong report, exit, overrun, or changed bytes.

    A report must match the first run of the same input, or the reference
    run's report when one is given (the untraced run of a traced round).
    """
    problems, first = [], dict(reference or {})
    for outcome in outcomes:
        oid = outcome["id"]
        problem = check(ops_by_id[oid], outcome)
        if problem is None and oid in first and first[oid] != outcome["stdout"]:
            problem = "report differs from an earlier run of the same input"
        if problem is None and golden is not None and oid in golden \
                and golden[oid] != digest(outcome):
            problem = "report differs from the golden digest"
        first.setdefault(oid, outcome["stdout"])
        if problem:
            problems.append(f"{oid}: {problem}")
    return problems


def tail(values):
    """Value with exactly ten samples above it (the largest value if < 11)."""
    ordered = sorted(values)
    index = max(len(ordered) - 11, 0) if len(ordered) >= 11 else len(ordered) - 1
    return ordered[index], index


def group_lines(ops_by_id, outcomes):
    """Median and max op time per group (per command when groups are many)."""
    labels = {o["id"]: ops_by_id[o["id"]]["group"] for o in outcomes}
    if len(set(labels.values())) > 16:
        labels = {k: v.split()[0] for k, v in labels.items()}
    groups: dict[str, list[float]] = {}
    for outcome in outcomes:
        groups.setdefault(labels[outcome["id"]], []).append(outcome["seconds"])
    return [f"  {name:<28} n={len(v):<4} median {statistics.median(v):.4f} ref s"
            f"  max {max(v):.4f} ref s" for name, v in sorted(groups.items())]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one round of the smallest inputs (self-tests)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record report digests for this seed")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "assoform", "cli.py")):
        print("perfbench: no src/assoform here; run from the root of a checkout",
              file=sys.stderr)
        return 1
    work = os.path.join(root, ".perfbench",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_times(root, 1)  # compiles bytecode in a fresh checkout; not counted
        setup = setup_times(root, SETUP_SAMPLES)
        builder = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        write_inputs(builder, work)
        with open(os.path.join(work, "in", "warmup.txt"), "w", encoding="utf-8") as fh:
            fh.write(WARMUP)
        warmup = [{"id": "warmup", "kind": "cli", "limit": 30.0,
                   "argv": ["--json", "assoc", "in/warmup.txt"]}]
        plan = {"src": os.path.join(root, "src"), "rounds": builder.rounds,
                "warmup": warmup, "defects": builder.defects,
                "mode": "trace" if args.trace else "timed", "seconds": args.seconds,
                "rounds_min": len(builder.rounds) if args.write_golden else 1,
                "spans": os.path.join(work, "spans.jsonl")}
        result = run_worker(plan, work)
        # sampled on both sides of the worker, so a slow spell of the
        # machine weighs on set-up no more than on the ops
        setup_s = statistics.median(setup + setup_times(root, SETUP_SAMPLES))
    except (Abort, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ops_by_id = {op["id"]: op for rnd in builder.rounds for op in rnd}
    ops_by_id.update({op["id"]: op for op in builder.defects})
    golden = None
    if args.seed == GOLDEN_SEED and not args.tiny and not args.write_golden \
            and os.path.exists(golden_path(args.workload)):
        with open(golden_path(args.workload), encoding="utf-8") as handle:
            golden = json.load(handle)["digests"]

    if args.trace:
        outcomes = result["untraced"] + result["traced"]
        untraced = {o["id"]: o["stdout"] for o in result["untraced"]}
        problems = verify(ops_by_id, result["untraced"], golden)
        problems += verify(ops_by_id, result["traced"], golden, reference=untraced)
        units = per_layer_units()
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in units.items()}
        print(f"traced round 0: {len(result['traced'])} ops; spans in "
              f"{os.path.relpath(plan['spans'], root)}")
        top = sorted((v, k) for k, v in result["layers"].items() if k.endswith(".self_s"))
        for value, name in reversed(top[-6:]):
            print(f"  {name:<44} {value:.4f} s")
    else:
        outcomes = result["outcomes"]
        problems = verify(ops_by_id, outcomes, golden)
        speed = Speedometer()
        speed.samples = result["samples"]
        for outcome in outcomes:
            outcome["wall"] = outcome["seconds"]
            outcome["seconds"] *= speed.factor(outcome["start"], outcome["end"])
        # the client's own time between ops, at the run's mean speed
        between = result["wall_s"] - sum(o["wall"] for o in outcomes)
        loop_s = sum(o["seconds"] for o in outcomes) + between * speed.factor()
        seconds = [o["seconds"] for o in outcomes]
        tail_value, tail_index = tail(seconds)
        n = len(outcomes)
        metrics = {
            "ops_per_s": n / loop_s,
            "latency_p50_s": statistics.median(seconds),
            "latency_tail_s": tail_value,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "ok_ratio": (n - len(problems)) / n,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        kernel_ms = 1000 * statistics.median(s for _t, s in speed.samples)
        print(f"{args.workload}: {n} ops in {result['cycles']} round(s), "
              f"{loop_s:.2f} reference s; on the wall clock {result['wall_s']:.2f} s, "
              f"p50 {statistics.median(o['wall'] for o in outcomes):.4f} s "
              f"(kernel sample median {kernel_ms:.2f} ms over {len(speed.samples)}); "
              f"latency_tail_s is the {100 * (tail_index + 1) / n:.1f}th percentile "
              f"({n - tail_index - 1} of {n} samples above it)")
        for line in group_lines(ops_by_id, outcomes):
            print(line)

    if builder.defects:
        reasons = [(o["id"], check(ops_by_id[o["id"]], o)) for o in result["defects"]]
        still = [f"{oid} ({reason})" for oid, reason in reasons if reason]
        print(f"known defects (ROADMAP item 5), run outside the timed loop: "
              f"{len(still)} of {len(result['defects'])} still fail"
              + (": " + "; ".join(still) if still else ""))
    for line in problems[:20]:
        print(f"FAILED {line}")

    if args.write_golden and not problems:
        digests = {o["id"]: digest(o) for o in outcomes}
        os.makedirs(os.path.dirname(golden_path(args.workload)), exist_ok=True)
        with open(golden_path(args.workload), "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "digests": dict(sorted(digests.items()))},
                      handle, indent=1)
            handle.write("\n")

    print(json.dumps({"correct": not problems, "attempted": len(outcomes),
                      "failed": len(problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
