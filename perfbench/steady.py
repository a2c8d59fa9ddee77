#!/usr/bin/env python3
"""Run each benchmark workload repeatedly, back to back, and print every
end-to-end metric's median, quartiles and spread.

The spread is the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median;
each metric's ``bound`` from BENCHMARK.json is printed beside it. Every run
takes another seed. Beside each run the share of the machine's CPU time the
hypervisor stole while it ran is printed (from ``/proc/stat``, where the
kernel reports it), since steal moves the wall-clock serve-mix figures. Run
from the repository root:

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads big-dag serve-mix
    python3 perfbench/steady.py --out perfbench/set1.json   # keep every run's values
    python3 perfbench/steady.py --compare perfbench/set1.json perfbench/set2.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def cpu_ticks():
    """(steal, total) CPU ticks of the machine so far, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal; guest time is already
    # counted in user.
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start, ticks = time.monotonic(), cpu_ticks()
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall, after = time.monotonic() - start, cpu_ticks()
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    steal = None
    if ticks and after and after[1] > ticks[1]:
        steal = (after[0] - ticks[0]) / (after[1] - ticks[1])
    return result, wall, steal


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def measure(bench, args, metrics):
    runs = {}
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        walls, steals, failed, attempted, correct = [], [], 0, 0, True
        for i in range(args.runs):
            seed = args.seed_base + i
            result, wall, steal = run_once(bench["command"], workload, seed,
                                           args.seconds, args.trace)
            walls.append(wall)
            if steal is not None:
                steals.append(steal)
            failed += result["failed"]
            attempted += result["attempted"]
            correct &= result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if args.each:
                stolen = "" if steal is None else f", steal={steal:.1%}"
                print(f"  seed {seed}: " + ", ".join(
                    f"{name}={v[-1]:.5g}" for name, v in values.items()) + stolen)
        runs[workload] = {"seeds": [args.seed_base + i for i in range(args.runs)],
                          "steal": steals, "values": values}
        stolen = f", steal {min(steals):.1%}-{max(steals):.1%}" if steals else ""
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.runs - 1}, {failed}/{attempted} ops failed, "
              f"correct={correct}, wall {min(walls):.1f}-{max(walls):.1f} s{stolen}")
        print(f"  {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            q1, q2, q3, spread = quartiles(values[m["name"]])
            bound = m.get("bound")
            flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
            bound_text = f"{bound:>6}" if bound is not None else ""
            print(f"  {m['name']:<24} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.2%} {bound_text}{flag}")
    return runs


def compare(bench, first_path, second_path):
    """Print how far each median of the second set lies from the first's,
    signed so that positive is worse, against the metric's bound."""
    with open(first_path) as f:
        first = json.load(f)["runs"]
    with open(second_path) as f:
        second = json.load(f)["runs"]
    print(f"{'workload':<13} {'metric':<16} {'median 1':>12} {'median 2':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for workload in first:
        if workload not in second:
            continue
        for m in bench["end_to_end"]:
            a = statistics.median(first[workload]["values"][m["name"]])
            b = statistics.median(second[workload]["values"][m["name"]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  OVER" if worse > m["bound"] else ""
            print(f"{workload:<13} {m['name']:<16} {a:>12.5g} {b:>12.5g} "
                  f"{worse:>+9.2%} {m['bound']:>6}{flag}")


def main():
    sys.stdout.reconfigure(line_buffering=True)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--each", action="store_true",
                        help="also print every run's values as it finishes")
    parser.add_argument("--out", help="write every run's values to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare the medians of two --out files; runs nothing")
    args = parser.parse_args()
    if args.compare:
        compare(bench, *args.compare)
        return
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    runs = measure(bench, args, metrics)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": args.seconds, "trace": args.trace, "runs": runs}, f)


if __name__ == "__main__":
    main()
