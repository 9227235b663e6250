#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --sets 2 --runs 10 [--first-seed 1] \
        [--out results.json]

Run it from the root of the repository. Each set runs every workload of
BENCHMARK.json --runs times through perfbench/run.py, for BENCHMARK.json's
run_seconds, each run on a seed of its own: set 1 takes seeds first-seed to
first-seed + runs - 1, set 2 the next --runs seeds, and so on. The sets are
interleaved (run 1 of set 1 on every workload, then run 1 of set 2, ...), so
slow drift of the host lands in all sets alike.

For every workload and end-to-end metric it prints each set's median and
its spread (distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median),
and the drift of each later set's median from the first set's median in the
metric's worse direction. It flags a spread above the metric's bound, a
drift above the bound, and sets whose share of failed operations differ. --out writes every run's result as JSON, after each run.
"""

import argparse
import datetime
import fractions
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=900)
        except BaseException:
            # SIGTERM, not SIGKILL: run.py then stops and reaps the
            # benchmark binary it started.
            proc.terminate()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    # A terminated run raises SystemExit, so subprocess.run kills and reaps
    # the child it is waiting for instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    times = [[None, None] for _ in range(args.sets)]
    for i in range(args.runs):
        for s in range(args.sets):
            seed = args.first_seed + s * args.runs + i
            now = datetime.datetime.now(datetime.timezone.utc)
            times[s][0] = times[s][0] or now
            for w in workloads:
                results[w][s].append(run_once(w, seed, seconds))
            times[s][1] = datetime.datetime.now(datetime.timezone.utc)
            print(f"# set {s + 1} run {i + 1} (seed {seed}) done",
                  file=sys.stderr, flush=True)
            if args.out:
                Path(args.out).write_text(json.dumps(
                    {"sets": [[t and t.isoformat() for t in ts]
                              for ts in times],
                     "results": results}, indent=1))

    for s, (begin, end) in enumerate(times):
        print(f"set {s + 1}: {begin:%Y-%m-%d %H:%M} to {end:%H:%M} UTC, "
              f"{args.runs} runs of {len(workloads)} workloads, "
              f"{seconds:g} s each")
    problems = 0
    for w in workloads:
        print(f"\n{w}")
        shares = set()
        for runs in results[w]:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.add(fractions.Fraction(failed, attempted))
            print(f"  operations failed: {failed} of {attempted}")
        if len(shares) > 1:
            print("  ! failed share differs between sets")
            problems += 1
        print(f"  {'metric':20s} {'bound':>6s} " +
              " ".join(f"{'median' + str(s + 1):>12s} {'spread':>7s}"
                       for s in range(args.sets)) + f" {'drift':>7s}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs]
                    for runs in results[w]]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = max(sign * (med - meds[0]) / meds[0] if meds[0] else 0.0
                        for med in meds)
            flags = []
            if max(spreads) > bound:
                flags.append("spread")
            if drift > bound:
                flags.append("drift")
            problems += bool(flags)
            print(f"  {name:20s} {bound:6.2f} " +
                  " ".join(f"{med:12.5g} {sp:7.1%}"
                           for med, sp in zip(meds, spreads)) +
                  f" {drift:7.1%} {' '.join('!' + f for f in flags)}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
